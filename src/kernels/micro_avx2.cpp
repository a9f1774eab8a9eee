// AVX2 + FMA micro-kernel and in-block TRSM solve, compiled via
// per-function target attributes so the translation unit builds at the
// portable baseline ISA and the binary stays runnable on machines without
// AVX2; runtime dispatch (engine.hpp) only routes here when the CPU
// reports both features.
#include "kernels/gemm_packed.hpp"

#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETSCHED_KERNELS_HAVE_AVX2_PATH 1
#include <immintrin.h>
#endif

namespace hetsched::kernels::detail {

#if defined(HETSCHED_KERNELS_HAVE_AVX2_PATH)

bool avx2_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

__attribute__((target("avx2,fma"))) void micro_8x4_avx2(int kc,
                                                        const double* pa,
                                                        const double* pb,
                                                        double* acc) {
  // 8 accumulators (8 rows x 4 cols as 2x4 YMM), 2 A vectors, 1 B
  // broadcast: 11 of 16 YMM registers live.
  __m256d c00 = _mm256_setzero_pd(), c10 = _mm256_setzero_pd();
  __m256d c01 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c02 = _mm256_setzero_pd(), c12 = _mm256_setzero_pd();
  __m256d c03 = _mm256_setzero_pd(), c13 = _mm256_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_load_pd(pa);
    const __m256d a1 = _mm256_load_pd(pa + 4);
    __m256d b = _mm256_broadcast_sd(pb);
    c00 = _mm256_fmadd_pd(a0, b, c00);
    c10 = _mm256_fmadd_pd(a1, b, c10);
    b = _mm256_broadcast_sd(pb + 1);
    c01 = _mm256_fmadd_pd(a0, b, c01);
    c11 = _mm256_fmadd_pd(a1, b, c11);
    b = _mm256_broadcast_sd(pb + 2);
    c02 = _mm256_fmadd_pd(a0, b, c02);
    c12 = _mm256_fmadd_pd(a1, b, c12);
    b = _mm256_broadcast_sd(pb + 3);
    c03 = _mm256_fmadd_pd(a0, b, c03);
    c13 = _mm256_fmadd_pd(a1, b, c13);
    pa += kMR;
    pb += kNR;
  }
  _mm256_store_pd(acc + 0, c00);
  _mm256_store_pd(acc + 4, c10);
  _mm256_store_pd(acc + 8, c01);
  _mm256_store_pd(acc + 12, c11);
  _mm256_store_pd(acc + 16, c02);
  _mm256_store_pd(acc + 20, c12);
  _mm256_store_pd(acc + 24, c03);
  _mm256_store_pd(acc + 28, c13);
}

// ---- In-block TRSM solve ----------------------------------------------------
//
// The AVX-512 solve (micro_avx512.cpp) at half the width: strips of up to
// kSolveVecs YMM vectors (16 rows), a partial last vector through
// maskload/maskstore. Per element the FNMADD chain is the AVX-512 tier's,
// so the two tiers agree bitwise.

namespace {

constexpr int kSolveVecs = 4;

// Columns [j0, j1) of one strip of X * L^T = A, kVecs YMM vectors tall,
// the last one masked by `tail` when kMasked; two columns per pass, as in
// trsm_strip_avx512.
template <int kVecs, bool kMasked>
__attribute__((target("avx2,fma"))) void trsm_strip_avx2(int j0, int j1,
                                                         const double* l,
                                                         int ldl, double* a,
                                                         int lda,
                                                         __m256i tail) {
  const auto col = [&](int j) {
    return a + static_cast<std::ptrdiff_t>(j) * lda;
  };
  const auto lv = [&](int i, int j) {
    return l[i + static_cast<std::ptrdiff_t>(j) * ldl];
  };
  const auto load = [&](int v, const double* p)
      __attribute__((target("avx2"))) {
        return kMasked && v == kVecs - 1
                   ? _mm256_maskload_pd(p + 4 * v, tail)
                   : _mm256_loadu_pd(p + 4 * v);
      };
  const auto store = [&](int v, double* p, __m256d x)
      __attribute__((target("avx2"))) {
        if (kMasked && v == kVecs - 1)
          _mm256_maskstore_pd(p + 4 * v, tail, x);
        else
          _mm256_storeu_pd(p + 4 * v, x);
      };
  for (int j = j0; j < j1; j += 2) {
    const bool pair = j + 1 < j1;
    __m256d c0[std::size_t{kVecs}], c1[std::size_t{kVecs}];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      c0[v] = load(v, col(j));
      c1[v] = pair ? load(v, col(j + 1)) : _mm256_setzero_pd();
    }
    for (int p = 0; p < j; ++p) {
      const double w0 = lv(j, p), w1 = pair ? lv(j + 1, p) : 0.0;
      const double* xp = col(p);
      if (w0 != 0.0) {
        const __m256d b = _mm256_set1_pd(w0);
#pragma GCC unroll 4
        for (int v = 0; v < kVecs; ++v)
          c0[v] = _mm256_fnmadd_pd(b, load(v, xp), c0[v]);
      }
      if (w1 != 0.0) {
        const __m256d b = _mm256_set1_pd(w1);
#pragma GCC unroll 4
        for (int v = 0; v < kVecs; ++v)
          c1[v] = _mm256_fnmadd_pd(b, load(v, xp), c1[v]);
      }
    }
    const __m256d inv0 = _mm256_set1_pd(1.0 / lv(j, j));
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      c0[v] = _mm256_mul_pd(c0[v], inv0);
      store(v, col(j), c0[v]);
    }
    if (!pair) break;
    if (const double w = lv(j + 1, j); w != 0.0) {
      const __m256d b = _mm256_set1_pd(w);
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v)
        c1[v] = _mm256_fnmadd_pd(b, c0[v], c1[v]);
    }
    const __m256d inv1 = _mm256_set1_pd(1.0 / lv(j + 1, j + 1));
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v)
      store(v, col(j + 1), _mm256_mul_pd(c1[v], inv1));
  }
}

// Lane mask of the first `live` (1..4) doubles of a YMM vector.
__attribute__((target("avx2"))) __m256i first_lanes(int live) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(live),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

}  // namespace

__attribute__((target("avx2,fma"))) void trsm_rlt_avx2(int m, int j0, int j1,
                                                       const double* l,
                                                       int ldl, double* a,
                                                       int lda) {
  constexpr int kRows = 4 * kSolveVecs;
  const __m256i all = _mm256_set1_epi64x(-1);
  int i = 0;
  for (; i + kRows <= m; i += kRows)
    trsm_strip_avx2<kSolveVecs, false>(j0, j1, l, ldl, a + i, lda, all);
  const int rows = m - i;
  if (rows == 0) return;
  const int vecs = (rows + 3) / 4;
  using Strip = void (*)(int, int, const double*, int, double*, int, __m256i);
  static constexpr Strip kTail[kSolveVecs] = {
      trsm_strip_avx2<1, true>, trsm_strip_avx2<2, true>,
      trsm_strip_avx2<3, true>, trsm_strip_avx2<4, true>};
  kTail[vecs - 1](j0, j1, l, ldl, a + i, lda,
                  first_lanes(rows - 4 * (vecs - 1)));
}

#else  // non-x86 or unsupported compiler: never selected at runtime

bool avx2_supported() { return false; }

void trsm_rlt_avx2(int m, int j0, int j1, const double* l, int ldl,
                   double* a, int lda) {
  trsm_rlt_generic(m, j0, j1, l, ldl, a, lda);
}

void micro_8x4_avx2(int kc, const double* pa, const double* pb, double* acc) {
  micro_8x4_generic(kc, pa, pb, acc);
}

#endif

}  // namespace hetsched::kernels::detail
