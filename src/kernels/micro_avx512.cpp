// AVX-512F micro-kernel and in-block TRSM solve, compiled via per-function
// target attributes so the translation unit builds at the portable
// baseline ISA and the binary stays runnable on machines without AVX-512;
// runtime dispatch (engine.hpp) only routes here when the CPU reports
// AVX-512F.
//
// The register tile is 8 rows x 8 columns: one ZMM load covers a full
// kMR-tall packed A column, and the 8 accumulator columns come from TWO
// adjacent kNR-wide packed B micro-panels consumed in lockstep. Keeping
// kMR/kNR (and with them the packed-panel ABI) unchanged means every
// packed image -- per-call scratch panels and PackedTileCache entries
// alike -- is shared bit-for-bit across all three tiers; only the macro
// loop pairs panels up (gemm_packed.cpp).
//
// Port budget per depth step on a 2x512-bit-FMA core: 8 FMAs (4 cycles at
// 2/cycle) against 9 load-port uops (1 A load + 8 B broadcasts), so the
// loop is FMA-bound. Eight independent accumulators cover the FMA latency
// exactly (one dependent issue per chain every 4 cycles).
#include "kernels/gemm_packed.hpp"

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETSCHED_KERNELS_HAVE_AVX512_PATH 1
#include <immintrin.h>
#endif

namespace hetsched::kernels::detail {

#if defined(HETSCHED_KERNELS_HAVE_AVX512_PATH)

bool avx512_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

__attribute__((target("avx512f"))) void micro_8x8_avx512(int kc,
                                                         const double* pa,
                                                         const double* pb0,
                                                         const double* pb1,
                                                         double* acc) {
  // acc is kMR x 2*kNR column-major, 64-byte aligned: columns 0..3 from
  // panel pb0, columns 4..7 from panel pb1.
  __m512d c0 = _mm512_setzero_pd(), c1 = _mm512_setzero_pd();
  __m512d c2 = _mm512_setzero_pd(), c3 = _mm512_setzero_pd();
  __m512d c4 = _mm512_setzero_pd(), c5 = _mm512_setzero_pd();
  __m512d c6 = _mm512_setzero_pd(), c7 = _mm512_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m512d a = _mm512_load_pd(pa);
    c0 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[0]), c0);
    c1 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[1]), c1);
    c2 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[2]), c2);
    c3 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[3]), c3);
    c4 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[0]), c4);
    c5 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[1]), c5);
    c6 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[2]), c6);
    c7 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[3]), c7);
    pa += kMR;
    pb0 += kNR;
    pb1 += kNR;
  }
  _mm512_store_pd(acc + 0 * kMR, c0);
  _mm512_store_pd(acc + 1 * kMR, c1);
  _mm512_store_pd(acc + 2 * kMR, c2);
  _mm512_store_pd(acc + 3 * kMR, c3);
  _mm512_store_pd(acc + 4 * kMR, c4);
  _mm512_store_pd(acc + 5 * kMR, c5);
  _mm512_store_pd(acc + 6 * kMR, c6);
  _mm512_store_pd(acc + 7 * kMR, c7);
}

// ---- In-block TRSM solve ----------------------------------------------------
//
// Rows run in strips of up to kSolveVecs ZMM vectors (64 rows); a partial
// last vector is read and written through a lane mask, so every row of
// every strip performs the same FNMADD chain and the strip split never
// shows in the result.

namespace {

constexpr int kSolveVecs = 8;

// Columns [j0, j1) of one strip of X * L^T = A, kVecs ZMM vectors tall,
// the last one masked by `tail` when kMasked. Two columns per pass share
// every x_p load and keep 2 * kVecs independent FMA chains in flight; an
// odd last column runs the same pass with its partner's multipliers zero.
template <int kVecs, bool kMasked>
__attribute__((target("avx512f"))) void trsm_strip_avx512(
    int j0, int j1, const double* l, int ldl, double* a, int lda,
    __mmask8 tail) {
  const auto col = [&](int j) {
    return a + static_cast<std::ptrdiff_t>(j) * lda;
  };
  const auto lv = [&](int i, int j) {
    return l[i + static_cast<std::ptrdiff_t>(j) * ldl];
  };
  const auto load = [&](int v, const double* p)
      __attribute__((target("avx512f"))) {
        return kMasked && v == kVecs - 1
                   ? _mm512_maskz_loadu_pd(tail, p + 8 * v)
                   : _mm512_loadu_pd(p + 8 * v);
      };
  const auto store = [&](int v, double* p, __m512d x)
      __attribute__((target("avx512f"))) {
        if (kMasked && v == kVecs - 1)
          _mm512_mask_storeu_pd(p + 8 * v, tail, x);
        else
          _mm512_storeu_pd(p + 8 * v, x);
      };
  for (int j = j0; j < j1; j += 2) {
    const bool pair = j + 1 < j1;
    __m512d c0[std::size_t{kVecs}], c1[std::size_t{kVecs}];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      c0[v] = load(v, col(j));
      c1[v] = pair ? load(v, col(j + 1)) : _mm512_setzero_pd();
    }
    for (int p = 0; p < j; ++p) {
      const double w0 = lv(j, p), w1 = pair ? lv(j + 1, p) : 0.0;
      const double* xp = col(p);
      if (w0 != 0.0) {
        const __m512d b = _mm512_set1_pd(w0);
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v)
          c0[v] = _mm512_fnmadd_pd(b, load(v, xp), c0[v]);
      }
      if (w1 != 0.0) {
        const __m512d b = _mm512_set1_pd(w1);
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v)
          c1[v] = _mm512_fnmadd_pd(b, load(v, xp), c1[v]);
      }
    }
    const __m512d inv0 = _mm512_set1_pd(1.0 / lv(j, j));
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      c0[v] = _mm512_mul_pd(c0[v], inv0);
      store(v, col(j), c0[v]);
    }
    if (!pair) break;
    if (const double w = lv(j + 1, j); w != 0.0) {
      const __m512d b = _mm512_set1_pd(w);
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v)
        c1[v] = _mm512_fnmadd_pd(b, c0[v], c1[v]);
    }
    const __m512d inv1 = _mm512_set1_pd(1.0 / lv(j + 1, j + 1));
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v)
      store(v, col(j + 1), _mm512_mul_pd(c1[v], inv1));
  }
}

}  // namespace

void trsm_rlt_avx512(int m, int j0, int j1, const double* l, int ldl,
                     double* a, int lda) {
  constexpr int kRows = 8 * kSolveVecs;
  int i = 0;
  for (; i + kRows <= m; i += kRows)
    trsm_strip_avx512<kSolveVecs, false>(j0, j1, l, ldl, a + i, lda, 0xFF);
  const int rows = m - i;
  if (rows == 0) return;
  using Strip = void (*)(int, int, const double*, int, double*, int, __mmask8);
  static constexpr Strip kTail[kSolveVecs] = {
      trsm_strip_avx512<1, true>, trsm_strip_avx512<2, true>,
      trsm_strip_avx512<3, true>, trsm_strip_avx512<4, true>,
      trsm_strip_avx512<5, true>, trsm_strip_avx512<6, true>,
      trsm_strip_avx512<7, true>, trsm_strip_avx512<8, true>};
  const int vecs = (rows + 7) / 8;
  const auto tail =
      static_cast<__mmask8>((1u << (rows - 8 * (vecs - 1))) - 1u);
  kTail[vecs - 1](j0, j1, l, ldl, a + i, lda, tail);
}

// ---- Synthetic input fill ---------------------------------------------------
//
// Eight stream positions per ZMM vector, written with GCC vector
// extensions: AVX-512F has no 64-bit low multiply (vpmullq is AVX512DQ,
// which the tier does not require), and the compiler assembles each
// product from 32-bit halves. The [-1, 1) mapping needs no
// integer-to-double conversion either: with v = z >> 11 < 2^53,
//   v * 2^-52 - 1 = (1 + (v mod 2^52) * 2^-52) - (v >= 2^52 ? 1 : 2),
// where the first term is the double with v's low 52 bits as mantissa and
// a zero exponent, the second is 2.0 less one exponent step when bit 52 is
// set, and the subtraction is exact (Sterbenz).

namespace {

using U64x8 = std::uint64_t __attribute__((vector_size(64)));

__attribute__((target("avx512f"))) inline __m512d splitmix_unit(U64x8 z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  const U64x8 v = (z ^ (z >> 31)) >> 11;
  const U64x8 y = 0x3FF0000000000000ULL | (v & ((1ULL << 52) - 1));
  const U64x8 c = 0x4000000000000000ULL - (v & (1ULL << 52));
  return _mm512_sub_pd(_mm512_castsi512_pd(reinterpret_cast<__m512i>(y)),
                       _mm512_castsi512_pd(reinterpret_cast<__m512i>(c)));
}

}  // namespace

__attribute__((target("avx512f"))) void splitmix_fill_avx512(
    double* dst, std::size_t n, std::uint64_t state) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  // Lane l holds the state of stream position i + l.
  U64x8 x;
  for (int l = 0; l < 8; ++l)
    x[l] = state + static_cast<std::uint64_t>(l + 1) * kGolden;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, splitmix_unit(x));
    x += 8 * kGolden;
  }
  if (i < n)
    _mm512_mask_storeu_pd(dst + i, static_cast<__mmask8>((1u << (n - i)) - 1u),
                          splitmix_unit(x));
}

#else  // non-x86 or unsupported compiler: never selected at runtime

bool avx512_supported() { return false; }

void splitmix_fill_avx512(double* dst, std::size_t n, std::uint64_t state) {
  splitmix_fill_generic(dst, n, state);
}

void trsm_rlt_avx512(int m, int j0, int j1, const double* l, int ldl,
                     double* a, int lda) {
  trsm_rlt_generic(m, j0, j1, l, ldl, a, lda);
}

void micro_8x8_avx512(int kc, const double* pa, const double* pb0,
                      const double* pb1, double* acc) {
  micro_8x4_generic(kc, pa, pb0, acc);
  micro_8x4_generic(kc, pa, pb1, acc + kMR * kNR);
}

#endif

}  // namespace hetsched::kernels::detail
