#include "kernels/gemm_packed.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "kernels/engine.hpp"
#include "kernels/scratch.hpp"

namespace hetsched::kernels::detail {
namespace {

using MicroKernel = void (*)(int, const double*, const double*, double*);

}  // namespace

void pack_a(int mc, int kc, const double* a, int lda, double* dst) {
  for (int ir = 0; ir < mc; ir += kMR) {
    const int mr = std::min(kMR, mc - ir);
    double* d = dst + static_cast<std::ptrdiff_t>(ir) * kc;
    for (int p = 0; p < kc; ++p) {
      const double* ap = a + ir + static_cast<std::ptrdiff_t>(p) * lda;
      int i = 0;
      for (; i < mr; ++i) d[i] = ap[i];
      for (; i < kMR; ++i) d[i] = 0.0;
      d += kMR;
    }
  }
}

void pack_b(int kc, int n, const double* b, int ldb, BLayout layout,
            double* dst) {
  for (int jr = 0; jr < n; jr += kNR) {
    const int nr = std::min(kNR, n - jr);
    double* d = dst + static_cast<std::ptrdiff_t>(jr) * kc;
    if (layout == BLayout::kNT) {
      for (int p = 0; p < kc; ++p) {
        const double* bp = b + jr + static_cast<std::ptrdiff_t>(p) * ldb;
        int j = 0;
        for (; j < nr; ++j) d[j] = bp[j];
        for (; j < kNR; ++j) d[j] = 0.0;
        d += kNR;
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        int j = 0;
        for (; j < nr; ++j)
          d[j] = b[p + static_cast<std::ptrdiff_t>(jr + j) * ldb];
        for (; j < kNR; ++j) d[j] = 0.0;
        d += kNR;
      }
    }
  }
}

void micro_8x4_generic(int kc, const double* pa, const double* pb,
                       double* acc) {
  // Local accumulator array; with kMR*kNR = 32 doubles the compiler keeps
  // it in SIMD registers at the baseline ISA.
  double c[kMR * kNR] = {};
  for (int p = 0; p < kc; ++p) {
    for (int j = 0; j < kNR; ++j) {
      const double bj = pb[j];
      double* cj = c + j * kMR;
      for (int i = 0; i < kMR; ++i) cj[i] += pa[i] * bj;
    }
    pa += kMR;
    pb += kNR;
  }
  for (int x = 0; x < kMR * kNR; ++x) acc[x] = c[x];
}

namespace {

// Columns [j0, j1) of one kRows-tall strip of X * L^T = A, two columns
// per pass; the generic counterpart of trsm_strip_avx512.
template <int kRows>
void trsm_strip_generic(int j0, int j1, const double* l, int ldl, double* a,
                        int lda) {
  const auto col = [&](int j) {
    return a + static_cast<std::ptrdiff_t>(j) * lda;
  };
  const auto lv = [&](int i, int j) {
    return l[i + static_cast<std::ptrdiff_t>(j) * ldl];
  };
  for (int j = j0; j < j1; j += 2) {
    const bool pair = j + 1 < j1;
    double c0[std::size_t{kRows}], c1[std::size_t{kRows}];
    for (int r = 0; r < kRows; ++r) {
      c0[r] = col(j)[r];
      c1[r] = pair ? col(j + 1)[r] : 0.0;
    }
    for (int p = 0; p < j; ++p) {
      const double w0 = lv(j, p), w1 = pair ? lv(j + 1, p) : 0.0;
      const double* xp = col(p);
      if (w0 != 0.0)
        for (int r = 0; r < kRows; ++r) c0[r] -= w0 * xp[r];
      if (w1 != 0.0)
        for (int r = 0; r < kRows; ++r) c1[r] -= w1 * xp[r];
    }
    const double inv0 = 1.0 / lv(j, j);
    for (int r = 0; r < kRows; ++r) col(j)[r] = c0[r] *= inv0;
    if (!pair) break;
    if (const double w = lv(j + 1, j); w != 0.0)
      for (int r = 0; r < kRows; ++r) c1[r] -= w * c0[r];
    const double inv1 = 1.0 / lv(j + 1, j + 1);
    for (int r = 0; r < kRows; ++r) col(j + 1)[r] = c1[r] * inv1;
  }
}

}  // namespace

void trsm_rlt_generic(int m, int j0, int j1, const double* l, int ldl,
                      double* a, int lda) {
  int i = 0;
  for (; i + kMR <= m; i += kMR)
    trsm_strip_generic<kMR>(j0, j1, l, ldl, a + i, lda);
  for (; i < m; ++i) trsm_strip_generic<1>(j0, j1, l, ldl, a + i, lda);
}

void splitmix_fill_generic(double* dst, std::size_t n, std::uint64_t state) {
  for (std::size_t i = 0; i < n; ++i) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    dst[i] = static_cast<double>(z >> 11) * 0x1p-53 * 2.0 - 1.0;
  }
}

void gemm_packed(int m, int n, int k, double alpha, const double* a, int lda,
                 const double* b, int ldb, BLayout layout, double* c, int ldc,
                 bool lower_only, const PackedView* packed_a,
                 const PackedView* packed_b) {
  if (m <= 0 || n <= 0 || k <= 0 || alpha == 0.0) return;
  // One tier snapshot per call (see engine.hpp): every micro-kernel
  // decision below derives from `tier`, so a concurrent set_engine_tier()
  // can never hand this call a mixed configuration. The AVX-512 tier
  // pairs adjacent B micro-panels into 8x8 register tiles and uses the
  // AVX2 8x4 kernel (always supported where AVX-512 is) for odd trailing
  // panels and diagonal-straddling lower_only tiles.
  const Tier tier = engine_tier();
  const bool wide = tier == Tier::kAvx512;
  const MicroKernel micro =
      tier == Tier::kGeneric ? micro_8x4_generic : micro_8x4_avx2;
  // Thread-local binding first (per-region TilePlan geometry), else the
  // process-wide geometry; must match what the pack cache keyed on.
  const PackGeometry g = detail::active_pack_geometry();

  // Per-call scratch only for operands without a pre-packed image.
  double* pb = nullptr;
  double* pa = nullptr;
  if (packed_a == nullptr || packed_b == nullptr) {
    TileScratch& scratch = active_scratch();
    if (packed_b == nullptr) pb = scratch.b_panel(b_call_doubles(n, g));
    if (packed_a == nullptr) pa = scratch.a_panel(a_call_doubles(m, g));
  }
  // Full-image layout constants (see pack_geometry.hpp): slice pc of an A
  // image starts a_rows * pc doubles in, of a B image b_cols * pc.
  const int a_rows = packed_a != nullptr ? a_slice_rows(packed_a->dim, g) : 0;
  const int b_cols = packed_b != nullptr ? round_up(packed_b->dim, kNR) : 0;

  for (int pc = 0; pc < k; pc += g.kc) {
    const int kc = std::min(g.kc, k - pc);
    const double* pbs;  // packed slice, offset to C's column 0
    int bstride;        // doubles per packed column micro-panel
    if (packed_b != nullptr) {
      bstride = std::min(g.kc, packed_b->k_total - pc);
      pbs = packed_b->data +
            static_cast<std::size_t>(b_cols) * static_cast<std::size_t>(pc) +
            static_cast<std::ptrdiff_t>(packed_b->col_offset) * bstride;
    } else {
      const double* bpc = layout == BLayout::kNT
                              ? b + static_cast<std::ptrdiff_t>(pc) * ldb
                              : b + pc;
      pack_b(kc, n, bpc, ldb, layout, pb);
      pbs = pb;
      bstride = kc;
    }
    for (int ic = 0; ic < m; ic += g.mc) {
      const int mc = std::min(g.mc, m - ic);
      const double* pas;  // packed block at row ic
      int astride;        // doubles per packed row micro-panel
      if (packed_a != nullptr) {
        astride = std::min(g.kc, packed_a->k_total - pc);
        pas = packed_a->data +
              static_cast<std::size_t>(a_rows) * static_cast<std::size_t>(pc) +
              static_cast<std::ptrdiff_t>(ic) * astride;
      } else {
        const double* apc = a + ic + static_cast<std::ptrdiff_t>(pc) * lda;
        pack_a(mc, kc, apc, lda, pa);
        pas = pa;
        astride = kc;
      }
      // The AVX-512 tier consumes two adjacent B micro-panels per
      // micro-kernel call (jw = 8 columns) whenever a second panel exists;
      // the trailing odd panel and SYRK micro-tiles whose right panel is
      // strictly above the diagonal drop to the 8x4 kernel, which keeps
      // the skip-before-flops property of the narrow loop.
      for (int jr = 0; jr < n;) {
        // Every remaining micro-tile of this A block would be strictly
        // above the diagonal: nothing left to store in this block row.
        if (lower_only && jr > ic + mc - 1) break;
        const bool paired = wide && n - jr > kNR;
        const int jw = paired ? 2 * kNR : kNR;
        const int nr = std::min(jw, n - jr);
        const double* pbj = pbs + static_cast<std::ptrdiff_t>(jr) * bstride;
        for (int ir = 0; ir < mc; ir += kMR) {
          const int mr = std::min(kMR, mc - ir);
          const int gi = ic + ir;  // global row of the micro-tile's top
          if (lower_only && gi + mr - 1 < jr) continue;  // strictly upper
          alignas(64) double acc[kMR * 2 * kNR];
          const double* pai = pas + static_cast<std::ptrdiff_t>(ir) * astride;
          int cols;  // accumulator columns holding live results
          if (paired && !(lower_only && gi + mr - 1 < jr + kNR)) {
            micro_8x8_avx512(kc, pai, pbj,
                             pbj + static_cast<std::ptrdiff_t>(kNR) * bstride,
                             acc);
            cols = nr;
          } else {
            // Narrow tile: odd trailing panel, non-AVX-512 tier, or the
            // right panel of the pair is strictly upper (nothing to
            // store there).
            micro(kc, pai, pbj, acc);
            cols = std::min(nr, kNR);
          }
          const bool full = mr == kMR && cols == jw &&
                            (!lower_only || gi >= jr + cols - 1);
          if (full) {
            for (int j = 0; j < cols; ++j) {
              double* cj = c + gi + static_cast<std::ptrdiff_t>(jr + j) * ldc;
              const double* accj = acc + j * kMR;
              for (int i = 0; i < kMR; ++i) cj[i] += alpha * accj[i];
            }
          } else {
            for (int j = 0; j < cols; ++j) {
              double* cj = c + gi + static_cast<std::ptrdiff_t>(jr + j) * ldc;
              const double* accj = acc + j * kMR;
              for (int i = 0; i < mr; ++i)
                if (!lower_only || gi + i >= jr + j) cj[i] += alpha * accj[i];
            }
          }
        }
        jr += jw;
      }
    }
  }
}

}  // namespace hetsched::kernels::detail
