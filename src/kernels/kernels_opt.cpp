// Optimized implementations of the public tile-kernel API
// (core/kernels.hpp): GEMM/SYRK run through the packed micro-kernel engine
// (gemm_packed.hpp), TRSM and POTRF are blocked so most of their cycles are
// spent inside the same engine and the rest in register-blocked base-case
// solves, and small GEMM/SYRK tiles -- where packing cannot amortize --
// take the reference axpy loops unchanged. The LU panel
// solves and the QR kernels delegate to the reference implementations (they
// are a small fraction of their factorizations' flops; the LU trailing
// update gemm_nn is packed). The synthetic-input fill dispatches here too.
#include "core/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "kernels/engine.hpp"
#include "kernels/gemm_packed.hpp"
#include "kernels/pack_cache.hpp"
#include "kernels/ref.hpp"

namespace hetsched::kernels {
namespace {

using detail::BLayout;
using detail::PackedView;

// Below this many multiply-adds the packing traffic dominates; the
// reference loops are faster (and bit-identical to the seed).
constexpr std::int64_t kPackedWorkFloor = 32 * 32 * 32;

// Column blocking of the right-lower-transpose TRSM: the in-block solve
// runs in the tier's base case, everything left of the block is one packed
// GEMM, so the non-GEMM fraction is ~kTrsmBlock/n of the flops.
constexpr int kTrsmBlock = 32;

// POTRF panel width: diagonal kPanel x kPanel factorizations run in the
// tier's unblocked base case, panel solves and trailing updates through
// the engine.
constexpr int kPotrfPanel = 64;

inline std::int64_t work(int m, int n, int k) {
  return static_cast<std::int64_t>(m) * n * k;
}

// The tier's in-block TRSM solve (gemm_packed.hpp).
using SolveFn = void (*)(int m, int j0, int j1, const double* l, int ldl,
                         double* a, int lda);

SolveFn solve_for(Tier t) {
  switch (t) {
    case Tier::kAvx512:
      return detail::trsm_rlt_avx512;
    case Tier::kAvx2:
      return detail::trsm_rlt_avx2;
    case Tier::kGeneric:
      break;
  }
  return detail::trsm_rlt_generic;
}

// The base cases dispatch like gemm_packed: one tier snapshot per call.
void trsm_base(int m, int n, const double* l, int ldl, double* a, int lda) {
  solve_for(engine_tier())(m, 0, n, l, ldl, a, lda);
}

// Left-looking unblocked Cholesky of the n x n block, two columns per
// step. The pivots and the coupling entry L(j+1, j) are scalar chains in
// ref::potrf_unblocked's per-element order; the rows below the pair are
// columns [j, j+2) of the tier's in-block solve against the block's own
// finished columns. Nothing above the diagonal is written, and on a
// failing pivot every column left of it is final. Returns 0 or the
// 1-based index of the first pivot that is not positive and finite.
int potrf_base(int n, double* a, int lda) {
  const SolveFn solve = solve_for(engine_tier());
  const auto at = [&](int i, int j) -> double& {
    return a[i + static_cast<std::ptrdiff_t>(j) * lda];
  };
  const auto bad = [](double d) { return d <= 0.0 || !std::isfinite(d); };
  for (int j = 0; j < n; j += 2) {
    const bool pair = j + 1 < n;
    double d0 = at(j, j);
    double e = pair ? at(j + 1, j) : 0.0;
    double d1 = pair ? at(j + 1, j + 1) : 0.0;
    for (int p = 0; p < j; ++p) {
      const double w0 = at(j, p), w1 = pair ? at(j + 1, p) : 0.0;
      if (w0 != 0.0) {
        d0 -= w0 * w0;
        e -= w1 * w0;
      }
      if (w1 != 0.0) d1 -= w1 * w1;
    }
    if (bad(d0)) return j + 1;
    at(j, j) = std::sqrt(d0);
    if (!pair) break;
    e *= 1.0 / at(j, j);
    at(j + 1, j) = e;
    if (e != 0.0) d1 -= e * e;
    if (bad(d1)) {
      solve(n - j - 2, j, j + 1, a, lda, a + j + 2, lda);
      return j + 2;
    }
    at(j + 1, j + 1) = std::sqrt(d1);
    solve(n - j - 2, j, j + 2, a, lda, a + j + 2, lda);
  }
  return 0;
}

// Pins the cached full-image pack of an nb x nb tile in one flavor when
// this thread is bound to a PackedTileCache and the tile is contiguous
// (lda == nb). Returns nullptr -- and gemm_packed packs per-call through
// scratch -- on a bypass, an uncacheable shape or a failed acquire.
struct CachedOperand {
  PackedTileCache::Handle handle;
  PackedView view;

  const PackedView* pin(PackedTileCache* cache, const double* tile, int nb,
                        int lda, PackFlavor flavor) {
    if (cache == nullptr || lda != nb) return nullptr;
    if (!cache->acquire(tile, nb, nb, flavor, &handle)) return nullptr;
    view = {handle.data(), nb, nb, 0};
    return &view;
  }
};

// The cache this thread's call should consult: only bound threads (the
// compute backend's workers) and only above the packing floor, so
// sub-floor tiles keep the reference path untouched.
inline PackedTileCache* cache_for(std::int64_t flops) {
  return flops >= kPackedWorkFloor ? detail::active_pack_cache() : nullptr;
}

// X * L^T = A on an m x n block, blocked for the packed engine. `vl` is an
// optional cached B-flavor image of the full n x n L tile; block j then
// consumes columns j.. at depth j as a panel prefix (kTrsmBlock is a kNR
// multiple, so column groups stay aligned).
void trsm_rlt_blocked(int m, int n, const double* l, int ldl, double* a,
                      int lda, const PackedView* vl = nullptr) {
  static_assert(kTrsmBlock % detail::kNR == 0,
                "cached TRSM column offsets must stay panel-aligned");
  if (n <= kTrsmBlock || work(m, n, n) < kPackedWorkFloor) {
    trsm_base(m, n, l, ldl, a, lda);
    return;
  }
  for (int j = 0; j < n; j += kTrsmBlock) {
    const int jb = std::min(kTrsmBlock, n - j);
    double* aj = a + static_cast<std::ptrdiff_t>(j) * lda;
    if (j > 0) {
      // A(:, j:j+jb) -= A(:, 0:j) * L(j:j+jb, 0:j)^T  -- row slice of L
      // consumed as an NT-layout B.
      PackedView vj;
      const PackedView* vb = nullptr;
      if (vl != nullptr) {
        vj = *vl;
        vj.col_offset = j;
        vb = &vj;
      }
      detail::gemm_packed(m, jb, j, -1.0, a, lda, l + j, ldl, BLayout::kNT,
                          aj, lda, /*lower_only=*/false, nullptr, vb);
    }
    trsm_base(m, jb, l + j + static_cast<std::ptrdiff_t>(j) * ldl, ldl, aj,
              lda);
  }
}

// C(n x n lower) += alpha * A(n x k) * A^T through the engine.
void syrk_ln_blocked(int n, int k, double alpha, const double* a, int lda,
                     double* c, int ldc, const PackedView* va = nullptr,
                     const PackedView* vb = nullptr) {
  if (work(n, n, k) < kPackedWorkFloor) {
    ref::syrk_ln(n, k, alpha, a, lda, c, ldc);
    return;
  }
  detail::gemm_packed(n, n, k, alpha, a, lda, a, lda, BLayout::kNT, c, ldc,
                      /*lower_only=*/true, va, vb);
}

}  // namespace

bool potrf(int nb, double* a, int lda) { return potrf_info(nb, a, lda) == 0; }

int potrf_info(int nb, double* a, int lda) {
  if (nb <= kPotrfPanel) return potrf_base(nb, a, lda);
  for (int k = 0; k < nb; k += kPotrfPanel) {
    const int kb = std::min(kPotrfPanel, nb - k);
    double* akk = a + k + static_cast<std::ptrdiff_t>(k) * lda;
    if (const int info = potrf_base(kb, akk, lda); info != 0)
      return k + info;
    const int m = nb - k - kb;  // rows below the diagonal block
    if (m > 0) {
      double* apanel = a + (k + kb) + static_cast<std::ptrdiff_t>(k) * lda;
      trsm_rlt_blocked(m, kb, akk, lda, apanel, lda);
      double* atrail =
          a + (k + kb) + static_cast<std::ptrdiff_t>(k + kb) * lda;
      syrk_ln_blocked(m, kb, -1.0, apanel, lda, atrail, lda);
    }
  }
  return 0;
}

void trsm(int nb, const double* l, int ldl, double* a, int lda) {
  // The diagonal L tile is read by every TRSM of its panel: one cached
  // B-flavor image serves all of them (and its own column blocks).
  PackedTileCache* cache = nb > kTrsmBlock ? cache_for(work(nb, nb, nb))
                                           : nullptr;
  CachedOperand cl;
  trsm_rlt_blocked(nb, nb, l, ldl, a, lda,
                   cl.pin(cache, l, nb, ldl, PackFlavor::kB));
}

void syrk(int nb, const double* a, int lda, double* c, int ldc) {
  // SYRK contracts the tile with itself: both flavors of one image.
  PackedTileCache* cache = cache_for(work(nb, nb, nb));
  CachedOperand ca;
  CachedOperand cb;
  syrk_ln_blocked(nb, nb, -1.0, a, lda, c, ldc,
                  ca.pin(cache, a, nb, lda, PackFlavor::kA),
                  cb.pin(cache, a, nb, lda, PackFlavor::kB));
}

void gemm(int nb, const double* a, int lda, const double* b, int ldb,
          double* c, int ldc) {
  if (work(nb, nb, nb) < kPackedWorkFloor) {
    ref::gemm(nb, a, lda, b, ldb, c, ldc);
    return;
  }
  PackedTileCache* cache = cache_for(work(nb, nb, nb));
  CachedOperand ca;
  CachedOperand cb;
  detail::gemm_packed(nb, nb, nb, -1.0, a, lda, b, ldb, BLayout::kNT, c, ldc,
                      /*lower_only=*/false,
                      ca.pin(cache, a, nb, lda, PackFlavor::kA),
                      cb.pin(cache, b, nb, ldb, PackFlavor::kB));
}

// ---- LU kernels ------------------------------------------------------------

bool getrf_nopiv(int nb, double* a, int lda) {
  return ref::getrf_nopiv(nb, a, lda);
}

void trsm_llu(int nb, const double* lu, int ldlu, double* a, int lda) {
  ref::trsm_llu(nb, lu, ldlu, a, lda);
}

void trsm_run(int nb, const double* lu, int ldlu, double* a, int lda) {
  ref::trsm_run(nb, lu, ldlu, a, lda);
}

void gemm_nn(int nb, const double* a, int lda, const double* b, int ldb,
             double* c, int ldc) {
  if (work(nb, nb, nb) < kPackedWorkFloor) {
    ref::gemm_nn(nb, a, lda, b, ldb, c, ldc);
    return;
  }
  detail::gemm_packed(nb, nb, nb, -1.0, a, lda, b, ldb, BLayout::kNN, c, ldc,
                      /*lower_only=*/false);
}

// ---- Tile-QR kernels --------------------------------------------------------

void geqrt(int nb, double* a, int lda, double* tau) {
  ref::geqrt(nb, a, lda, tau);
}

void ormqr(int nb, const double* v, int ldv, const double* tau, double* c,
           int ldc) {
  ref::ormqr(nb, v, ldv, tau, c, ldc);
}

void tsqrt(int nb, double* r, int ldr, double* a, int lda, double* tau) {
  ref::tsqrt(nb, r, ldr, a, lda, tau);
}

void tsmqr(int nb, const double* v, int ldv, const double* tau,
           double* c_top, int ldt, double* c_bot, int ldb) {
  ref::tsmqr(nb, v, ldv, tau, c_top, ldt, c_bot, ldb);
}

// ---- Input generation --------------------------------------------------------

void splitmix_fill(double* dst, std::size_t n, std::uint64_t state) {
  if (engine_tier() == Tier::kAvx512)
    detail::splitmix_fill_avx512(dst, n, state);
  else
    detail::splitmix_fill_generic(dst, n, state);
}

}  // namespace hetsched::kernels
