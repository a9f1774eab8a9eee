// Internal: the packed cache-blocked GEMM core of the optimized kernels.
//
// GotoBLAS-style three-level blocking. For C(m x n) += alpha * A * op(B):
//
//   for pc in steps of kc:                        (L3/L2: rank-kc slices)
//     pack op(B)(pc:pc+kc, :) into ~B  (kNR-wide column micro-panels)
//     for ic in steps of mc:                      (L2: A block)
//       pack A(ic:ic+mc, pc:pc+kc) into ~A (kMR-tall row micro-panels)
//       for jr in steps of kNR:                   (registers)
//         for ir in steps of kMR:
//           acc(kMR x kNR) = ~A panel * ~B panel   <- micro-kernel
//           C(ic+ir.., jr..) += alpha * acc        (masked at edges)
//
// Panels are zero-padded to kMR/kNR multiples so the micro-kernel never
// branches on the depth loop; edge handling happens once, at the accumulate
// into C. `lower_only` restricts the store to elements with row >= col of
// C's own index space (SYRK's lower triangle); micro-tiles entirely above
// the diagonal are skipped before any flops are spent.
//
// Either operand's packing can be skipped by passing a PackedView onto a
// pre-packed full image (normally pinned in the PackedTileCache, see
// pack_cache.hpp); panel offsets then follow the full-image layout of
// pack_geometry.hpp instead of the per-call scratch layout. The kc/mc
// geometry comes from pack_geometry() either way.
//
// This header is internal to src/kernels; the public surface is
// core/kernels.hpp (tile API) + kernels/engine.hpp (dispatch control).
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/pack_geometry.hpp"

namespace hetsched::kernels::detail {

/// How B's memory maps onto the op(B) the product consumes.
enum class BLayout {
  kNT,  ///< B stored n x k, product uses B^T  (dgemm NT / dsyrk)
  kNN,  ///< B stored k x n, product uses B    (dgemm NN)
};

/// A full packed image of an operand (layout per pack_geometry.hpp),
/// packed with the current geometry. The consuming call may contract a
/// depth k <= k_total -- panels are then read as prefixes -- and, for B,
/// start at column `col_offset` (a kNR multiple).
struct PackedView {
  const double* data = nullptr;
  int dim = 0;         ///< rows (A flavor) / columns (B flavor) packed
  int k_total = 0;     ///< depth the image was packed with
  int col_offset = 0;  ///< B only: first column consumed (kNR multiple)
};

/// C(m x n) += alpha * A(m x k) * op(B) with op per `layout`; `lower_only`
/// confines stores to C's lower triangle (row >= col). Operands without a
/// PackedView are packed through the calling thread's active TileScratch
/// (see scratch.hpp); `layout` must be kNT when `packed_b` is given (the
/// cache packs NT images only).
void gemm_packed(int m, int n, int k, double alpha, const double* a, int lda,
                 const double* b, int ldb, BLayout layout, double* c, int ldc,
                 bool lower_only, const PackedView* packed_a = nullptr,
                 const PackedView* packed_b = nullptr);

/// Packs A(mc x kc) (column-major, leading dimension lda) into kMR-tall
/// row micro-panels: panel ir starts at dst + ir*kc and stores column p of
/// its rows contiguously. Rows beyond mc are zero-padded.
void pack_a(int mc, int kc, const double* a, int lda, double* dst);

/// Packs op(B)(kc x n) into kNR-wide column micro-panels: panel jr starts
/// at dst + jr*kc and stores row p of its columns contiguously. For kNT
/// the element op(B)(p, j) lives at b[j + p*ldb]; for kNN at b[p + j*ldb].
/// Columns beyond n are zero-padded.
void pack_b(int kc, int n, const double* b, int ldb, BLayout layout,
            double* dst);

/// Portable micro-kernel: acc(kMR x kNR, column-major, 32-byte aligned) :=
/// sum_p pa[p*kMR + i] * pb[p*kNR + j]. Written to auto-vectorize at the
/// baseline ISA.
void micro_8x4_generic(int kc, const double* pa, const double* pb,
                       double* acc);

/// AVX2+FMA intrinsics variant (per-function target attribute); only
/// callable when avx2_supported(). Falls back to the generic kernel on
/// non-x86 builds.
void micro_8x4_avx2(int kc, const double* pa, const double* pb, double* acc);

/// AVX-512F paired-panel variant: acc(kMR x 2*kNR, column-major, 64-byte
/// aligned) := sum_p pa[p*kMR + i] * {pb0,pb1}[p*kNR + j], where pb0/pb1
/// are two adjacent kNR-wide packed B micro-panels. The packed-panel ABI
/// is unchanged from the 8x4 tiers -- only the macro loop pairs panels.
/// Only callable when avx512_supported(); composes two generic 8x4 calls
/// on non-x86 builds.
void micro_8x8_avx512(int kc, const double* pa, const double* pb0,
                      const double* pb1, double* acc);

// ---- In-block TRSM solve ----------------------------------------------------
//
// Register-blocked replacement of ref::trsm_rlt, one per tier; it is the
// base case of both the blocked TRSM and the POTRF panel
// (kernels_opt.cpp). Rows run in strips of several vector registers; each
// element is the reference's update chain over p = 0..j-1 in ascending
// order (zero multipliers skipped, as there), then one multiply by
// 1 / L(j,j). The vector tiers contract every update with FMA, so avx2 and
// avx512 agree bitwise whatever their strip heights; generic multiplies
// and subtracts like the reference.

/// Columns [j0, j1) of X * L^T = A for the m-row block `a` (L lower
/// triangular, at least j1 x j1); columns [0, j0) of `a` must already
/// hold X. Overwrites the solved columns with X.
void trsm_rlt_generic(int m, int j0, int j1, const double* l, int ldl,
                      double* a, int lda);
void trsm_rlt_avx2(int m, int j0, int j1, const double* l, int ldl,
                   double* a, int lda);
void trsm_rlt_avx512(int m, int j0, int j1, const double* l, int ldl,
                     double* a, int lda);

// ---- Synthetic input fill ---------------------------------------------------
//
// dst[i] := the splitmix64 output for state + (i + 1) * 0x9e3779b97f4a7c15,
// mapped to [-1, 1) as (z >> 11) * 2^-52 - 1. Entry i depends on i alone,
// so vector lanes are independent, and every step is integer arithmetic or
// exact in double, so every tier writes the same bits. The generic tier is
// the scalar loop the stream was defined by; AVX2 has no 64-bit multiply
// and uses it too.

void splitmix_fill_generic(double* dst, std::size_t n, std::uint64_t state);
void splitmix_fill_avx512(double* dst, std::size_t n, std::uint64_t state);

/// True when the running CPU reports AVX2 and FMA.
bool avx2_supported();

/// True when the running CPU reports AVX-512F.
bool avx512_supported();

}  // namespace hetsched::kernels::detail
