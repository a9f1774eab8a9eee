// Double-precision tile kernels of the tiled Cholesky factorization.
//
// These are our own implementations of the BLAS/LAPACK subset the paper's
// Chameleon library calls (dpotrf / dtrsm RLTN / dsyrk LN / dgemm NT),
// operating on column-major tiles with a leading dimension. They back the
// real-execution runtime and the numerical tests; simulated performance
// comes from the calibrated platform model.
//
// The implementations live in src/kernels/: a packed, cache-blocked
// micro-kernel engine with runtime ISA dispatch (see docs/kernels.md and
// kernels/engine.hpp) carries the Cholesky kernels and the LU trailing
// update; the original naive loops are preserved as kernels::ref::*
// (kernels/ref.hpp) as correctness oracles and small-tile fallbacks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hetsched::kernels {

/// In-place lower Cholesky factorization of the nb x nb tile `a`.
/// Returns false if a non-positive pivot is met (matrix not SPD).
/// Blocked right-looking algorithm; only the lower triangle is touched.
bool potrf(int nb, double* a, int lda);

/// Like potrf(), but reports *which* pivot failed: returns 0 on success or
/// the 1-based index of the first non-positive (or non-finite) pivot
/// (LAPACK dpotrf `info` convention). The tile contents left of the
/// failing pivot are the partial factorization, as in LAPACK; nothing
/// downstream should consume them.
int potrf_info(int nb, double* a, int lda);

/// Triangular solve X * L^T = A (BLAS dtrsm, side=Right, uplo=Lower,
/// trans=Trans, diag=NonUnit): overwrites the nb x nb tile `a` with
/// A * L^{-T}, where `l` holds the lower-triangular POTRF result.
void trsm(int nb, const double* l, int ldl, double* a, int lda);

/// Symmetric rank-nb update C := C - A * A^T on the lower triangle of the
/// diagonal tile `c` (BLAS dsyrk, uplo=Lower, trans=NoTrans, alpha=-1,
/// beta=1).
void syrk(int nb, const double* a, int lda, double* c, int ldc);

/// General update C := C - A * B^T (BLAS dgemm, transa=NoTrans,
/// transb=Trans, alpha=-1, beta=1) on the nb x nb tile `c`.
void gemm(int nb, const double* a, int lda, const double* b, int ldb,
          double* c, int ldc);

// ---- LU (no pivoting) kernels ---------------------------------------------

/// In-place LU factorization without pivoting of the nb x nb tile `a`:
/// A = L U with L unit lower triangular (its unit diagonal not stored) and
/// U upper triangular. Returns false on a (near-)zero pivot.
bool getrf_nopiv(int nb, double* a, int lda);

/// Row-panel solve of the LU update: overwrites the nb x nb tile `a` with
/// L^{-1} A, where `lu` holds a GETRF result and only its unit-lower part
/// is referenced (BLAS dtrsm, side=Left, uplo=Lower, diag=Unit).
void trsm_llu(int nb, const double* lu, int ldlu, double* a, int lda);

/// Column-panel solve: overwrites `a` with A U^{-1}, where `lu` holds a
/// GETRF result and only its upper part is referenced (BLAS dtrsm,
/// side=Right, uplo=Upper, diag=NonUnit).
void trsm_run(int nb, const double* lu, int ldlu, double* a, int lda);

/// General update C := C - A * B (BLAS dgemm NoTrans/NoTrans, alpha=-1,
/// beta=1) -- the LU trailing update.
void gemm_nn(int nb, const double* a, int lda, const double* b, int ldb,
             double* c, int ldc);

// ---- Tile-QR kernels (flat tree, inner block ib = 1) ------------------------

/// Householder QR of the nb x nb tile `a`: on return the upper triangle
/// holds R, the strict lower triangle holds the reflector vectors V (their
/// unit heads implied), and `tau[0..nb)` the reflector coefficients.
void geqrt(int nb, double* a, int lda, double* tau);

/// Applies Q^T of a geqrt() factorization (V in `v`, coefficients in
/// `tau`) to the nb x nb tile `c`.
void ormqr(int nb, const double* v, int ldv, const double* tau, double* c,
           int ldc);

/// Triangle-on-top-of-square QR: factorizes the stacked [R; A] where `r`
/// is the nb x nb upper-triangular tile produced so far and `a` a full
/// nb x nb tile. On return `r` holds the updated R, `a` the dense bottom
/// parts of the reflectors, `tau[0..nb)` their coefficients.
void tsqrt(int nb, double* r, int ldr, double* a, int lda, double* tau);

/// Applies Q^T of a tsqrt() factorization (dense reflector bottoms in `v`)
/// to the stacked pair [c_top; c_bot] of nb x nb tiles.
void tsmqr(int nb, const double* v, int ldv, const double* tau,
           double* c_top, int ldt, double* c_bot, int ldb);

// ---- Input generation --------------------------------------------------------

/// Fills dst[0..n) with the splitmix64 stream that follows `state`: entry i
/// is the generator's output for state + (i + 1) * 0x9e3779b97f4a7c15,
/// mapped to [-1, 1) with 53 random bits. Bitwise identical on every tier;
/// the generator behind TileMatrix::synthetic_spd.
void splitmix_fill(double* dst, std::size_t n, std::uint64_t state);

}  // namespace hetsched::kernels
