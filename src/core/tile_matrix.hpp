// Tiled storage of a symmetric matrix: only the lower-triangle tiles are
// stored, each as a contiguous column-major nb x nb block. This is the data
// layout the tiled Cholesky tasks operate on (one tile = one data handle).
#pragma once

#include <cstddef>
#include <vector>

#include "core/dense_matrix.hpp"
#include "core/task_graph.hpp"

namespace hetsched {

/// Symmetric matrix stored as n x n lower-triangle tiles of size nb x nb.
class TileMatrix {
 public:
  /// Zero-filled storage. Throws std::invalid_argument for non-positive
  /// dimensions and std::length_error for a geometry that is not
  /// addressable() (std::bad_alloc if the host cannot back it).
  TileMatrix(int n_tiles, int nb);

  /// Whether the geometry's index arithmetic fits its types: the matrix
  /// dimension n_tiles * nb and the tile count num_lower_tiles(n_tiles)
  /// in int, the storage size in bytes in size_t. Says nothing about
  /// whether the host has that much memory.
  static bool addressable(int n_tiles, int nb) noexcept;

  int n_tiles() const noexcept { return n_tiles_; }
  int nb() const noexcept { return nb_; }
  /// Matrix dimension in elements.
  int n_elems() const noexcept { return n_tiles_ * nb_; }

  /// Pointer to tile (i, j), i >= j; tiles are column-major, lda = nb.
  double* tile(int i, int j);
  const double* tile(int i, int j) const;

  /// Pointer to tile by linear handle (see tile_linear_index).
  double* tile(int handle);
  const double* tile(int handle) const;

  /// Bytes of one tile (nb * nb * sizeof(double)); what a PCIe transfer moves.
  std::size_t tile_bytes() const noexcept {
    return static_cast<std::size_t>(nb_) * static_cast<std::size_t>(nb_) *
           sizeof(double);
  }

  /// Builds the tiled form of the lower triangle of a dense symmetric matrix
  /// (dimension must be n_tiles * nb).
  static TileMatrix from_dense(const DenseMatrix& a, int n_tiles, int nb);

  /// Expands back to a dense matrix; the strict upper triangle is zero.
  DenseMatrix to_dense() const;

  /// Deterministic random SPD tiled matrix (via DenseMatrix::random_spd).
  /// Exact Gram construction, O(N^3) in the matrix dimension: fine for
  /// correctness tests, prohibitive as benchmark input beyond N ~ 2000.
  static TileMatrix random_spd(int n_tiles, int nb, unsigned seed);

  /// Deterministic diagonally-dominant SPD tiled matrix, O(N^2): random
  /// off-diagonal entries in [-1, 1] with the diagonal lifted to 2N, so
  /// Cholesky always succeeds. The benchmark-input generator (exec CLI,
  /// bench_to_json --runtime, bench_pack_cache) for sizes where
  /// random_spd's Gram product would dominate the wall time.
  static TileMatrix synthetic_spd(int n_tiles, int nb, unsigned seed);

  /// Rewrites this matrix with the synthetic_spd content in place, without
  /// reallocating storage. Every stored double is overwritten, so whatever
  /// the buffers held before (a factor, a failed job's partial result,
  /// NaN) leaves no trace: the result is bitwise equal to a fresh
  /// synthetic_spd(n_tiles, nb, seed). Benchmarks re-factorizing the same
  /// buffers and the server's recycled job inputs (docs/serving.md) use
  /// this to keep tile addresses stable, the way a long-lived application
  /// reuses its matrix memory. The fill is one vector pass over the
  /// storage (kernels::splitmix_fill) plus the diagonal lift.
  void refill_synthetic_spd(unsigned seed);

 private:
  int n_tiles_;
  int nb_;
  std::vector<double> storage_;
};

}  // namespace hetsched
