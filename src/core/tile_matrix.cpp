#include "core/tile_matrix.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/kernels.hpp"

namespace hetsched {

TileMatrix::TileMatrix(int n_tiles, int nb) : n_tiles_(n_tiles), nb_(nb) {
  if (n_tiles <= 0 || nb <= 0)
    throw std::invalid_argument("TileMatrix: non-positive dimensions");
  if (!addressable(n_tiles, nb))
    throw std::length_error("TileMatrix: " + std::to_string(n_tiles) +
                            " tiles of nb=" + std::to_string(nb) +
                            " overflow the index arithmetic");
  const std::size_t per_tile =
      static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb);
  storage_.assign(static_cast<std::size_t>(num_lower_tiles(n_tiles)) * per_tile,
                  0.0);
}

bool TileMatrix::addressable(int n_tiles, int nb) noexcept {
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  if (n_tiles <= 0 || nb <= 0) return false;
  const auto t = static_cast<std::uint64_t>(n_tiles);
  const auto b = static_cast<std::uint64_t>(nb);
  // Every product below has factors < 2^32, so none wraps in 64 bits.
  const std::uint64_t tiles = t * (t + 1) / 2;
  if (t * b > kIntMax || tiles > kIntMax) return false;
  return b * b <= std::numeric_limits<std::size_t>::max() / sizeof(double) /
                      tiles;
}

double* TileMatrix::tile(int i, int j) {
  return tile(tile_linear_index(i, j));
}

const double* TileMatrix::tile(int i, int j) const {
  return tile(tile_linear_index(i, j));
}

double* TileMatrix::tile(int handle) {
  if (handle < 0 || handle >= num_lower_tiles(n_tiles_))
    throw std::out_of_range("TileMatrix::tile: bad handle");
  const std::size_t per_tile =
      static_cast<std::size_t>(nb_) * static_cast<std::size_t>(nb_);
  return storage_.data() + static_cast<std::size_t>(handle) * per_tile;
}

const double* TileMatrix::tile(int handle) const {
  return const_cast<TileMatrix*>(this)->tile(handle);
}

TileMatrix TileMatrix::from_dense(const DenseMatrix& a, int n_tiles, int nb) {
  if (a.rows() != n_tiles * nb || a.cols() != n_tiles * nb)
    throw std::invalid_argument("TileMatrix::from_dense: dimension mismatch");
  TileMatrix t(n_tiles, nb);
  for (int ti = 0; ti < n_tiles; ++ti)
    for (int tj = 0; tj <= ti; ++tj) {
      double* blk = t.tile(ti, tj);
      for (int j = 0; j < nb; ++j)
        for (int i = 0; i < nb; ++i)
          blk[i + static_cast<std::ptrdiff_t>(j) * nb] =
              a(ti * nb + i, tj * nb + j);
    }
  return t;
}

DenseMatrix TileMatrix::to_dense() const {
  DenseMatrix a(n_elems(), n_elems());
  for (int ti = 0; ti < n_tiles_; ++ti)
    for (int tj = 0; tj <= ti; ++tj) {
      const double* blk = tile(ti, tj);
      for (int j = 0; j < nb_; ++j)
        for (int i = 0; i < nb_; ++i) {
          // On the diagonal tile only the lower part is meaningful.
          if (ti == tj && i < j) continue;
          a(ti * nb_ + i, tj * nb_ + j) =
              blk[i + static_cast<std::ptrdiff_t>(j) * nb_];
        }
    }
  return a;
}

TileMatrix TileMatrix::random_spd(int n_tiles, int nb, unsigned seed) {
  return from_dense(DenseMatrix::random_spd(n_tiles * nb, seed), n_tiles, nb);
}

TileMatrix TileMatrix::synthetic_spd(int n_tiles, int nb, unsigned seed) {
  TileMatrix t(n_tiles, nb);
  t.refill_synthetic_spd(seed);
  return t;
}

void TileMatrix::refill_synthetic_spd(unsigned seed) {
  // splitmix64 per entry (kernels::splitmix_fill): deterministic, seekable,
  // no RNG object state, the same bits on every kernel tier.
  kernels::splitmix_fill(storage_.data(), storage_.size(),
                         static_cast<std::uint64_t>(seed) *
                                 0x9e3779b97f4a7c15ULL +
                             0xbf58476d1ce4e5b9ULL);
  // Every |entry| < 1, so row sums are < N and a diagonal of 2N keeps all
  // Schur complements strictly diagonally dominant.
  const double lift = 2.0 * static_cast<double>(n_tiles_ * nb_);
  for (int k = 0; k < n_tiles_; ++k) {
    double* diag = tile(k, k);
    for (int j = 0; j < nb_; ++j)
      diag[static_cast<std::size_t>(j) * (static_cast<std::size_t>(nb_) + 1)] =
          lift;
  }
}

}  // namespace hetsched
