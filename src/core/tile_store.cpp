#include "core/tile_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/kernels.hpp"
#include "core/numeric_error.hpp"

namespace hetsched {

TileStore::TileStore(const PlanLayout& layout) : layout_(layout) {
  const std::size_t nh = layout_.handles.size();
  if (layout_.n_tiles <= 0 || layout_.base_nb <= 0 ||
      nh < static_cast<std::size_t>(num_lower_tiles(layout_.n_tiles)))
    throw std::invalid_argument("TileStore: empty or inconsistent layout");
  nb_.resize(nh);
  canonical_.assign(nh, 0);
  // A cell's canonical granularity is the smallest non-view block side
  // registered for it: an unsplit cell has only its classic base handle,
  // a split cell has the (unused) base handle plus its finer subtiles.
  std::vector<int> cell_nb(static_cast<std::size_t>(
                               num_lower_tiles(layout_.n_tiles)),
                           layout_.base_nb);
  for (const PlanHandle& h : layout_.handles)
    if (!h.view) {
      int& nb = cell_nb[static_cast<std::size_t>(
          tile_linear_index(h.cell_i, h.cell_j))];
      nb = std::min(nb, h.nb);
    }
  std::size_t total = 0;
  for (std::size_t i = 0; i < nh; ++i) {
    const PlanHandle& h = layout_.handles[i];
    if (h.nb <= 0 || h.row0 < 0 || h.col0 < 0 ||
        h.row0 + h.nb > layout_.base_nb || h.col0 + h.nb > layout_.base_nb)
      throw std::invalid_argument("TileStore: handle " + std::to_string(i) +
                                  " outside its cell");
    nb_[i] = h.nb;
    total += static_cast<std::size_t>(h.nb) * static_cast<std::size_t>(h.nb);
    canonical_[i] =
        !h.view && h.nb == cell_nb[static_cast<std::size_t>(tile_linear_index(
                       h.cell_i, h.cell_j))];
  }
  data_.assign(total, 0.0);
  double* next = data_.data();
  for (const int nb : nb_) {
    block_.push_back(next);
    next += static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb);
  }
}

TileStore::TileStore(std::span<TileMatrix* const> mats) {
  for (TileMatrix* m : mats)
    for (int h = 0; h < num_lower_tiles(m->n_tiles()); ++h) {
      block_.push_back(m->tile(h));
      nb_.push_back(m->nb());
    }
}

void TileStore::import_from(const TileMatrix& a) {
  if (a.n_tiles() != layout_.n_tiles || a.nb() != layout_.base_nb)
    throw std::invalid_argument("TileStore::import_from: shape mismatch");
  const auto base = static_cast<std::size_t>(layout_.base_nb);
  for (std::size_t i = 0; i < layout_.handles.size(); ++i) {
    if (!canonical_[i]) continue;
    const PlanHandle& h = layout_.handles[i];
    const auto nb = static_cast<std::size_t>(h.nb);
    const double* src = a.tile(h.cell_i, h.cell_j) +
                        static_cast<std::size_t>(h.col0) * base +
                        static_cast<std::size_t>(h.row0);
    for (std::size_t c = 0; c < nb; ++c)
      std::memcpy(block_[i] + c * nb, src + c * base, nb * sizeof(double));
  }
}

void TileStore::export_to(TileMatrix& a) const {
  if (a.n_tiles() != layout_.n_tiles || a.nb() != layout_.base_nb)
    throw std::invalid_argument("TileStore::export_to: shape mismatch");
  const auto base = static_cast<std::size_t>(layout_.base_nb);
  for (std::size_t i = 0; i < layout_.handles.size(); ++i) {
    if (!canonical_[i]) continue;
    const PlanHandle& h = layout_.handles[i];
    const auto nb = static_cast<std::size_t>(h.nb);
    double* dst = a.tile(h.cell_i, h.cell_j) +
                  static_cast<std::size_t>(h.col0) * base +
                  static_cast<std::size_t>(h.row0);
    for (std::size_t c = 0; c < nb; ++c)
      std::memcpy(dst + c * base, block_[i] + c * nb, nb * sizeof(double));
  }
}

namespace {

// SPLIT/MERGE: every written view handle receives the overlap of every
// read storage handle, intersected in the cell's element frame. Views of
// a diagonal cell cover only its lower block-triangle on both sides, so
// the union of sources covers every element a consumer may read (the
// strict upper triangle of diagonal view blocks stays at its initial
// zeros, which no triangular kernel references).
void run_repack(TileStore& s, const Task& t) {
  const PlanLayout& lay = s.layout();
  for (const TaskAccess& w : t.accesses) {
    if (w.mode == AccessMode::Read) continue;
    const PlanHandle& wh = lay.handles[static_cast<std::size_t>(w.tile)];
    double* dst = s.block(w.tile);
    for (const TaskAccess& r : t.accesses) {
      if (r.mode != AccessMode::Read) continue;
      const PlanHandle& rh = lay.handles[static_cast<std::size_t>(r.tile)];
      const int row0 = std::max(wh.row0, rh.row0);
      const int row1 = std::min(wh.row0 + wh.nb, rh.row0 + rh.nb);
      const int col0 = std::max(wh.col0, rh.col0);
      const int col1 = std::min(wh.col0 + wh.nb, rh.col0 + rh.nb);
      if (row0 >= row1 || col0 >= col1) continue;
      const double* src = s.block(r.tile);
      for (int c = col0; c < col1; ++c)
        std::memcpy(dst + (c - wh.col0) * wh.nb + (row0 - wh.row0),
                    src + (c - rh.col0) * rh.nb + (row0 - rh.row0),
                    static_cast<std::size_t>(row1 - row0) * sizeof(double));
    }
  }
}

}  // namespace

void execute_store_task(TileStore& s, const Task& t) {
  const auto blk = [&](std::size_t operand) {
    return s.block(t.accesses[operand].tile);
  };
  const auto nb_of = [&](std::size_t operand) {
    return s.block_nb(t.accesses[operand].tile);
  };
  switch (t.kernel) {
    case Kernel::POTRF: {
      const int info = kernels::potrf_info(nb_of(0), blk(0), nb_of(0));
      if (info != 0) throw NumericError(Kernel::POTRF, t.k, t.k, info);
      return;
    }
    case Kernel::TRSM:
      kernels::trsm(nb_of(1), blk(0), nb_of(0), blk(1), nb_of(1));
      return;
    case Kernel::SYRK:
      kernels::syrk(nb_of(1), blk(0), nb_of(0), blk(1), nb_of(1));
      return;
    case Kernel::GEMM:
      kernels::gemm(nb_of(2), blk(0), nb_of(0), blk(1), nb_of(1), blk(2),
                    nb_of(2));
      return;
    case Kernel::SPLIT:
    case Kernel::MERGE:
      run_repack(s, t);
      return;
    default:
      throw std::logic_error("execute_store_task: non-Cholesky kernel " +
                             std::string(to_string(t.kernel)));
  }
}

}  // namespace hetsched
