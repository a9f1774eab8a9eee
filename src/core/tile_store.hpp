// Handle -> block table backing every numeric run.
//
// A TileStore maps each data handle of a task graph to one contiguous
// column-major nb x nb block (lda = nb), the addressing the packed
// kernels want: a subtile is a contiguous block, never a strided window
// into a larger tile. It has two modes:
//  - owning: built from a PlanLayout, it holds one buffer with a block
//    per plan handle. import_from/export_to convert between this layout
//    and the classic TileMatrix; SPLIT/MERGE repack tasks are executed
//    as rectangle-intersection copies between a cell's canonical storage
//    handles and its view handles;
//  - borrowing: it points at the tiles of one or more TileMatrix objects,
//    concatenated at num_lower_tiles(n_tiles) stride -- matrix b's tile
//    (i, j) is handle b * num_lower_tiles(n) + tile_linear_index(i, j),
//    the numbering build_cholesky_dag and serve::build_batch_plan emit.
//    Nothing is copied; the matrices must outlive the store.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"

namespace hetsched {

class TileStore {
 public:
  /// Owning: allocates zero-initialized blocks for every handle of
  /// `layout` (zeros make the never-written strict-upper regions of
  /// diagonal-cell views deterministic). Throws std::invalid_argument on
  /// an empty or inconsistent layout.
  explicit TileStore(const PlanLayout& layout);

  /// Borrowing: the tiles of `mats`, in order, factorized in place.
  explicit TileStore(std::span<TileMatrix* const> mats);
  explicit TileStore(TileMatrix& a)
      : TileStore(std::array<TileMatrix*, 1>{&a}) {}

  /// Handle directory of an owning store (empty when borrowing).
  const PlanLayout& layout() const noexcept { return layout_; }
  int num_handles() const noexcept { return static_cast<int>(block_.size()); }

  /// Contiguous column-major block of `handle`; lda = block_nb(handle).
  double* block(int handle) { return block_[static_cast<std::size_t>(handle)]; }
  int block_nb(int handle) const { return nb_[static_cast<std::size_t>(handle)]; }

  /// Copies every canonical handle's subrectangle out of / back into the
  /// classic tiled matrix. The canonical handles carry a cell's contents:
  /// the classic handle of an unsplit cell, the subtile handles of a split
  /// one (never its unused base handle or a repacked view). Owning stores
  /// only; `a` must match the layout's n_tiles/base_nb.
  void import_from(const TileMatrix& a);
  void export_to(TileMatrix& a) const;

 private:
  PlanLayout layout_;
  std::vector<double*> block_;
  std::vector<int> nb_;
  std::vector<char> canonical_;
  std::vector<double> data_;
};

/// Executes one task numerically on `s`. Compute kernels dispatch on
/// Task::accesses in the builders' canonical operand order (POTRF [RW d];
/// TRSM [R l, RW a]; SYRK [R a, RW c]; GEMM [R a, R b, RW c] -- classic
/// and plan graphs alike); SPLIT/MERGE copy the overlap of every (read
/// storage, written view) handle pair in the cell element frame. A
/// non-SPD POTRF pivot throws NumericError.
void execute_store_task(TileStore& s, const Task& t);

}  // namespace hetsched
