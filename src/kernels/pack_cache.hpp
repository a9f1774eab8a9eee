// Process-wide cache of packed tile panels.
//
// In the tiled Cholesky DAG one TRSM-output tile A(i,k) is consumed by
// O(n_tiles) downstream GEMM/SYRK tasks, and the packed engine used to
// re-pack it inside every call -- pure memory-bandwidth waste on the hot
// path. The PackedTileCache packs a tile once per (flavor, version) and
// hands read-only panels to every consumer:
//
//   * keyed by (tile pointer, version epoch, pack flavor A|B, tile shape,
//     kc/mc geometry generation);
//   * sharded, with a lock-free hit path (atomic key words + a ref-count
//     pin); only fills and evictions take the shard mutex;
//   * bounded (capacity in bytes) with ref-count-aware clock eviction:
//     pinned panels are never evicted, recently-used ones get a second
//     chance;
//   * invalidated by *epoch bumps*, not sweeps: the compute backend bumps
//     a tile's epoch after every kernel that writes it, so stale panels
//     simply stop matching and age out under capacity pressure.
//
// Kernel calls consult the cache only on threads holding a
// PackCacheBinding (the compute backend binds one around each task
// attempt); everything else -- tests, sequential drivers, callers with
// exotic leading dimensions -- takes the per-call scratch packing path
// unchanged. Full-tile packed images use the layout documented in
// pack_geometry.hpp, so a consumer contracting only the first k <= k_total
// depth entries (TRSM's left-of-block GEMM) reads a prefix of each panel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hetsched::kernels {

enum class PackFlavor : int {
  kA,  ///< kMR-tall row micro-panels: the tile as a left GEMM operand
  kB,  ///< kNR-wide column micro-panels of the transposed tile (NT right
       ///< operand: GEMM's B, SYRK's A^T, TRSM's L row slices)
};

/// Cumulative counters (monotone since construction).
struct PackCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< lookups that fell back or filled
  std::uint64_t evictions = 0;   ///< panels dropped (pressure or sweep)
  std::uint64_t bytes_packed = 0;  ///< bytes written by cache fills
};

class PackedTileCache {
 public:
  struct Config {
    std::size_t capacity_bytes = kDefaultCapacityBytes;
    int shards = 8;             ///< rounded up to a power of two
    int slots_per_shard = 512;  ///< rounded up to a power of two
  };
  static constexpr std::size_t kDefaultCapacityBytes = 256ull << 20;

  PackedTileCache();  // default Config
  explicit PackedTileCache(const Config& cfg);
  ~PackedTileCache();
  PackedTileCache(const PackedTileCache&) = delete;
  PackedTileCache& operator=(const PackedTileCache&) = delete;

  /// Pin on a cached panel: the payload cannot be evicted or overwritten
  /// while a Handle refers to it. Release promptly (kernel-call scope).
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept : slot_(o.slot_), data_(o.data_) {
      o.slot_ = nullptr;
      o.data_ = nullptr;
    }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        slot_ = o.slot_;
        data_ = o.data_;
        o.slot_ = nullptr;
        o.data_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    const double* data() const noexcept { return data_; }
    explicit operator bool() const noexcept { return data_ != nullptr; }
    void release() noexcept;

   private:
    friend class PackedTileCache;
    void* slot_ = nullptr;  // Slot*, private to the implementation
    const double* data_ = nullptr;
  };

  /// Pins the packed image of `tile` (dim x dim column-major with
  /// lda == dim; `k` is the contraction depth it was packed for, dim for
  /// full tiles) in the given flavor, packing it on a miss. Returns false
  /// -- and leaves `out` empty -- when the panel cannot be cached (shape
  /// out of range, capacity exceeded, every candidate slot pinned): the
  /// caller then packs per-call through its scratch. The returned panels
  /// reflect the tile's epoch at call time.
  bool acquire(const double* tile, int dim, int k, PackFlavor flavor,
               Handle* out);

  /// Marks every cached panel of `tile` stale. Called by the compute
  /// backend after each kernel that writes a tile. Epochs live in a fixed
  /// hash table of counters: colliding tiles share one (spurious misses,
  /// never stale hits).
  void bump_epoch(const double* tile) noexcept;
  std::uint64_t tile_epoch(const double* tile) const noexcept;

  /// Byte budget, fixed at construction. Split evenly across shards (a
  /// panel larger than one shard's share is never cached).
  std::size_t capacity_bytes() const noexcept;

  /// Drops every unpinned panel (pinned ones survive until released and
  /// age out). Used on geometry switches and by tests.
  void invalidate_all();

  PackCacheStats stats() const noexcept;
  std::size_t resident_bytes() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide instance the compute backend binds when a run has
/// RunOptions::pack_cache set; default Config, intentionally never
/// destroyed (worker threads may release pins during static teardown).
PackedTileCache& process_pack_cache();

/// RAII: makes `cache` the one kernel calls on this thread consult
/// (nullptr = bypass). Nesting restores the previous binding.
class PackCacheBinding {
 public:
  explicit PackCacheBinding(PackedTileCache* cache) noexcept;
  ~PackCacheBinding();
  PackCacheBinding(const PackCacheBinding&) = delete;
  PackCacheBinding& operator=(const PackCacheBinding&) = delete;

 private:
  PackedTileCache* prev_;
};

namespace detail {
/// The cache kernel calls on this thread consult, or nullptr.
PackedTileCache* active_pack_cache() noexcept;
}  // namespace detail

}  // namespace hetsched::kernels
