#include "kernels/pack_cache.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "kernels/gemm_packed.hpp"
#include "kernels/pack_geometry.hpp"

namespace hetsched::kernels {
namespace {

thread_local PackedTileCache* t_cache = nullptr;

// Slot protocol. refs encodes three states:
//   kRefsEmpty      no readable entry (empty, or tombstoned mid-eviction);
//   0               live entry, unpinned (evictable);
//   n > 0           live entry pinned by n handles.
// Readers pin with fetch_add and back off on a negative previous value;
// writers (fill/evict, under the shard mutex) gain exclusivity by CAS-ing
// 0 -> kRefsEmpty, clearing key_ptr, then waiting for transient pins to
// back off. kRefsEmpty sits far below zero so backing-off readers can
// never increment it up to a plausible pin count.
constexpr int kRefsEmpty = INT_MIN / 2;

constexpr int kProbe = 8;              // slots inspected per lookup
constexpr std::size_t kEpochSlots = 4096;  // power of two
constexpr int kMaxDim = 0xfff;         // 12 key bits each for dim and k

// splitmix64 finalizer.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// epoch(32) | dim(12) | k(12) | flavor(1) | geometry id(7). The id keys
// the exact (kc, mc) pair the panel was packed under, so threads bound to
// different per-region geometries (PackGeometryBinding) can never consume
// each other's incompatible pack layouts.
std::uint64_t make_meta(std::uint64_t epoch, int dim, int k,
                        PackFlavor flavor, int geometry_id) noexcept {
  return (epoch << 32) | (static_cast<std::uint64_t>(dim) << 20) |
         (static_cast<std::uint64_t>(k) << 8) |
         (flavor == PackFlavor::kB ? 0x80u : 0u) |
         (static_cast<std::uint64_t>(geometry_id) & 0x7fu);
}

std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

double* alloc_panels(std::size_t bytes) noexcept {
  return static_cast<double*>(std::aligned_alloc(64, bytes));
}

struct alignas(64) Slot {
  std::atomic<std::uintptr_t> key_ptr{0};
  std::atomic<std::uint64_t> key_meta{0};
  std::atomic<int> refs{kRefsEmpty};
  std::atomic<unsigned> used{0};  // clock second-chance bit
  // Payload: exclusive to the shard-mutex holder while refs == kRefsEmpty
  // and key_ptr == 0; read-only to pinned readers otherwise. bytes is
  // touched only under the shard mutex.
  double* data = nullptr;
  std::size_t bytes = 0;
};

struct alignas(64) Shard {
  std::mutex mu;  // fills and evictions only; lookups are lock-free
  std::unique_ptr<Slot[]> slots;
  std::size_t nslots = 0;
  std::size_t hand = 0;      // clock hand, under mu
  std::size_t resident = 0;  // payload bytes held, under mu
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> bytes_packed{0};
};

}  // namespace

struct PackedTileCache::Impl {
  std::unique_ptr<Shard[]> shards;
  std::size_t nshards = 0;  // power of two
  std::size_t capacity = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> epochs;
};

PackedTileCache::PackedTileCache() : PackedTileCache(Config{}) {}

PackedTileCache::PackedTileCache(const Config& cfg) : impl_(new Impl) {
  impl_->nshards = round_up_pow2(
      static_cast<std::size_t>(cfg.shards > 0 ? cfg.shards : 1));
  impl_->shards = std::make_unique<Shard[]>(impl_->nshards);
  const std::size_t nslots = round_up_pow2(static_cast<std::size_t>(
      cfg.slots_per_shard > kProbe ? cfg.slots_per_shard : kProbe));
  for (std::size_t s = 0; s < impl_->nshards; ++s) {
    impl_->shards[s].slots = std::make_unique<Slot[]>(nslots);
    impl_->shards[s].nslots = nslots;
  }
  impl_->capacity = cfg.capacity_bytes;
  impl_->epochs = std::make_unique<std::atomic<std::uint64_t>[]>(kEpochSlots);
  for (std::size_t i = 0; i < kEpochSlots; ++i)
    impl_->epochs[i].store(0, std::memory_order_relaxed);
}

PackedTileCache::~PackedTileCache() {
  for (std::size_t s = 0; s < impl_->nshards; ++s) {
    Shard& sh = impl_->shards[s];
    for (std::size_t i = 0; i < sh.nslots; ++i) std::free(sh.slots[i].data);
  }
  delete impl_;
}

void PackedTileCache::Handle::release() noexcept {
  if (slot_ != nullptr) {
    static_cast<Slot*>(slot_)->refs.fetch_sub(1, std::memory_order_release);
    slot_ = nullptr;
    data_ = nullptr;
  }
}

void PackedTileCache::bump_epoch(const double* tile) noexcept {
  const auto h = mix(reinterpret_cast<std::uintptr_t>(tile));
  impl_->epochs[h & (kEpochSlots - 1)].fetch_add(1, std::memory_order_release);
}

std::uint64_t PackedTileCache::tile_epoch(const double* tile) const noexcept {
  const auto h = mix(reinterpret_cast<std::uintptr_t>(tile));
  return impl_->epochs[h & (kEpochSlots - 1)].load(std::memory_order_acquire);
}

std::size_t PackedTileCache::capacity_bytes() const noexcept {
  return impl_->capacity;
}

namespace {

// Attempts to pin the live entry (ptr, meta) in `s`. The post-increment
// key re-check closes the race with an eviction that cleared the key
// between our key load and the pin; a refill with the same key is by
// construction the same panel content, so it validates too.
bool try_pin(Slot& s, std::uintptr_t ptr, std::uint64_t meta,
             void** slot_out, const double** data_out) {
  const int prev = s.refs.fetch_add(1, std::memory_order_acq_rel);
  if (prev < 0) {
    s.refs.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  if (s.key_ptr.load(std::memory_order_acquire) != ptr ||
      s.key_meta.load(std::memory_order_relaxed) != meta) {
    s.refs.fetch_sub(1, std::memory_order_release);
    return false;
  }
  s.used.store(1, std::memory_order_relaxed);
  *slot_out = &s;
  *data_out = s.data;
  return true;
}

// Makes `s` unreachable and waits out transient pins; requires the shard
// mutex and s.refs == 0 observed (live, unpinned) or kRefsEmpty (empty).
// Returns false when a reader pinned the entry first. On success the
// caller owns s.data exclusively. A resident payload of exactly
// `keep_bytes` is retained in the slot for the caller to overwrite --
// refilling a bumped tile then skips a multi-MiB free/alloc round trip
// (and the page faults of re-touching a fresh mmap) per repack.
// `count_eviction` is false on the same-key refill path: replacing a
// stale version of the very tile being repacked is not capacity pressure
// and must not inflate the evictions counter.
bool tombstone(Shard& sh, Slot& s, std::size_t keep_bytes = 0,
               bool count_eviction = true) {
  if (s.key_ptr.load(std::memory_order_relaxed) != 0) {
    int zero = 0;
    if (!s.refs.compare_exchange_strong(zero, kRefsEmpty,
                                        std::memory_order_acq_rel))
      return false;
    s.key_ptr.store(0, std::memory_order_release);
  }
  // Readers that matched the old key before it was cleared may still hold
  // a transient increment; they back off without touching the payload.
  while (s.refs.load(std::memory_order_acquire) != kRefsEmpty)
    std::this_thread::yield();
  if (s.bytes != 0) {
    if (count_eviction) sh.evictions.fetch_add(1, std::memory_order_relaxed);
    if (s.bytes != keep_bytes) {
      sh.resident -= s.bytes;
      std::free(s.data);
      s.data = nullptr;
      s.bytes = 0;
    }
  }
  s.key_meta.store(0, std::memory_order_relaxed);
  s.used.store(0, std::memory_order_relaxed);
  return true;
}

// Clock sweep: evicts one unpinned resident panel, granting one second
// chance to recently-used ones. Returns false when everything is pinned.
bool evict_one(Shard& sh) {
  const std::size_t n = sh.nslots;
  for (std::size_t step = 0; step < 2 * n; ++step) {
    Slot& s = sh.slots[sh.hand];
    sh.hand = (sh.hand + 1) & (n - 1);
    if (s.bytes == 0) continue;
    if (s.refs.load(std::memory_order_relaxed) != 0) continue;  // pinned
    if (s.used.exchange(0, std::memory_order_relaxed) != 0) continue;
    if (tombstone(sh, s)) return true;
  }
  return false;
}

// Packs the full tile image (every depth slice) into dst; layout per
// pack_geometry.hpp.
void fill_panels(const double* tile, int dim, int k, PackFlavor flavor,
                 const PackGeometry& g, double* dst) {
  using namespace detail;
  for (int pc = 0; pc < k; pc += g.kc) {
    const int kc = std::min(g.kc, k - pc);
    if (flavor == PackFlavor::kB) {
      const double* src = tile + static_cast<std::ptrdiff_t>(pc) * dim;
      pack_b(kc, dim, src, dim, BLayout::kNT, dst);
      dst += static_cast<std::size_t>(round_up(dim, kNR)) *
             static_cast<std::size_t>(kc);
    } else {
      for (int ic = 0; ic < dim; ic += g.mc) {
        const int mc = std::min(g.mc, dim - ic);
        const double* src = tile + ic + static_cast<std::ptrdiff_t>(pc) * dim;
        pack_a(mc, kc, src, dim, dst);
        dst += static_cast<std::size_t>(round_up(mc, kMR)) *
               static_cast<std::size_t>(kc);
      }
    }
  }
}

}  // namespace

bool PackedTileCache::acquire(const double* tile, int dim, int k,
                              PackFlavor flavor, Handle* out) {
  if (tile == nullptr || dim < 1 || k < 1 || dim > kMaxDim || k > kMaxDim)
    return false;
  const PackGeometry g = detail::active_pack_geometry();
  const int geometry_id = detail::pack_geometry_id(g);
  if (geometry_id < 0) return false;  // id space exhausted: pack uncached
  const auto ptr = reinterpret_cast<std::uintptr_t>(tile);
  const std::uint64_t meta =
      make_meta(tile_epoch(tile), dim, k, flavor, geometry_id);
  // Epoch-independent hash: a repack after a bump lands in the same probe
  // window, overwriting its own stale entry instead of leaking it.
  const std::uint64_t h = mix(ptr ^ (meta << 32));
  Shard& sh = impl_->shards[(h >> 48) & (impl_->nshards - 1)];
  const std::size_t mask = sh.nslots - 1;
  Slot* const slots = sh.slots.get();

  const auto probe = [&]() -> bool {
    for (int p = 0; p < kProbe; ++p) {
      Slot& s = slots[(h + static_cast<std::size_t>(p)) & mask];
      if (s.key_ptr.load(std::memory_order_acquire) != ptr ||
          s.key_meta.load(std::memory_order_relaxed) != meta)
        continue;
      if (try_pin(s, ptr, meta, &out->slot_, &out->data_)) return true;
    }
    return false;
  };

  // Lock-free hit path.
  if (probe()) {
    sh.hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::lock_guard<std::mutex> lock(sh.mu);
  // A concurrent fill may have inserted the panel while we waited.
  if (probe()) {
    sh.hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  sh.misses.fetch_add(1, std::memory_order_relaxed);

  const std::size_t need_doubles = flavor == PackFlavor::kA
                                       ? detail::a_pack_doubles(dim, k, g)
                                       : detail::b_pack_doubles(dim, k);
  const std::size_t need = (need_doubles * sizeof(double) + 63) / 64 * 64;
  const std::size_t budget = impl_->capacity / impl_->nshards;
  if (need == 0 || need > budget) return false;

  // Victim slot: prefer an empty one, then a stale entry for the same
  // tile/flavor/shape (keeps at most one version per key resident), then
  // clock order over the probe window. Every path goes through
  // tombstone(): on an already-empty slot it just drains transient pins.
  // Stragglers may still increment refs after the drain; the RMW
  // re-publication below preserves those increments so their back-off
  // decrements cancel exactly.
  // Shape+flavor bits of the key (everything but epoch and geometry id).
  // A stale entry for the same tile/flavor/shape is claimed ahead of any
  // empty slot: it keeps at most one version per key resident, and
  // tombstone() hands us its buffer to repack in place -- the refill
  // after an epoch bump then costs no allocation (and no page faults on
  // a fresh mmap for large images).
  constexpr std::uint64_t kShapeMask = 0xffffff80u;
  Slot* victim = nullptr;
  for (int p = 0; p < kProbe && victim == nullptr; ++p) {
    Slot& s = slots[(h + static_cast<std::size_t>(p)) & mask];
    const std::uint64_t m = s.key_meta.load(std::memory_order_relaxed);
    if (s.key_ptr.load(std::memory_order_relaxed) == ptr &&
        (m & kShapeMask) == (meta & kShapeMask) &&
        s.refs.load(std::memory_order_relaxed) == 0 &&
        tombstone(sh, s, need, /*count_eviction=*/false))
      victim = &s;
  }
  for (int p = 0; p < kProbe && victim == nullptr; ++p) {
    Slot& s = slots[(h + static_cast<std::size_t>(p)) & mask];
    if (s.bytes == 0 && s.key_ptr.load(std::memory_order_relaxed) == 0 &&
        tombstone(sh, s))
      victim = &s;
  }
  for (int pass = 0; pass < 2 && victim == nullptr; ++pass) {
    for (int p = 0; p < kProbe && victim == nullptr; ++p) {
      Slot& s = slots[(h + static_cast<std::size_t>(p)) & mask];
      if (s.refs.load(std::memory_order_relaxed) != 0 &&
          s.refs.load(std::memory_order_relaxed) != kRefsEmpty)
        continue;  // pinned
      if (pass == 0 && s.used.exchange(0, std::memory_order_relaxed) != 0)
        continue;
      if (tombstone(sh, s, need)) victim = &s;
    }
  }
  if (victim == nullptr) return false;  // whole window pinned

  double* data = victim->data;  // buffer retained by tombstone(), if any
  if (data == nullptr) {
    while (sh.resident + need > budget)
      if (!evict_one(sh)) return false;
    data = alloc_panels(need);
    if (data == nullptr) return false;
    sh.resident += need;
  }
  fill_panels(tile, dim, k, flavor, g, data);

  sh.bytes_packed.fetch_add(need, std::memory_order_relaxed);
  victim->data = data;
  victim->bytes = need;
  victim->key_meta.store(meta, std::memory_order_relaxed);
  victim->used.store(1, std::memory_order_relaxed);
  // Re-publish refs as 1 (pre-pinned for us) with an RMW, not a store: a
  // reader that passed the probe's key check before tombstone() cleared it
  // may land its fetch_add only now, after the drain loop stopped watching.
  // fetch_add maps kRefsEmpty + x -> 1 + x, so that straggler's
  // compensating fetch_sub restores exactly 1; a blind store(1) would
  // clobber the transient increment and let the fetch_sub erase our own
  // pin, leaving a live Handle on an evictable (refs == 0) slot.
  victim->refs.fetch_add(1 - kRefsEmpty, std::memory_order_acq_rel);
  victim->key_ptr.store(ptr, std::memory_order_release);  // publish
  out->slot_ = victim;
  out->data_ = data;
  return true;
}

void PackedTileCache::invalidate_all() {
  for (std::size_t i = 0; i < impl_->nshards; ++i) {
    Shard& sh = impl_->shards[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (std::size_t s = 0; s < sh.nslots; ++s)
      if (sh.slots[s].bytes != 0) (void)tombstone(sh, sh.slots[s]);
  }
}

PackCacheStats PackedTileCache::stats() const noexcept {
  PackCacheStats t;
  for (std::size_t i = 0; i < impl_->nshards; ++i) {
    const Shard& sh = impl_->shards[i];
    t.hits += sh.hits.load(std::memory_order_relaxed);
    t.misses += sh.misses.load(std::memory_order_relaxed);
    t.evictions += sh.evictions.load(std::memory_order_relaxed);
    t.bytes_packed += sh.bytes_packed.load(std::memory_order_relaxed);
  }
  return t;
}

std::size_t PackedTileCache::resident_bytes() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < impl_->nshards; ++i) {
    Shard& sh = impl_->shards[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    total += sh.resident;
  }
  return total;
}

// ---- process instance, binding ---------------------------------------------

PackedTileCache& process_pack_cache() {
  static PackedTileCache* const cache = new PackedTileCache();  // never freed
  return *cache;
}

PackCacheBinding::PackCacheBinding(PackedTileCache* cache) noexcept
    : prev_(t_cache) {
  t_cache = cache;
}

PackCacheBinding::~PackCacheBinding() { t_cache = prev_; }

namespace detail {

PackedTileCache* active_pack_cache() noexcept { return t_cache; }

}  // namespace detail
}  // namespace hetsched::kernels
