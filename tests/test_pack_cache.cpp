// PackedTileCache: bit-for-bit cache-on/off equality through the parallel
// executor, epoch and geometry invalidation, eviction under pressure, and
// a concurrent acquire/bump/invalidate stress meant for the TSan CI job.
#include "kernels/pack_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "core/kernels.hpp"
#include "core/tile_matrix.hpp"
#include "exec/parallel_executor.hpp"
#include "kernels/gemm_packed.hpp"
#include "kernels/pack_geometry.hpp"
#include "kernels/ref.hpp"

namespace hetsched {
namespace {

namespace kd = kernels::detail;
using kernels::PackedTileCache;
using kernels::PackFlavor;

ExecOptions exec_opts(int threads, bool cache_on) {
  ExecOptions opt;
  opt.num_threads = threads;
  opt.record_trace = false;
  opt.pack_cache = cache_on;
  return opt;
}

/// Full packed op(B) image of a dim x dim tile (lda == dim), the exact
/// bytes a cache fill must produce (packing moves doubles, no arithmetic).
std::vector<double> reference_b_image(const double* tile, int dim) {
  const kernels::PackGeometry g = kernels::pack_geometry();
  std::vector<double> img(kd::b_pack_doubles(dim, dim), -7.0);
  for (int pc = 0; pc < dim; pc += g.kc) {
    const int kcs = std::min(g.kc, dim - pc);
    kd::pack_b(kcs, dim, tile + static_cast<std::size_t>(pc) * dim, dim,
               kd::BLayout::kNT, img.data() + kd::b_pack_doubles(dim, pc));
  }
  return img;
}

struct CacheCase {
  int n_tiles;
  int nb;
};

class PackCacheOnOff : public ::testing::TestWithParam<CacheCase> {};

// The acceptance criterion: a cache-on factorization is bit-for-bit equal
// to a cache-off one. Packed panels hold the same values the per-call
// scratch path packs, and the accumulate order is unchanged, so even the
// floating-point rounding must be identical.
TEST_P(PackCacheOnOff, FactorizationBitForBitEqual) {
  const auto [n, nb] = GetParam();
  const TaskGraph g = build_cholesky_dag(n, nb);

  TileMatrix off = TileMatrix::synthetic_spd(n, nb, 91);
  const RunReport r_off = execute_parallel(off, g, exec_opts(4, false));
  ASSERT_TRUE(r_off.success) << r_off.error;
  EXPECT_EQ(r_off.pack_hits + r_off.pack_misses, 0);

  TileMatrix on = TileMatrix::synthetic_spd(n, nb, 91);
  const RunReport r_on = execute_parallel(on, g, exec_opts(4, true));
  ASSERT_TRUE(r_on.success) << r_on.error;

  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j)
      ASSERT_EQ(std::memcmp(on.tile(i, j), off.tile(i, j), on.tile_bytes()), 0)
          << "tile (" << i << ", " << j << ") differs with the cache on";
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackCacheOnOff,
                         ::testing::Values(CacheCase{6, 64}, CacheCase{6, 192},
                                           CacheCase{4, 480}));

TEST(PackCache, HitRateOnSixteenTileCholesky) {
  const int n = 16, nb = 64;
  TileMatrix a = TileMatrix::synthetic_spd(n, nb, 5);
  const TaskGraph g = build_cholesky_dag(n, nb);
  const RunReport r = execute_parallel(a, g, exec_opts(4, true));
  ASSERT_TRUE(r.success) << r.error;
  const std::int64_t lookups = r.pack_hits + r.pack_misses;
  ASSERT_GT(lookups, 0);
  EXPECT_GT(r.pack_bytes, 0);
  // Each TRSM output feeds O(n) GEMM/SYRK consumers; at 16 tiles reuse
  // must put the hit rate over the paper-bound-motivated 0.8 floor.
  EXPECT_GE(static_cast<double>(r.pack_hits) / static_cast<double>(lookups),
            0.8);
}

TEST(PackCache, EpochBumpInvalidatesStalePanels) {
  PackedTileCache cache({/*capacity_bytes=*/8u << 20, /*shards=*/2,
                         /*slots_per_shard=*/64});
  const int nb = 64;
  std::vector<double> tile(static_cast<std::size_t>(nb) * nb);
  for (std::size_t i = 0; i < tile.size(); ++i)
    tile[i] = static_cast<double>(i % 101) * 0.5;

  PackedTileCache::Handle h;
  ASSERT_TRUE(cache.acquire(tile.data(), nb, nb, PackFlavor::kB, &h));
  {
    const auto ref = reference_b_image(tile.data(), nb);
    ASSERT_EQ(std::memcmp(h.data(), ref.data(), ref.size() * sizeof(double)),
              0);
  }
  h.release();

  // Second lookup of the unchanged tile is a hit...
  ASSERT_TRUE(cache.acquire(tile.data(), nb, nb, PackFlavor::kB, &h));
  h.release();
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // ...but a write-after-read plus the writer's epoch bump forces a
  // refill, and the refreshed panel carries the new values.
  tile[3] = -1234.5;
  cache.bump_epoch(tile.data());
  ASSERT_TRUE(cache.acquire(tile.data(), nb, nb, PackFlavor::kB, &h));
  const auto ref = reference_b_image(tile.data(), nb);
  ASSERT_EQ(std::memcmp(h.data(), ref.data(), ref.size() * sizeof(double)),
            0);
  h.release();
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PackCache, GeometryGenerationInvalidates) {
  PackedTileCache cache({8u << 20, 2, 64});
  const int nb = 96;
  std::vector<double> tile(static_cast<std::size_t>(nb) * nb, 1.25);

  PackedTileCache::Handle h;
  ASSERT_TRUE(cache.acquire(tile.data(), nb, nb, PackFlavor::kA, &h));
  h.release();
  kernels::set_pack_geometry({64, 32});
  ASSERT_TRUE(cache.acquire(tile.data(), nb, nb, PackFlavor::kA, &h));
  h.release();
  kernels::reset_pack_geometry();
  // Both lookups filled: the generation in the key changed under us.
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Satellite bugfix regression: the scratch path sizes its buffers through
// the same pack_geometry() helpers as the packing loops, so an overridden
// geometry (here deliberately not dividing the tile size) still computes
// the right product.
TEST(PackCache, ScratchGeometryOverrideStaysCorrect) {
  kernels::set_pack_geometry({96, 48});
  const int nb = 100;
  std::vector<double> a(static_cast<std::size_t>(nb) * nb);
  std::vector<double> b(static_cast<std::size_t>(nb) * nb);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.25 + static_cast<double>(i % 37) * 1e-2;
    b[i] = -0.5 + static_cast<double>(i % 29) * 1e-2;
  }
  std::vector<double> c_opt(static_cast<std::size_t>(nb) * nb, 2.0);
  std::vector<double> c_ref = c_opt;
  kernels::gemm(nb, a.data(), nb, b.data(), nb, c_opt.data(), nb);
  kernels::ref::gemm(nb, a.data(), nb, b.data(), nb, c_ref.data(), nb);
  kernels::reset_pack_geometry();
  for (std::size_t i = 0; i < c_opt.size(); ++i)
    ASSERT_NEAR(c_opt[i], c_ref[i], 1e-10 * (1.0 + std::abs(c_ref[i])))
        << "element " << i;
}

TEST(PackCache, EvictsUnderTinyCapacity) {
  const int nb = 64;
  const std::size_t image_bytes = kd::b_pack_doubles(nb, nb) * sizeof(double);
  // Room for ~3 images; 8 distinct tiles must evict at least 4 times.
  PackedTileCache cache({3 * image_bytes + image_bytes / 2, /*shards=*/1,
                         /*slots_per_shard=*/64});
  std::vector<std::vector<double>> tiles;
  for (int t = 0; t < 8; ++t) {
    tiles.emplace_back(static_cast<std::size_t>(nb) * nb,
                       static_cast<double>(t) + 0.5);
    PackedTileCache::Handle h;
    ASSERT_TRUE(
        cache.acquire(tiles.back().data(), nb, nb, PackFlavor::kB, &h));
    EXPECT_EQ(h.data()[0], static_cast<double>(t) + 0.5);
  }
  EXPECT_GE(cache.stats().evictions, 4u);
  EXPECT_EQ(cache.stats().misses, 8u);
  EXPECT_LE(cache.resident_bytes(), cache.capacity_bytes());
}

TEST(PackCache, PinnedPanelSurvivesPressureAndInvalidate) {
  const int nb = 64;
  const std::size_t image_bytes = kd::b_pack_doubles(nb, nb) * sizeof(double);
  PackedTileCache cache({2 * image_bytes + image_bytes / 2, 1, 64});
  std::vector<double> pinned(static_cast<std::size_t>(nb) * nb, 3.75);
  PackedTileCache::Handle keep;
  ASSERT_TRUE(cache.acquire(pinned.data(), nb, nb, PackFlavor::kB, &keep));

  std::vector<std::vector<double>> tiles;
  for (int t = 0; t < 6; ++t) {
    tiles.emplace_back(static_cast<std::size_t>(nb) * nb,
                       static_cast<double>(t));
    PackedTileCache::Handle h;
    // Fills may or may not succeed under this pressure; the pin must hold
    // either way.
    (void)cache.acquire(tiles.back().data(), nb, nb, PackFlavor::kB, &h);
  }
  cache.invalidate_all();
  const auto ref = reference_b_image(pinned.data(), nb);
  EXPECT_EQ(std::memcmp(keep.data(), ref.data(), ref.size() * sizeof(double)),
            0);
  keep.release();
}

// Concurrent hit/fill/evict/invalidate stress; run in the CI TSan job.
// Tile contents never change, so any panel a reader pins -- whatever
// epoch or generation it was packed under -- must carry the right values.
TEST(PackCache, ConcurrentAcquireBumpInvalidateStress) {
  const int nb = 32;
  const std::size_t image_bytes = kd::b_pack_doubles(nb, nb) * sizeof(double);
  PackedTileCache cache({6 * image_bytes, /*shards=*/2,
                         /*slots_per_shard=*/16});
  constexpr int kTiles = 8;
  std::vector<std::vector<double>> tiles;
  for (int t = 0; t < kTiles; ++t)
    tiles.emplace_back(static_cast<std::size_t>(nb) * nb,
                       static_cast<double>(t) + 0.25);

  constexpr int kReaders = 4;
  constexpr int kItersPerReader = 4000;
  std::atomic<int> foreign_panels{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int it = 0; it < kItersPerReader; ++it) {
        const int t = (it * 7 + r * 3) % kTiles;
        const PackFlavor f = (it + r) % 2 == 0 ? PackFlavor::kB
                                               : PackFlavor::kA;
        PackedTileCache::Handle h;
        if (!cache.acquire(tiles[static_cast<std::size_t>(t)].data(), nb, nb,
                           f, &h))
          continue;
        // First packed element is op(X)(0, 0) = tile[0] in both flavors.
        if (h.data()[0] != static_cast<double>(t) + 0.25)
          foreign_panels.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread churner([&] {
    for (int it = 0; it < 2000; ++it) {
      cache.bump_epoch(tiles[static_cast<std::size_t>(it % kTiles)].data());
      if (it % 97 == 0) cache.invalidate_all();
    }
  });
  for (auto& th : readers) th.join();
  churner.join();
  EXPECT_EQ(foreign_panels.load(), 0);
  const kernels::PackCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kReaders) * kItersPerReader);
}

}  // namespace
}  // namespace hetsched
