// Optimized kernel engine (src/kernels/) against the kernels::ref oracles.
//
// Complements test_kernels.cpp (which validates the public API against
// closed-form expectations at small/medium nb) with:
//   * ref-vs-opt agreement across the packing edge cases: nb 1..8 (below
//     one micro-tile), 31/32/33 (around kTrsmBlock), 63/64/65 (around the
//     kMC/kKC-aligned sizes and kPotrfPanel), 192, 320 (the factor-large
//     tile) and the paper's 960;
//   * non-trivial leading dimensions on every operand;
//   * generic-vs-AVX2 and AVX2-vs-AVX-512 tier agreement through
//     set_engine_tier(), and POTRF's failing-pivot index on every tier;
//   * a full factorization residual through execute_parallel, i.e. the
//     engine as the executors actually drive it (scratch pool bound);
//   * the synthetic SPD generator: golden stream values, and the vector
//     fill bitwise equal to the scalar loop on every tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "core/dense_matrix.hpp"
#include "core/kernels.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_cholesky.hpp"
#include "exec/parallel_executor.hpp"
#include "kernels/engine.hpp"
#include "kernels/gemm_packed.hpp"
#include "kernels/ref.hpp"

namespace hetsched {
namespace {

std::vector<double> random_block(int rows, int cols, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> t(static_cast<std::size_t>(rows) *
                        static_cast<std::size_t>(cols));
  for (double& x : t) x = dist(rng);
  return t;
}

std::vector<double> spd_block(int nb, int ld, unsigned seed) {
  const DenseMatrix a = DenseMatrix::random_spd(nb, seed);
  std::vector<double> t(static_cast<std::size_t>(ld) *
                        static_cast<std::size_t>(nb));
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i < nb; ++i)
      t[static_cast<std::size_t>(i) +
        static_cast<std::size_t>(j) * static_cast<std::size_t>(ld)] = a(i, j);
  return t;
}

double max_abs(const std::vector<double>& t) {
  double m = 0.0;
  for (const double x : t) m = std::max(m, std::abs(x));
  return m;
}

/// Elementwise |x - y| <= 1e-10 * (1 + max|y|): the ISSUE's norm-scaled
/// tolerance. ref and opt sum in different orders, so exact equality is
/// not expected above the small-tile fallback threshold.
void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  const double tol = 1e-10 * (1.0 + max_abs(want));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "flat index " << i;
}

class OptVsRefSweep : public ::testing::TestWithParam<int> {};

TEST_P(OptVsRefSweep, Gemm) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 11);
  const auto b = random_block(nb, nb, 12);
  auto c_opt = random_block(nb, nb, 13);
  auto c_ref = c_opt;
  kernels::gemm(nb, a.data(), nb, b.data(), nb, c_opt.data(), nb);
  kernels::ref::gemm(nb, a.data(), nb, b.data(), nb, c_ref.data(), nb);
  expect_close(c_opt, c_ref);
}

TEST_P(OptVsRefSweep, GemmNn) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 14);
  const auto b = random_block(nb, nb, 15);
  auto c_opt = random_block(nb, nb, 16);
  auto c_ref = c_opt;
  kernels::gemm_nn(nb, a.data(), nb, b.data(), nb, c_opt.data(), nb);
  kernels::ref::gemm_nn(nb, a.data(), nb, b.data(), nb, c_ref.data(), nb);
  expect_close(c_opt, c_ref);
}

TEST_P(OptVsRefSweep, Syrk) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 17);
  auto c_opt = random_block(nb, nb, 18);
  auto c_ref = c_opt;
  kernels::syrk(nb, a.data(), nb, c_opt.data(), nb);
  kernels::ref::syrk(nb, a.data(), nb, c_ref.data(), nb);
  expect_close(c_opt, c_ref);
  // Strict upper triangle must be untouched bit-for-bit.
  for (int j = 1; j < nb; ++j)
    for (int i = 0; i < j; ++i)
      ASSERT_EQ(c_opt[static_cast<std::size_t>(i) +
                      static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nb)],
                c_ref[static_cast<std::size_t>(i) +
                      static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nb)]);
}

TEST_P(OptVsRefSweep, Trsm) {
  const int nb = GetParam();
  // A well-conditioned lower factor: the Cholesky of an SPD tile.
  auto l = spd_block(nb, nb, 19);
  ASSERT_EQ(kernels::ref::potrf_info(nb, l.data(), nb), 0);
  auto a_opt = random_block(nb, nb, 20);
  auto a_ref = a_opt;
  kernels::trsm(nb, l.data(), nb, a_opt.data(), nb);
  kernels::ref::trsm(nb, l.data(), nb, a_ref.data(), nb);
  expect_close(a_opt, a_ref);
}

TEST_P(OptVsRefSweep, Potrf) {
  const int nb = GetParam();
  const auto spd = spd_block(nb, nb, 21);
  auto w_opt = spd;
  auto w_ref = spd;
  ASSERT_EQ(kernels::potrf_info(nb, w_opt.data(), nb), 0);
  ASSERT_EQ(kernels::ref::potrf_info(nb, w_ref.data(), nb), 0);
  // Compare lower triangles only; above the diagonal both leave the input.
  const double tol = 1e-10 * (1.0 + max_abs(w_ref));
  for (int j = 0; j < nb; ++j)
    for (int i = j; i < nb; ++i)
      ASSERT_NEAR(w_opt[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(nb)],
                  w_ref[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(nb)],
                  tol)
          << "(" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(PackingEdges, OptVsRefSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33,
                                           63, 64, 65, 192, 320, 960));

// ---- Non-trivial leading dimensions ----------------------------------------

TEST(OptKernelsLd, GemmWithDistinctLeadingDims) {
  const int nb = 129;  // above the packed-work floor, not MR/NR aligned
  const int lda = nb + 7, ldb = nb + 3, ldc = nb + 11;
  const auto a = random_block(lda, nb, 31);
  const auto b = random_block(ldb, nb, 32);
  auto c_opt = random_block(ldc, nb, 33);
  auto c_ref = c_opt;
  kernels::gemm(nb, a.data(), lda, b.data(), ldb, c_opt.data(), ldc);
  kernels::ref::gemm(nb, a.data(), lda, b.data(), ldb, c_ref.data(), ldc);
  expect_close(c_opt, c_ref);
}

TEST(OptKernelsLd, SyrkTrsmPotrfWithPaddedLd) {
  const int nb = 100, ld = 160;
  const auto a = random_block(ld, nb, 34);
  auto c_opt = random_block(ld, nb, 35);
  auto c_ref = c_opt;
  kernels::syrk(nb, a.data(), ld, c_opt.data(), ld);
  kernels::ref::syrk(nb, a.data(), ld, c_ref.data(), ld);
  expect_close(c_opt, c_ref);

  auto l = spd_block(nb, ld, 36);
  ASSERT_EQ(kernels::ref::potrf_info(nb, l.data(), ld), 0);
  auto x_opt = random_block(ld, nb, 37);
  auto x_ref = x_opt;
  kernels::trsm(nb, l.data(), ld, x_opt.data(), ld);
  kernels::ref::trsm(nb, l.data(), ld, x_ref.data(), ld);
  expect_close(x_opt, x_ref);

  auto w_opt = spd_block(nb, ld, 38);
  auto w_ref = w_opt;
  ASSERT_EQ(kernels::potrf_info(nb, w_opt.data(), ld), 0);
  ASSERT_EQ(kernels::ref::potrf_info(nb, w_ref.data(), ld), 0);
  const double tol = 1e-10 * (1.0 + max_abs(w_ref));
  for (int j = 0; j < nb; ++j)
    for (int i = j; i < nb; ++i)
      ASSERT_NEAR(w_opt[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(ld)],
                  w_ref[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(ld)],
                  tol);
}

// ---- Dispatch tiers ---------------------------------------------------------

// The tier ladder is totally ordered (generic < avx2 < avx512), so a
// request clamps to min(request, native) in enum order.
kernels::Tier expect_clamp(kernels::Tier request) {
  return static_cast<int>(request) <= static_cast<int>(kernels::native_tier())
             ? request
             : kernels::native_tier();
}

TEST(EngineDispatch, TierRoundTrip) {
  const kernels::Tier startup = kernels::engine_tier();
  for (const kernels::Tier t :
       {kernels::Tier::kGeneric, kernels::Tier::kAvx2,
        kernels::Tier::kAvx512}) {
    kernels::set_engine_tier(t);
    EXPECT_EQ(kernels::engine_tier(), expect_clamp(t))
        << "requested " << kernels::tier_name(t);
  }
  kernels::reset_engine_tier();
  EXPECT_EQ(kernels::engine_tier(), startup);
}

TEST(EngineDispatch, TierNames) {
  EXPECT_STREQ(kernels::tier_name(kernels::Tier::kGeneric), "generic");
  EXPECT_STREQ(kernels::tier_name(kernels::Tier::kAvx2), "avx2");
  EXPECT_STREQ(kernels::tier_name(kernels::Tier::kAvx512), "avx512");
}

TEST(EngineDispatch, EnvParseRecognizesTiersAndClamps) {
  bool recognized = false;
  EXPECT_EQ(kernels::detail::parse_tier_env("generic", &recognized),
            kernels::Tier::kGeneric);
  EXPECT_TRUE(recognized);
  EXPECT_EQ(kernels::detail::parse_tier_env("avx2", &recognized),
            expect_clamp(kernels::Tier::kAvx2));
  EXPECT_TRUE(recognized);
  EXPECT_EQ(kernels::detail::parse_tier_env("avx512", &recognized),
            expect_clamp(kernels::Tier::kAvx512));
  EXPECT_TRUE(recognized);
  // Unrecognized spellings (including case and whitespace variants) fall
  // back to the native tier and report !recognized -- never a silent
  // misconfiguration into some other tier.
  for (const char* bad : {"", "AVX2", " avx2", "avx-512", "turbo", "1"}) {
    EXPECT_EQ(kernels::detail::parse_tier_env(bad, &recognized),
              kernels::native_tier())
        << "value \"" << bad << '"';
    EXPECT_FALSE(recognized) << "value \"" << bad << '"';
  }
}

TEST(EngineDispatch, UnrecognizedEnvValueWarnsOnStderr) {
  ::testing::internal::CaptureStderr();
  const kernels::Tier t = kernels::detail::resolve_tier_env("turbo");
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(t, kernels::native_tier());
  EXPECT_NE(warning.find("unrecognized HETSCHED_KERNEL_TIER=\"turbo\""),
            std::string::npos)
      << warning;
  EXPECT_NE(warning.find("generic, avx2, avx512"), std::string::npos)
      << warning;

  // Recognized values stay silent.
  ::testing::internal::CaptureStderr();
  (void)kernels::detail::resolve_tier_env("generic");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

// Runs one GEMM + one SYRK at the requested tier; the caller diffs tiers.
void run_at_tier(kernels::Tier t, int nb, const std::vector<double>& a,
                 const std::vector<double>& b, std::vector<double>* c_gemm,
                 std::vector<double>* c_syrk) {
  kernels::set_engine_tier(t);
  kernels::gemm(nb, a.data(), nb, b.data(), nb, c_gemm->data(), nb);
  kernels::syrk(nb, a.data(), nb, c_syrk->data(), nb);
  kernels::reset_engine_tier();
}

// Inputs of one TRSM (against the Cholesky factor of an SPD tile) and one
// POTRF, and their outputs at one tier.
struct SolveInputs {
  std::vector<double> l, rhs, spd;
};

SolveInputs solve_inputs(int nb, unsigned seed) {
  SolveInputs in{spd_block(nb, nb, seed), random_block(nb, nb, seed + 1), {}};
  in.spd = in.l;
  EXPECT_EQ(kernels::potrf_info(nb, in.l.data(), nb), 0);
  return in;
}

struct SolveOutputs {
  std::vector<double> trsm, potrf;
};

SolveOutputs solves_at_tier(kernels::Tier t, int nb, const SolveInputs& in) {
  SolveOutputs out{in.rhs, in.spd};
  kernels::set_engine_tier(t);
  kernels::trsm(nb, in.l.data(), nb, out.trsm.data(), nb);
  EXPECT_EQ(kernels::potrf_info(nb, out.potrf.data(), nb), 0);
  kernels::reset_engine_tier();
  return out;
}

TEST(EngineDispatch, GenericAndNativeTiersAgree) {
  const int nb = 192;
  const auto a = random_block(nb, nb, 41);
  const auto b = random_block(nb, nb, 42);
  const auto c0 = random_block(nb, nb, 43);

  auto c_gen = c0, s_gen = c0;
  run_at_tier(kernels::Tier::kGeneric, nb, a, b, &c_gen, &s_gen);
  auto c_nat = c0, s_nat = c0;
  run_at_tier(kernels::Tier::kAvx2, nb, a, b, &c_nat, &s_nat);

  // Same packing, same blocking, same accumulation order: FMA contraction
  // is the only permitted difference, so the tiers agree very tightly.
  expect_close(c_nat, c_gen);
  expect_close(s_nat, s_gen);

  // The base-case solves keep the reference's per-element order on every
  // tier, so TRSM and POTRF differ by FMA contraction only as well.
  const SolveInputs in = solve_inputs(nb, 44);
  const SolveOutputs gen = solves_at_tier(kernels::Tier::kGeneric, nb, in);
  const SolveOutputs nat = solves_at_tier(kernels::Tier::kAvx2, nb, in);
  expect_close(nat.trsm, gen.trsm);
  expect_close(nat.potrf, gen.potrf);
}

// AVX-512 paired-panel tier against the generic oracle across every edge
// shape the pairing logic has: below one pair (nb <= 4), exactly one pair
// (8), odd trailing panel (5..7, 63, 65), the paper's 960, and padded
// leading dimensions. Auto-skips on hosts without AVX-512.
class Avx512Sweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (kernels::native_tier() != kernels::Tier::kAvx512)
      GTEST_SKIP() << "CPU lacks AVX-512F";
  }
};

TEST_P(Avx512Sweep, GemmSyrkAgreeWithGeneric) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 51);
  const auto b = random_block(nb, nb, 52);
  const auto c0 = random_block(nb, nb, 53);

  auto c_gen = c0, s_gen = c0;
  run_at_tier(kernels::Tier::kGeneric, nb, a, b, &c_gen, &s_gen);
  auto c_512 = c0, s_512 = c0;
  run_at_tier(kernels::Tier::kAvx512, nb, a, b, &c_512, &s_512);

  expect_close(c_512, c_gen);
  expect_close(s_512, s_gen);
  // SYRK's strict upper triangle is untouched by every tier: the paired
  // path must not let its right panel spill across the diagonal.
  for (int j = 1; j < nb; ++j)
    for (int i = 0; i < j; ++i)
      ASSERT_EQ(s_512[static_cast<std::size_t>(i) +
                      static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nb)],
                c0[static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(j) * static_cast<std::size_t>(nb)])
          << "(" << i << "," << j << ")";
}

TEST_P(Avx512Sweep, AgreesWithAvx2Tier) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 54);
  const auto b = random_block(nb, nb, 55);
  const auto c0 = random_block(nb, nb, 56);

  auto c_avx2 = c0, s_avx2 = c0;
  run_at_tier(kernels::Tier::kAvx2, nb, a, b, &c_avx2, &s_avx2);
  auto c_512 = c0, s_512 = c0;
  run_at_tier(kernels::Tier::kAvx512, nb, a, b, &c_512, &s_512);

  // Both tiers contract with FMA in the same order over the same packed
  // panels -- the 8x8 tile is two 8x4 tiles computed in lockstep -- so
  // agreement is bitwise, not just within tolerance.
  for (std::size_t i = 0; i < c_512.size(); ++i) {
    ASSERT_EQ(c_512[i], c_avx2[i]) << "gemm flat index " << i;
    ASSERT_EQ(s_512[i], s_avx2[i]) << "syrk flat index " << i;
  }

  // The base-case solves run the same FMA chain per element on both
  // tiers, whatever their strip heights and lane masks.
  const SolveInputs in = solve_inputs(nb, 57);
  const SolveOutputs v2 = solves_at_tier(kernels::Tier::kAvx2, nb, in);
  const SolveOutputs v512 = solves_at_tier(kernels::Tier::kAvx512, nb, in);
  for (std::size_t i = 0; i < v512.trsm.size(); ++i) {
    ASSERT_EQ(v512.trsm[i], v2.trsm[i]) << "trsm flat index " << i;
    ASSERT_EQ(v512.potrf[i], v2.potrf[i]) << "potrf flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PairingEdges, Avx512Sweep,
                         ::testing::Values(1, 3, 4, 5, 7, 8, 31, 32, 33, 63,
                                           64, 65, 129, 192, 320, 960));

TEST(Avx512Ld, GemmWithDistinctLeadingDims) {
  if (kernels::native_tier() != kernels::Tier::kAvx512)
    GTEST_SKIP() << "CPU lacks AVX-512F";
  const int nb = 131;  // odd panel tail + masked rows at every edge
  const int lda = nb + 7, ldb = nb + 3, ldc = nb + 11;
  const auto a = random_block(lda, nb, 57);
  const auto b = random_block(ldb, nb, 58);
  const auto c0 = random_block(ldc, nb, 59);

  kernels::set_engine_tier(kernels::Tier::kGeneric);
  auto c_gen = c0;
  kernels::gemm(nb, a.data(), lda, b.data(), ldb, c_gen.data(), ldc);
  kernels::set_engine_tier(kernels::Tier::kAvx512);
  auto c_512 = c0;
  kernels::gemm(nb, a.data(), lda, b.data(), ldb, c_512.data(), ldc);
  kernels::reset_engine_tier();
  expect_close(c_512, c_gen);
}

// ---- POTRF failing pivots and untouched storage, on every tier --------------

std::vector<kernels::Tier> host_tiers() {
  std::vector<kernels::Tier> tiers;
  for (const kernels::Tier t : {kernels::Tier::kGeneric, kernels::Tier::kAvx2,
                                kernels::Tier::kAvx512})
    if (static_cast<int>(t) <= static_cast<int>(kernels::native_tier()))
      tiers.push_back(t);
  return tiers;
}

// A pivot forced bad at column j (0-based) of an SPD tile: the leading
// j x j block is untouched, so every earlier pivot stays positive, and
// the Schur complement at j is the bad diagonal minus a sum of squares.
TEST(PotrfFailureIndex, MatchesRefOnEveryTier) {
  for (const int nb : {64, 320}) {
    for (const int j : {0, 1, 31, 63, 64, 65, 200}) {
      if (j >= nb || (j == 200 && nb != 320)) continue;
      for (const double bad :
           {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
        auto input = spd_block(nb, nb, 81);
        if (bad == 0.0)  // zero pivot: zero row j left of the diagonal too
          for (int p = 0; p < j; ++p)
            input[static_cast<std::size_t>(j) +
                  static_cast<std::size_t>(p) * static_cast<std::size_t>(nb)] =
                0.0;
        input[static_cast<std::size_t>(j) * (static_cast<std::size_t>(nb) + 1)] =
            bad;
        auto w_ref = input;
        const int want = kernels::ref::potrf_info(nb, w_ref.data(), nb);
        ASSERT_EQ(want, j + 1) << "nb=" << nb << " j=" << j;
        for (const kernels::Tier t : host_tiers()) {
          kernels::set_engine_tier(t);
          auto w = input;
          EXPECT_EQ(kernels::potrf_info(nb, w.data(), nb), want)
              << kernels::tier_name(t) << " nb=" << nb << " j=" << j
              << " pivot=" << bad;
        }
        kernels::reset_engine_tier();
      }
    }
  }
}

TEST(PotrfFailureIndex, UpperTriangleAndPaddingUntouched) {
  for (const int nb : {1, 33, 64, 65, 320}) {
    const int ld = nb + 3;
    auto input = spd_block(nb, ld, 82);
    // Distinct values above the diagonal and in the padding rows, so a
    // stray write of any value shows.
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < ld; ++i)
        if (i < j || i >= nb)
          input[static_cast<std::size_t>(i) +
                static_cast<std::size_t>(j) * static_cast<std::size_t>(ld)] =
              1e6 + i + 1e3 * j;
    for (const kernels::Tier t : host_tiers()) {
      kernels::set_engine_tier(t);
      auto w = input;
      ASSERT_EQ(kernels::potrf_info(nb, w.data(), ld), 0)
          << kernels::tier_name(t) << " nb=" << nb;
      for (int j = 0; j < nb; ++j)
        for (int i = 0; i < ld; ++i) {
          if (i >= j && i < nb) continue;
          const std::size_t at = static_cast<std::size_t>(i) +
                                 static_cast<std::size_t>(j) *
                                     static_cast<std::size_t>(ld);
          ASSERT_EQ(std::memcmp(&w[at], &input[at], sizeof(double)), 0)
              << kernels::tier_name(t) << " nb=" << nb << " (" << i << ","
              << j << ")";
        }
    }
    kernels::reset_engine_tier();
  }
}

// ---- The in-block TRSM solve of each tier, at every strip-tail length ------

// m = 1..70 runs every partial last vector of both vector tiers (1..8
// AVX-512 lanes, 1..4 AVX2 lanes) in strips of every height, plus full
// strips. Solving the columns in two calls must not change a bit, rows
// past m (the padding row of ld = m + 1) must stay untouched, the result
// must match ref::trsm_rlt to rounding, and avx2 must equal avx512.
TEST(InBlockSolve, TailsAndColumnSplitsOnEveryTier) {
  using Solve = void (*)(int, int, int, const double*, int, double*, int);
  const Solve solves[] = {kernels::detail::trsm_rlt_generic,
                          kernels::detail::trsm_rlt_avx2,
                          kernels::detail::trsm_rlt_avx512};
  const int tiers = static_cast<int>(kernels::native_tier()) + 1;
  for (const int n : {1, 2, 3, 32, 33}) {
    auto l = spd_block(n, n, 91);
    ASSERT_EQ(kernels::ref::potrf_info(n, l.data(), n), 0);
    for (int m = 1; m <= 70; ++m) {
      const int ld = m + 1;
      const auto a0 = random_block(ld, n, 92 + static_cast<unsigned>(m));
      auto want = a0;
      kernels::ref::trsm_rlt(m, n, l.data(), n, want.data(), ld);
      std::vector<std::vector<double>> got;
      for (int t = 0; t < tiers; ++t) {
        SCOPED_TRACE(::testing::Message()
                     << kernels::tier_name(static_cast<kernels::Tier>(t))
                     << " m=" << m << " n=" << n);
        auto whole = a0;
        solves[t](m, 0, n, l.data(), n, whole.data(), ld);
        auto split = a0;
        solves[t](m, 0, n / 2, l.data(), n, split.data(), ld);
        solves[t](m, n / 2, n, l.data(), n, split.data(), ld);
        ASSERT_EQ(std::memcmp(whole.data(), split.data(),
                              whole.size() * sizeof(double)),
                  0);
        for (int j = 0; j < n; ++j) {
          const std::size_t pad = static_cast<std::size_t>(m) +
                                  static_cast<std::size_t>(j) *
                                      static_cast<std::size_t>(ld);
          ASSERT_EQ(std::memcmp(&whole[pad], &a0[pad], sizeof(double)), 0)
              << "column " << j;
        }
        expect_close(whole, want);
        got.push_back(std::move(whole));
      }
      if (tiers == 3)
        ASSERT_EQ(std::memcmp(got[1].data(), got[2].data(),
                              got[1].size() * sizeof(double)),
                  0)
            << "avx2 vs avx512, m=" << m << " n=" << n;
    }
  }
}

// ---- Whole factorization through the parallel executor ----------------------

TEST(OptKernelsEndToEnd, ParallelFactorizationResidualSmall) {
  const int n = 6, nb = 48;  // tiles large enough to take the packed path
  const DenseMatrix a0 = DenseMatrix::random_spd(n * nb, 71);
  TileMatrix tiled = TileMatrix::from_dense(a0, n, nb);
  const TaskGraph g = build_cholesky_dag(n, nb);
  ExecOptions opt;
  opt.num_threads = 4;
  const RunReport r = execute_parallel(tiled, g, opt);
  ASSERT_TRUE(r.success) << r.error;

  // Residual of the computed factor: max |A - L L^T| over the lower
  // triangle, scaled by max |A|.
  const DenseMatrix llt = DenseMatrix::multiply_llt(tiled.to_dense());
  double resid = 0.0, scale = 0.0;
  for (int j = 0; j < n * nb; ++j)
    for (int i = j; i < n * nb; ++i) {
      resid = std::max(resid, std::abs(a0(i, j) - llt(i, j)));
      scale = std::max(scale, std::abs(a0(i, j)));
    }
  EXPECT_LT(resid, 1e-10 * (1.0 + scale));
}

// ---- The synthetic SPD generator stream -------------------------------------

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// FNV-1a over the bit patterns of every stored double, in storage order.
std::uint64_t storage_checksum(const TileMatrix& m) {
  const std::size_t n = static_cast<std::size_t>(num_lower_tiles(m.n_tiles())) *
                        static_cast<std::size_t>(m.nb()) *
                        static_cast<std::size_t>(m.nb());
  const double* p = m.tile(0);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bits_of(p[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

// Literal values of synthetic_spd, recorded from the scalar splitmix64 loop
// the generator started as: the second and next-to-last stored doubles,
// the last (a diagonal, lifted to 2N) and a checksum of the whole storage.
// Element counts 9 and 75 are odd; 10890 is not a multiple of 8. Benchmark
// inputs and every recorded result depend on this stream, so it must never
// change, on any tier.
TEST(SyntheticSpd, GoldenStream) {
  struct Golden {
    int tiles, nb;
    unsigned seed;
    std::uint64_t second, next_to_last, last, checksum;
  };
  const Golden cases[] = {
      {1, 3, 1u, 0xbfee9dcc76fa470aULL, 0xbfd152459398fbb8ULL,
       0x4018000000000000ULL, 0xfbddedfff0e60a27ULL},
      {2, 5, 7u, 0xbfd152459398fbb8ULL, 0xbfebaabafaf00a8aULL,
       0x4034000000000000ULL, 0x2cbca784f9902585ULL},
      {3, 7, 42u, 0x3fec45ddf1dbce6cULL, 0x3fd8b58d06d9abe4ULL,
       0x4045000000000000ULL, 0x1e773daca7c708f9ULL},
      {8, 64, 12345u, 0x3fb46bbc8d9c7510ULL, 0xbfa759955974fee0ULL,
       0x4090000000000000ULL, 0x0a13987aaa9a5affULL},
      {4, 33, 0xFFFFFFFFu, 0x3fed6bf16aefe12eULL, 0x3fe663d322bd80aaULL,
       0x4070800000000000ULL, 0xdcd6e194304ba7fbULL},
  };
  for (const kernels::Tier t : host_tiers()) {
    kernels::set_engine_tier(t);
    for (const Golden& g : cases) {
      SCOPED_TRACE(::testing::Message() << kernels::tier_name(t) << " tiles="
                                        << g.tiles << " nb=" << g.nb
                                        << " seed=" << g.seed);
      const TileMatrix m = TileMatrix::synthetic_spd(g.tiles, g.nb, g.seed);
      const std::size_t n =
          static_cast<std::size_t>(num_lower_tiles(g.tiles)) *
          static_cast<std::size_t>(g.nb) * static_cast<std::size_t>(g.nb);
      const double* p = m.tile(0);
      EXPECT_EQ(bits_of(p[1]), g.second);
      EXPECT_EQ(bits_of(p[n - 2]), g.next_to_last);
      EXPECT_EQ(bits_of(p[n - 1]), g.last);
      EXPECT_EQ(storage_checksum(m), g.checksum);
    }
  }
  kernels::reset_engine_tier();
}

// The AVX-512 fill against the scalar loop at every tail length (n mod 8 =
// 0..7, short and long), from states that wrap around 2^64 mid-stream;
// nothing past dst[n) may be written. The public fill at every host tier
// must agree too.
TEST(SyntheticSpd, VectorFillEqualsScalarAtEveryLength) {
  constexpr double kGuard = 12345.0;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 24; ++n) lengths.push_back(n);
  for (std::size_t n = 4096; n < 4104; ++n) lengths.push_back(n);
  for (const std::uint64_t state :
       {std::uint64_t{0}, std::uint64_t{0xbf58476d1ce4e5b9ULL},
        std::uint64_t{~0ULL - 3 * 0x9e3779b97f4a7c15ULL}}) {
    for (const std::size_t n : lengths) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " state=" << state);
      std::vector<double> want(n + 9, kGuard);
      kernels::detail::splitmix_fill_generic(want.data(), n, state);
      ASSERT_EQ(want[n], kGuard);
      if (kernels::native_tier() == kernels::Tier::kAvx512) {
        std::vector<double> got(n + 9, kGuard);
        kernels::detail::splitmix_fill_avx512(got.data(), n, state);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0);
      }
      for (const kernels::Tier t : host_tiers()) {
        kernels::set_engine_tier(t);
        std::vector<double> got(n + 9, kGuard);
        kernels::splitmix_fill(got.data(), n, state);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << kernels::tier_name(t);
      }
      kernels::reset_engine_tier();
    }
  }
}

// Refilling in place restores exactly what a fresh matrix holds, whatever
// the storage held before: a finished factor, or NaN everywhere.
TEST(SyntheticSpd, RefillOverwritesFactorsAndNaNs) {
  const int tiles = 5, nb = 33;
  for (const kernels::Tier t : host_tiers()) {
    kernels::set_engine_tier(t);
    SCOPED_TRACE(kernels::tier_name(t));
    TileMatrix m = TileMatrix::synthetic_spd(tiles, nb, 9);
    ASSERT_TRUE(tiled_cholesky_sequential(m));
    m.refill_synthetic_spd(9);
    EXPECT_EQ(storage_checksum(m),
              storage_checksum(TileMatrix::synthetic_spd(tiles, nb, 9)));
    const std::size_t per_tile =
        static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb);
    for (int h = 0; h < num_lower_tiles(tiles); ++h)
      std::fill_n(m.tile(h), per_tile,
                  std::numeric_limits<double>::quiet_NaN());
    m.refill_synthetic_spd(11);
    EXPECT_EQ(storage_checksum(m),
              storage_checksum(TileMatrix::synthetic_spd(tiles, nb, 11)));
  }
  kernels::reset_engine_tier();
}

}  // namespace
}  // namespace hetsched
