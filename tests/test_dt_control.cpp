// Per-block dt controller suite (ctest -L health / -L adaptive): the
// BlockMap global tiling and its local projections, the PI controller's
// shrink/regrow/clamp behaviour, tripwire feedback, subcycle counts, and
// the AdaptiveOptions::validate() property checks over malformed knobs
// (DESIGN.md §13).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chem/mechanisms.hpp"
#include "solver/config.hpp"
#include "solver/dt_control.hpp"
#include "solver/health.hpp"

namespace sv = s3d::solver;

namespace {

/// A serial box: layout == global interior, zero offset.
sv::Layout box_layout(int nx, int ny, int nz) {
  return sv::Layout::make(nx, ny, nz);
}

sv::BlockMap cube_map(int N, int block) {
  return sv::BlockMap(N, N, N, block, box_layout(N, N, N), {0, 0, 0});
}

sv::AdaptiveOptions opts_on() {
  sv::AdaptiveOptions ad;
  ad.enabled = true;
  return ad;
}

}  // namespace

// ---------------------------------------------------------------------------
// BlockMap: the global tiling and its local projections.

TEST(BlockMap, TilesGlobalInterior) {
  const auto m = cube_map(16, 8);
  EXPECT_EQ(m.nbx(), 2);
  EXPECT_EQ(m.nby(), 2);
  EXPECT_EQ(m.nbz(), 2);
  EXPECT_EQ(m.n_blocks(), 8);
  EXPECT_EQ(m.block_of_global(0, 0, 0), 0);
  EXPECT_EQ(m.block_of_global(15, 0, 0), 1);
  EXPECT_EQ(m.block_of_global(0, 8, 0), 2);
  EXPECT_EQ(m.block_of_global(0, 0, 8), 4);
  EXPECT_EQ(m.block_of_global(15, 15, 15), 7);
  // Uneven edge blocks: 20 cells at block 8 -> tiles of 8, 8, 4.
  const auto u = cube_map(20, 8);
  EXPECT_EQ(u.nbx(), 3);
  EXPECT_EQ(u.block_cells(0), 8L * 8 * 8);
  EXPECT_EQ(u.block_cells(2), 4L * 8 * 8);       // thin x edge
  EXPECT_EQ(u.block_cells(u.n_blocks() - 1), 4L * 4 * 4);  // corner
}

TEST(BlockMap, VisitRowsCoversEveryCellOnce) {
  const int N = 12, B = 5;  // deliberately non-divisible
  const auto m = cube_map(N, B);
  const auto l = box_layout(N, N, N);
  std::vector<int> owner(static_cast<std::size_t>(N) * N * N, -1);
  m.visit_rows([&](int b, const sv::RowRange& seg) {
    for (int i = 0; i < seg.count; ++i) {
      const std::size_t cell =
          static_cast<std::size_t>(seg.i0 + i) +
          static_cast<std::size_t>(N) * (seg.j + static_cast<std::size_t>(N) * seg.k);
      ASSERT_EQ(owner[cell], -1) << "cell visited twice";
      owner[cell] = b;
      // The segment's n0 must be the layout address of its first cell.
      if (i == 0) {
        EXPECT_EQ(seg.n0, l.at(seg.i0, seg.j, seg.k));
      }
    }
  });
  for (int k = 0; k < N; ++k)
    for (int j = 0; j < N; ++j)
      for (int i = 0; i < N; ++i) {
        const std::size_t cell =
            static_cast<std::size_t>(i) +
            static_cast<std::size_t>(N) * (j + static_cast<std::size_t>(N) * k);
        ASSERT_EQ(owner[cell], m.block_of_global(i, j, k));
      }
}

TEST(BlockMap, SegmentsSelectAndMerge) {
  const auto m = cube_map(16, 8);
  // One block: each of its 8x8 rows is one 8-cell segment.
  const std::vector<int> one{0};
  long cells = 0;
  for (const auto& seg : m.segments(one)) {
    EXPECT_EQ(seg.count, 8);
    EXPECT_EQ(seg.i0, 0);
    EXPECT_LT(seg.j, 8);
    EXPECT_LT(seg.k, 8);
    cells += seg.count;
  }
  EXPECT_EQ(cells, 8L * 8 * 8);
  // Two x-adjacent blocks merge into full 16-cell rows.
  const std::vector<int> pair{0, 1};
  for (const auto& seg : m.segments(pair)) EXPECT_EQ(seg.count, 16);
  // Duplicates and out-of-range ids are tolerated.
  const std::vector<int> messy{0, 0, -3, 99, 1};
  EXPECT_EQ(m.segments(messy).size(), m.segments(pair).size());
  // Empty selection: empty list (a rank owning none still participates).
  EXPECT_TRUE(m.segments(std::vector<int>{}).empty());
}

TEST(BlockMap, WidenAddsFaceNeighbors) {
  const auto m = cube_map(24, 8);  // 3x3x3 blocks
  // Center block 13 has all 6 face neighbors.
  const auto c = m.widen(std::vector<int>{13});
  EXPECT_EQ(c.size(), 7u);
  EXPECT_TRUE(std::set<int>(c.begin(), c.end()).count(13));
  // Corner block 0 is clamped to 3 neighbors + itself.
  const auto k = m.widen(std::vector<int>{0});
  EXPECT_EQ(k, (std::vector<int>{0, 1, 3, 9}));
  // Widening two adjacent blocks deduplicates the shared neighbors.
  const auto two = m.widen(std::vector<int>{0, 1});
  const std::set<int> s(two.begin(), two.end());
  EXPECT_EQ(two.size(), s.size()) << "widen must deduplicate";
}

// ---------------------------------------------------------------------------
// DtController: PI behaviour.

TEST(DtController, ShrinksOnErrorGrowsBackWhenClean) {
  const auto m = cube_map(16, 8);
  sv::DtController c(m, opts_on());
  for (int b = 0; b < c.n_blocks(); ++b) EXPECT_DOUBLE_EQ(c.ratio(b), 1.0);
  EXPECT_TRUE(c.stiff().empty());

  // One block far above tolerance: only it shrinks and turns stiff.
  std::vector<double> err(8, 1e-3);  // others: well below tolerance
  err[3] = 50.0;
  c.observe(err, nullptr);
  EXPECT_LT(c.ratio(3), 1.0);
  EXPECT_EQ(c.stiff(), std::vector<int>{3});
  EXPECT_GT(c.subcycles(3), 1);
  EXPECT_EQ(c.max_subcycles(), c.subcycles(3));

  // Sustained clean observations relax it back to the ceiling.
  std::fill(err.begin(), err.end(), 1e-3);
  for (int n = 0; n < 50; ++n) c.observe(err, nullptr);
  EXPECT_DOUBLE_EQ(c.ratio(3), 1.0);
  EXPECT_TRUE(c.stiff().empty());
}

TEST(DtController, PerUpdateAndAbsoluteClamps) {
  const auto m = cube_map(16, 8);
  auto ad = opts_on();
  ad.dt_min_ratio = 0.125;
  sv::DtController c(m, ad);
  // A single catastrophic observation shrinks by at most the per-update
  // factor clamp (1/5), never straight to the floor.
  std::vector<double> err(8, 1e30);
  c.observe(err, nullptr);
  EXPECT_DOUBLE_EQ(c.ratio(0), 0.2);
  // Sustained catastrophe bottoms out exactly at dt_min_ratio.
  for (int n = 0; n < 20; ++n) c.observe(err, nullptr);
  for (int b = 0; b < 8; ++b) EXPECT_DOUBLE_EQ(c.ratio(b), ad.dt_min_ratio);
  EXPECT_DOUBLE_EQ(c.min_ratio(), ad.dt_min_ratio);
  // Subcycle count is ceil(1/ratio) capped by subcycle_cap.
  EXPECT_EQ(c.subcycles(0), 8);
  auto ad2 = opts_on();
  ad2.dt_min_ratio = 1e-6;
  ad2.subcycle_cap = 10;
  sv::DtController c2(m, ad2);
  for (int n = 0; n < 200; ++n) c2.observe(err, nullptr);
  EXPECT_EQ(c2.subcycles(0), 10) << "subcycle count must honor the cap";
}

TEST(DtController, NonFiniteErrorIsSanitizedNotAbsorbed) {
  const auto m = cube_map(16, 8);
  sv::DtController c(m, opts_on());
  std::vector<double> err(8, 1e-3);
  err[5] = std::numeric_limits<double>::quiet_NaN();
  err[6] = std::numeric_limits<double>::infinity();
  c.observe(err, nullptr);
  // NaN/Inf estimates mean "this block blew up": the ratio must shrink
  // like a huge-but-finite error, and stay a usable number.
  for (int b = 0; b < 8; ++b) ASSERT_TRUE(std::isfinite(c.ratio(b)));
  EXPECT_LT(c.ratio(5), 1.0);
  EXPECT_LT(c.ratio(6), 1.0);
  // And the controller keeps working afterwards.
  std::fill(err.begin(), err.end(), 1e-3);
  for (int n = 0; n < 50; ++n) c.observe(err, nullptr);
  EXPECT_DOUBLE_EQ(c.ratio(5), 1.0);
}

TEST(DtController, ForceFloorPinsBlockAndStiffensIt) {
  const auto m = cube_map(16, 8);
  sv::DtController c(m, opts_on());
  c.force_floor(2);
  EXPECT_DOUBLE_EQ(c.ratio(2), opts_on().dt_min_ratio);
  EXPECT_EQ(c.stiff(), std::vector<int>{2});
  // Regrowth is earned: one clean observation cannot restore the
  // ceiling (err_prev was reset to "very bad").
  std::vector<double> err(8, 1e-3);
  c.observe(err, nullptr);
  EXPECT_LT(c.ratio(2), 1.0);
  EXPECT_THROW(c.force_floor(-1), s3d::Error);
  EXPECT_THROW(c.force_floor(8), s3d::Error);
}

TEST(DtController, CflClampFlagsSlowBlocks) {
  const auto m = cube_map(16, 8);
  auto ad = opts_on();
  ad.cfl_clamp = true;
  sv::DtController c(m, ad);
  std::vector<double> bdt(8, 1e300);  // "owns no cell" sentinel
  bdt[1] = 2.5e-7;                    // this block's own stable dt
  c.clamp_stable(bdt, 1e-6, nullptr); // global step 4x its stable dt
  EXPECT_DOUBLE_EQ(c.ratio(1), 0.25);
  EXPECT_EQ(c.stiff(), std::vector<int>{1});
  // Sentinel-valued blocks are untouched.
  EXPECT_DOUBLE_EQ(c.ratio(0), 1.0);
}

// ---------------------------------------------------------------------------
// Satellite: AdaptiveOptions::validate() property checks.

TEST(AdaptiveValidate, AcceptsDefaultsAndRejectsMalformed) {
  sv::AdaptiveOptions ok;
  EXPECT_NO_THROW(ok.validate("adaptive"));

  using Mut = std::function<void(sv::AdaptiveOptions&)>;
  struct Case {
    const char* field;
    Mut mutate;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Case> cases = {
      {"block", [](auto& a) { a.block = 0; }},
      {"block", [](auto& a) { a.block = -8; }},
      {"atol", [](auto& a) { a.atol = 0.0; }},
      {"atol", [=](auto& a) { a.atol = nan; }},
      {"rtol", [](auto& a) { a.rtol = -1e-4; }},
      {"rtol", [](auto& a) {
         a.rtol = std::numeric_limits<double>::infinity();
       }},
      {"kI", [](auto& a) { a.kI = 0.0; }},
      {"kI", [=](auto& a) { a.kI = nan; }},
      {"kP", [](auto& a) { a.kP = -0.1; }},
      {"safety", [](auto& a) { a.safety = 0.0; }},
      {"safety", [](auto& a) { a.safety = 1.5; }},
      {"dt_min_ratio", [](auto& a) { a.dt_min_ratio = 0.0; }},
      {"dt_min_ratio", [](auto& a) { a.dt_min_ratio = 2.0; }},
      {"dt_max_ratio", [](auto& a) {
         a.dt_min_ratio = 0.5;
         a.dt_max_ratio = 0.25;  // below the floor
       }},
      {"dt_max_ratio", [](auto& a) { a.dt_max_ratio = 4.0; }},
      {"subcycle_cap", [](auto& a) { a.subcycle_cap = 0; }},
      {"max_subcycle_retries", [](auto& a) { a.max_subcycle_retries = -1; }},
      {"max_local_rollbacks", [](auto& a) { a.max_local_rollbacks = -2; }},
      {"dt_recover_after", [](auto& a) { a.dt_recover_after = -1; }},
  };
  for (const auto& c : cases) {
    sv::AdaptiveOptions a;
    c.mutate(a);
    try {
      a.validate("guard.adaptive");
      FAIL() << "malformed " << c.field << " accepted";
    } catch (const sv::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("guard.adaptive.") +
                                           c.field),
                std::string::npos)
          << "error must name the offending field: " << e.what();
    }
  }
}

TEST(AdaptiveValidate, ConfigValidateCoversAdaptiveKnobs) {
  // The knobs live in the driver options and are reachable through
  // GuardOptions::validate() with the "guard.adaptive." prefix, so a
  // malformed policy fails before the first step like any other field.
  sv::Config cfg;
  cfg.mech = std::make_shared<const s3d::chem::Mechanism>(
      s3d::chem::air_inert());
  cfg.x = {16, 0.01, true};
  cfg.y = {16, 0.01, true};
  cfg.z = {1, 1.0, false};
  for (int a = 0; a < 3; ++a)
    for (auto& f : cfg.faces[a]) f.kind = sv::BcKind::periodic;
  EXPECT_NO_THROW(cfg.validate());
  sv::GuardOptions opts;
  opts.adaptive.safety = -1.0;
  try {
    opts.validate();
    FAIL() << "GuardOptions::validate must reject malformed adaptive knobs";
  } catch (const sv::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("adaptive.safety"),
              std::string::npos)
        << e.what();
  }
}
