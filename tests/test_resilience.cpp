// Resilience tests (DESIGN.md "Resilience"): rotating restart series,
// run_guarded's re-run rung (serial and 8-rank parallel, with
// bitwise-identical recovered state), deadlock detection with per-rank
// blocked-site reports, rank-failure propagation, and hardening of the
// restart/analysis readers against missing, truncated and bit-flipped
// files.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "chem/mechanisms.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "resilience/fault.hpp"
#include "solver/checkpoint.hpp"
#include "solver/health.hpp"
#include "solver/solver.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace chem = s3d::chem;
namespace fault = s3d::fault;
namespace vmpi = s3d::vmpi;
namespace fs = std::filesystem;

namespace {

sv::Config small_cfg() {
  sv::Config cfg;
  static auto mech =
      std::make_shared<const chem::Mechanism>(chem::air_inert());
  cfg.mech = mech;
  cfg.x = {24, 0.01, true};
  cfg.y = {12, 0.01, true};
  cfg.z = {1, 1.0, false};
  for (int a = 0; a < 3; ++a)
    for (auto& f : cfg.faces[a]) f.kind = sv::BcKind::periodic;
  cfg.transport = sv::TransportModel::power_law;
  return cfg;
}

sv::Config cube_cfg() {
  // 16^3 over a 2x2x2 decomposition: 8^3 local boxes (>= 5 interior
  // points per split axis, the stencil floor).
  sv::Config cfg;
  static auto mech =
      std::make_shared<const chem::Mechanism>(chem::air_inert());
  cfg.mech = mech;
  cfg.x = {16, 0.01, true};
  cfg.y = {16, 0.01, true};
  cfg.z = {16, 0.01, true};
  for (int a = 0; a < 3; ++a)
    for (auto& f : cfg.faces[a]) f.kind = sv::BcKind::periodic;
  cfg.transport = sv::TransportModel::power_law;
  return cfg;
}

void wavy_init(double x, double y, double z, sv::InflowState& st, double& p) {
  st.u = 3.0 * std::sin(2 * 3.14159265358979 * x / 0.01);
  st.v = 1.0 * std::cos(2 * 3.14159265358979 * y / 0.01);
  st.w = 0.5 * std::sin(2 * 3.14159265358979 * z / 0.01);
  st.T = 300.0 + 8.0 * std::sin(2 * 3.14159265358979 * (x + y) / 0.01);
  st.Y.fill(0.0);
  st.Y[0] = 0.233;
  st.Y[1] = 0.767;
  p = 101325.0;
}

struct TmpDir {
  fs::path p;
  explicit TmpDir(const std::string& name)
      : p(fs::temp_directory_path() / name) {
    fs::remove_all(p);
    fs::create_directories(p);
  }
  ~TmpDir() {
    std::error_code ec;
    fs::remove_all(p, ec);
  }
  std::string str() const { return p.string(); }
};

struct FaultSession {
  explicit FaultSession(std::uint64_t seed = 2026) { fault::set_seed(seed); }
  ~FaultSession() { fault::reset(); }
};

std::uint64_t state_checksum(const sv::Solver& s) {
  s3d::Fnv1a64 h;
  const auto& l = s.layout();
  for (int v = 0; v < s.state().nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          h.update_value(s.state().at(v, i, j, k));
  h.update_value(s.time());
  const long steps = s.steps_taken();
  h.update_value(steps);
  return h.digest();
}

/// One rank's interior scattered into a global (v, k, j, i) array, so runs
/// on different decompositions compare cell by cell.
void scatter_interior(const sv::Solver& s, std::vector<double>& global) {
  const auto& l = s.layout();
  const auto off = s.offset();
  const std::size_t NX = s.mesh().nx(), NY = s.mesh().ny(),
                    NZ = s.mesh().nz();
  for (int v = 0; v < s.state().nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          global[((v * NZ + off[2] + k) * NY + off[1] + j) * NX + off[0] +
                 i] = s.state().at(v, i, j, k);
}

bool log_has(const std::vector<std::string>& log, const std::string& what) {
  return std::any_of(log.begin(), log.end(), [&](const std::string& e) {
    return e.find(what) != std::string::npos;
  });
}

void flip_byte(const std::string& path, std::size_t pos) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(pos));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(pos));
  f.put(static_cast<char>(c ^ 0x40));
}

}  // namespace

TEST(ResilienceSchedule, CheckpointBoundaries) {
  EXPECT_EQ(sv::checkpoint_schedule(10, 2),
            (std::vector<long>{2, 4, 6, 8, 10}));
  EXPECT_EQ(sv::checkpoint_schedule(10, 3), (std::vector<long>{3, 6, 9, 10}));
  EXPECT_EQ(sv::checkpoint_schedule(5, 0), (std::vector<long>{5}));
  EXPECT_EQ(sv::checkpoint_schedule(4, 10), (std::vector<long>{4}));
  EXPECT_TRUE(sv::checkpoint_schedule(0, 2).empty());
}

TEST(RestartSeries, RotatesAndPrunesGenerations) {
  TmpDir dir("s3dpp_series_rot");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::RestartSeries series(dir.str(), "ckpt", /*keep_last=*/3);
  for (long gen : {2, 4, 6, 8}) {
    s.run(2);
    series.write(s, gen);
  }
  EXPECT_EQ(series.generations(), (std::vector<long>{8, 6, 4}));
  EXPECT_FALSE(fs::exists(series.path(2))) << "pruned generation lingers";
  EXPECT_TRUE(fs::exists(series.manifest_path()));

  sv::Solver b(cfg);
  b.initialize(wavy_init);
  std::vector<std::string> skipped;
  EXPECT_EQ(series.read_latest(b, &skipped), 8);
  EXPECT_TRUE(skipped.empty());
  EXPECT_EQ(b.steps_taken(), s.steps_taken());
  EXPECT_EQ(state_checksum(b), state_checksum(s));
}

TEST(RestartSeries, SkipsCorruptNewestGeneration) {
  TmpDir dir("s3dpp_series_skip");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::RestartSeries series(dir.str(), "ckpt", 3);
  s.run(2);
  series.write(s, 2);
  const auto want = state_checksum(s);
  s.run(2);
  series.write(s, 4);

  flip_byte(series.path(4), fs::file_size(series.path(4)) / 2);

  sv::Solver b(cfg);
  b.initialize(wavy_init);
  std::vector<std::string> skipped;
  EXPECT_EQ(series.read_latest(b, &skipped), 2);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_NE(skipped[0].find("gen 4"), std::string::npos) << skipped[0];
  EXPECT_NE(skipped[0].find("checksum"), std::string::npos) << skipped[0];
  EXPECT_EQ(state_checksum(b), want);
}

TEST(RestartSeries, SurvivesLostManifest) {
  TmpDir dir("s3dpp_series_scan");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);
  sv::RestartSeries series(dir.str(), "ckpt", 3);
  s.run(2);
  series.write(s, 2);
  s.run(2);
  series.write(s, 4);

  fs::remove(series.manifest_path());
  EXPECT_EQ(series.generations(), (std::vector<long>{4, 2}));

  sv::Solver b(cfg);
  b.initialize(wavy_init);
  EXPECT_EQ(series.read_latest(b), 4);
  EXPECT_EQ(state_checksum(b), state_checksum(s));
}

TEST(RestartSeries, EmptyDirectoryReportsNoGeneration) {
  TmpDir dir("s3dpp_series_empty");
  sv::RestartSeries series(dir.str(), "ckpt", 3);
  EXPECT_TRUE(series.generations().empty());
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);
  EXPECT_EQ(series.read_latest(s), -1);
}

TEST(RestartHardening, MissingFilesThrowDescriptiveErrors) {
  const std::string path =
      (fs::temp_directory_path() / "s3dpp_no_such_restart.rst").string();
  fs::remove(path);
  try {
    sv::restart_time(path);
    FAIL() << "restart_time on a missing file did not throw";
  } catch (const s3d::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("missing or unreadable"),
              std::string::npos)
        << e.what();
  }

  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);
  try {
    sv::read_restart(path, s);
    FAIL() << "read_restart on a missing file did not throw";
  } catch (const s3d::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(RestartHardening, CorruptionErrorNamesPathAndChecksums) {
  TmpDir dir("s3dpp_restart_diag");
  const std::string path = (dir.p / "r.rst").string();
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);
  s.run(2);
  sv::write_restart(path, s);
  flip_byte(path, fs::file_size(path) / 2);

  sv::Solver b(cfg);
  b.initialize(wavy_init);
  try {
    sv::read_restart(path, b);
    FAIL() << "corrupted restart loaded silently";
  } catch (const s3d::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("stored="), std::string::npos) << what;
    EXPECT_NE(what.find("computed="), std::string::npos) << what;
  }
}

TEST(AnalysisHardening, MutatedFilesNeverLoadSilently) {
  // Property test: an analysis file with any single byte flipped, a
  // truncated tail, or zero length must raise a typed error -- never
  // crash, hang, or return partial data.
  TmpDir dir("s3dpp_analysis_prop");
  const std::string path = (dir.p / "a.bin").string();
  sv::AnalysisFile a;
  a.add_profile("T_centerline", {0, 1, 2, 3}, {300, 400, 500, 600});
  a.add_slice("T_xy", 3, 2, {1, 2, 3, 4, 5, 6});
  a.write(path);
  const auto clean = [&] {
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  }();
  ASSERT_GT(clean.size(), 32u);

  s3d::Rng rng(0xbadf00d);
  std::vector<std::size_t> positions = {0, clean.size() / 2,
                                        clean.size() - 1};
  for (int i = 0; i < 12; ++i)
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(clean.size()) - 1)));
  for (const auto pos : positions) {
    std::string bad = clean;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_THROW(sv::AnalysisFile::read(path), s3d::Error)
        << "flipped byte at " << pos << " loaded silently";
  }

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, clean.size() / 3, clean.size() - 5}) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(clean.data(), static_cast<std::streamsize>(keep));
    f.close();
    EXPECT_THROW(sv::AnalysisFile::read(path), s3d::Error)
        << "truncated to " << keep << " bytes loaded silently";
  }

  fs::remove(path);
  EXPECT_THROW(sv::AnalysisFile::read(path), s3d::Error);
}

#ifndef S3D_FAULTS_DISABLED

TEST(RunResilient, SerialRecoveryIsBitwiseIdentical) {
  auto cfg = small_cfg();
  sv::GuardOptions opts;
  opts.health.enabled = false;  // the bare step loop (== Solver::run)
  opts.checkpoint_every = 2;
  opts.keep_last = 3;
  opts.max_attempts = 3;

  TmpDir ref_dir("s3dpp_resil_ref");
  opts.dir = ref_dir.str();
  fault::reset();
  sv::Solver ref(cfg);
  const auto ref_rep = sv::run_guarded(ref, wavy_init, 10, opts);
  ASSERT_TRUE(ref_rep.completed);
  EXPECT_EQ(ref_rep.attempts, 1);
  EXPECT_EQ(ref_rep.final_steps, 10);

  // Kill step 7 (call index 6): after generation 6 lands, mid chunk 6->8.
  TmpDir dir("s3dpp_resil_run");
  opts.dir = dir.str();
  FaultSession fsess(11);
  fault::arm({.site = "solver.step", .kind = fault::Kind::fail, .nth = 6});
  sv::Solver s(cfg);
  const auto rep = sv::run_guarded(s, wavy_init, 10, opts);
  ASSERT_TRUE(rep.completed) << (rep.log.empty() ? "" : rep.log.back());
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(rep.recoveries, 1);
  EXPECT_EQ(fault::fires_at("solver.step"), 1);

  EXPECT_EQ(s.steps_taken(), ref.steps_taken());
  EXPECT_EQ(s.time(), ref.time());
  EXPECT_EQ(state_checksum(s), state_checksum(ref))
      << "recovered run diverged from the fault-free run";
}

TEST(RunResilient, SerialRecoverySkipsCorruptedGeneration) {
  auto cfg = small_cfg();
  sv::GuardOptions opts;
  opts.health.enabled = false;  // the bare step loop (== Solver::run)
  opts.checkpoint_every = 2;
  opts.max_attempts = 3;

  TmpDir ref_dir("s3dpp_resil_cref");
  opts.dir = ref_dir.str();
  fault::reset();
  sv::Solver ref(cfg);
  ASSERT_TRUE(sv::run_guarded(ref, wavy_init, 10, opts).completed);

  // Generation 4 (checkpoint.write call 1) lands corrupted; step 6 (call
  // index 5, mid chunk 4->6) dies. Recovery must reject gen 4 and roll
  // back to gen 2.
  TmpDir dir("s3dpp_resil_crun");
  opts.dir = dir.str();
  FaultSession fsess(12);
  fault::arm(
      {.site = "checkpoint.write", .kind = fault::Kind::corrupt, .nth = 1});
  fault::arm({.site = "solver.step", .kind = fault::Kind::fail, .nth = 5});
  sv::Solver s(cfg);
  const auto rep = sv::run_guarded(s, wavy_init, 10, opts);
  ASSERT_TRUE(rep.completed) << (rep.log.empty() ? "" : rep.log.back());
  EXPECT_EQ(rep.recoveries, 1);
  bool saw_skip = false;
  for (const auto& e : rep.log)
    if (e.find("skipped") != std::string::npos &&
        e.find("gen 4") != std::string::npos)
      saw_skip = true;
  EXPECT_TRUE(saw_skip) << "no skipped-generation event recorded";
  EXPECT_EQ(state_checksum(s), state_checksum(ref));
}

TEST(RunResilient, ExhaustedBudgetReportsFailure) {
  auto cfg = small_cfg();
  TmpDir dir("s3dpp_resil_budget");
  sv::GuardOptions opts;
  opts.health.enabled = false;  // the bare step loop (== Solver::run)
  opts.dir = dir.str();
  opts.checkpoint_every = 2;
  opts.max_attempts = 2;

  FaultSession fsess(13);
  // Every step fails, forever: the budget must bound the retries.
  fault::arm({.site = "solver.step",
              .kind = fault::Kind::fail,
              .nth = -1,
              .probability = 1.0,
              .max_fires = -1});
  sv::Solver s(cfg);
  const auto rep = sv::run_guarded(s, wavy_init, 10, opts);
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.attempts, 2);
  ASSERT_FALSE(rep.log.empty());
  EXPECT_NE(rep.log.back().find("attempt budget exhausted"),
            std::string::npos);
}

TEST(RunResilient, WriteBehindRecoveryIsBitwiseIdentical) {
  // The delta store's write-behind persister must not change recovery
  // semantics: same fault schedule as SerialRecoveryIsBitwiseIdentical,
  // but generations are block deltas persisted off the step path.
  auto cfg = small_cfg();
  sv::GuardOptions opts;
  opts.health.enabled = false;  // the bare step loop (== Solver::run)
  opts.checkpoint_every = 2;
  opts.keep_last = 3;
  opts.max_attempts = 3;
  sv::CkptOptions wb;
  wb.delta = true;
  wb.base_every = 3;
  wb.write_behind = true;
  wb.queue_depth = 2;
  opts.ckpt = wb;

  TmpDir ref_dir("s3dpp_resil_wbref");
  opts.dir = ref_dir.str();
  fault::reset();
  sv::Solver ref(cfg);
  const auto ref_rep = sv::run_guarded(ref, wavy_init, 10, opts);
  ASSERT_TRUE(ref_rep.completed);
  EXPECT_EQ(ref_rep.attempts, 1);

  TmpDir dir("s3dpp_resil_wbrun");
  opts.dir = dir.str();
  FaultSession fsess(11);
  fault::arm({.site = "solver.step", .kind = fault::Kind::fail, .nth = 6});
  sv::Solver s(cfg);
  const auto rep = sv::run_guarded(s, wavy_init, 10, opts);
  ASSERT_TRUE(rep.completed) << (rep.log.empty() ? "" : rep.log.back());
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(rep.recoveries, 1);

  EXPECT_EQ(s.steps_taken(), ref.steps_taken());
  EXPECT_EQ(state_checksum(s), state_checksum(ref))
      << "write-behind recovery diverged from the fault-free run";
}

TEST(RunResilient, KillMidPersistRecoversFromPriorGeneration) {
  // Crash consistency under the driver: generation 4's write-behind
  // persist dies (retry budget 0), then the run itself dies mid-chunk.
  // Recovery must skip the never-persisted gen 4 via its validity bit --
  // silently, O(1), no skipped-generation event -- restore gen 2, and
  // finish bitwise identical to the fault-free run.
  auto cfg = small_cfg();
  sv::GuardOptions opts;
  opts.health.enabled = false;  // the bare step loop (== Solver::run)
  opts.checkpoint_every = 2;
  opts.keep_last = 3;
  opts.max_attempts = 3;
  sv::CkptOptions wb;
  wb.delta = true;
  wb.base_every = 2;
  wb.write_behind = true;
  wb.persist_retries = 0;
  wb.backoff_ms = 0.01;
  wb.backoff_cap_ms = 0.02;
  opts.ckpt = wb;

  TmpDir ref_dir("s3dpp_resil_kpref");
  opts.dir = ref_dir.str();
  fault::reset();
  sv::Solver ref(cfg);
  ASSERT_TRUE(sv::run_guarded(ref, wavy_init, 10, opts).completed);

  TmpDir dir("s3dpp_resil_kprun");
  opts.dir = dir.str();
  FaultSession fsess(14);
  // Persist call 1 = generation 4 (call 0 persisted gen 2); step call 5
  // = step 6, mid chunk 4->6, so the newest table entry at recovery time
  // is the unpersisted gen 4.
  fault::arm({.site = "checkpoint.persist",
              .kind = fault::Kind::fail,
              .nth = 1,
              .max_fires = 1});
  fault::arm({.site = "solver.step", .kind = fault::Kind::fail, .nth = 5});
  sv::Solver s(cfg);
  const auto rep = sv::run_guarded(s, wavy_init, 10, opts);
  ASSERT_TRUE(rep.completed) << (rep.log.empty() ? "" : rep.log.back());
  EXPECT_EQ(rep.recoveries, 1);
  EXPECT_EQ(fault::fires_at("checkpoint.persist"), 1);
  EXPECT_EQ(fault::fires_at("solver.step"), 1);

  bool restored2 = false;
  for (const auto& e : rep.log) {
    EXPECT_EQ(e.find("skipped"), std::string::npos)
        << "validity-bit skip should be silent, got: " << e;
    if (e.find("restored generation 2") != std::string::npos) restored2 = true;
  }
  EXPECT_TRUE(restored2) << "recovery did not land on generation 2";
  EXPECT_EQ(state_checksum(s), state_checksum(ref));
}

TEST(RunResilient, GoldenParallelRecoveryIsBitwiseIdentical) {
  // The acceptance scenario: an 8-rank seeded run with an injected
  // checkpoint corruption on rank 2 and an injected rank-1 failure must
  // recover through run_guarded's re-run rung with final per-rank field
  // checksums
  // bitwise identical to the fault-free run.
  auto cfg = cube_cfg();
  sv::GuardOptions opts;
  opts.health.enabled = false;  // the bare step loop (== Solver::run)
  opts.checkpoint_every = 2;
  opts.keep_last = 3;
  opts.max_attempts = 4;

  std::vector<std::uint64_t> sums(8, 0);
  const auto finalize = [&sums](sv::Solver& s, vmpi::Comm& comm) {
    sums[comm.rank()] = state_checksum(s);
  };

  TmpDir ref_dir("s3dpp_resil_pref");
  opts.dir = ref_dir.str();
  fault::reset();
  const auto ref_rep =
      sv::run_guarded(cfg, wavy_init, 10, opts, 2, 2, 2, finalize);
  ASSERT_TRUE(ref_rep.completed);
  EXPECT_EQ(ref_rep.attempts, 1);
  const auto ref_sums = sums;

  // Rank 2's second checkpoint (generation 4) lands corrupted; rank 1
  // dies at its step 5 (call index 4), after gen 4 is on disk. Recovery
  // must reject gen 4 collectively and roll every rank back to gen 2.
  TmpDir dir("s3dpp_resil_prun");
  opts.dir = dir.str();
  FaultSession fsess(2026);
  fault::arm({.site = "checkpoint.write",
              .kind = fault::Kind::corrupt,
              .nth = 1,
              .rank = 2});
  fault::arm({.site = "solver.step",
              .kind = fault::Kind::fail,
              .nth = 4,
              .rank = 1});
  std::fill(sums.begin(), sums.end(), 0);
  const auto rep =
      sv::run_guarded(cfg, wavy_init, 10, opts, 2, 2, 2, finalize);
  ASSERT_TRUE(rep.completed) << (rep.log.empty() ? "" : rep.log.back());
  EXPECT_EQ(rep.recoveries, 1);
  EXPECT_EQ(fault::fires_at("solver.step"), 1);
  EXPECT_EQ(fault::fires_at("checkpoint.write"), 1);
  bool saw_skip = false;
  for (const auto& e : rep.log)
    if (e.find("rank 2") != std::string::npos &&
        e.find("gen 4") != std::string::npos)
      saw_skip = true;
  EXPECT_TRUE(saw_skip) << "rank 2's corrupted generation was not reported";

  for (int r = 0; r < 8; ++r)
    EXPECT_EQ(sums[r], ref_sums[r])
        << "rank " << r << " state diverged after recovery";
}

TEST(RunResilient, InjectedIsendFaultIsAbsorbed) {
  // A transient communication failure inside halo exchange surfaces as a
  // thrown InjectedFault on one rank; the driver retries and converges.
  auto cfg = cube_cfg();
  sv::GuardOptions opts;
  opts.health.enabled = false;  // the bare step loop (== Solver::run)
  opts.checkpoint_every = 2;
  opts.max_attempts = 4;

  std::vector<std::uint64_t> sums(8, 0);
  const auto finalize = [&sums](sv::Solver& s, vmpi::Comm& comm) {
    sums[comm.rank()] = state_checksum(s);
  };

  TmpDir ref_dir("s3dpp_resil_iref");
  opts.dir = ref_dir.str();
  fault::reset();
  ASSERT_TRUE(
      sv::run_guarded(cfg, wavy_init, 6, opts, 2, 2, 2, finalize).completed);
  const auto ref_sums = sums;

  TmpDir dir("s3dpp_resil_irun");
  opts.dir = dir.str();
  FaultSession fsess(31);
  fault::arm({.site = "vmpi.isend",
              .kind = fault::Kind::fail,
              .nth = 40,
              .rank = 3});
  std::fill(sums.begin(), sums.end(), 0);
  const auto rep = sv::run_guarded(cfg, wavy_init, 6, opts, 2, 2, 2, finalize);
  ASSERT_TRUE(rep.completed) << (rep.log.empty() ? "" : rep.log.back());
  EXPECT_GE(rep.recoveries, 1);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(sums[r], ref_sums[r]) << "rank " << r;
}

TEST(RecoveryDriver, LadderAndRerunInOneParallelRun) {
  // Both recovery paths in one 2-rank guarded run. Two corruptions of
  // step 5 on rank 0 drain a depth-1 ring to rung 4 (the generation the
  // driver wrote at step 4); then rank 1 dies at step 6, so the run
  // consumes one re-run attempt, which restores generation 4 on both
  // ranks with a fresh guard. The final state must be the clean run's.
  auto cfg = small_cfg();
  sv::GuardOptions opts;
  opts.ring_depth = 1;
  opts.retries_per_snapshot = 1;
  opts.checkpoint_every = 4;
  opts.max_attempts = 3;

  std::vector<std::uint64_t> sums(2, 0);
  const auto finalize = [&sums](sv::Solver& s, vmpi::Comm& comm) {
    sums[comm.rank()] = state_checksum(s);
  };

  TmpDir ref_dir("s3dpp_both_ref");
  opts.dir = ref_dir.str();
  fault::reset();
  const auto ref_rep =
      sv::run_guarded(cfg, wavy_init, 12, opts, 2, 1, 1, finalize);
  ASSERT_TRUE(ref_rep.completed);
  EXPECT_EQ(ref_rep.attempts, 1);
  EXPECT_EQ(ref_rep.rollbacks, 0);
  const auto ref_sums = sums;

  TmpDir dir("s3dpp_both_run");
  opts.dir = dir.str();
  FaultSession fsess(41);
  for (const long nth : {4L, 5L})  // scans 4 and 5: step 5, twice
    fault::arm({.site = "solver.health",
                .kind = fault::Kind::corrupt,
                .nth = nth,
                .rank = 0,
                .max_fires = 1});
  // Step calls on rank 1: 0-3 reach step 4, 4-6 are the three tries of
  // step 5, call 7 is step 6.
  fault::arm({.site = "solver.step",
              .kind = fault::Kind::fail,
              .nth = 7,
              .rank = 1});
  std::fill(sums.begin(), sums.end(), 0);
  const auto rep = sv::run_guarded(cfg, wavy_init, 12, opts, 2, 1, 1, finalize);
  ASSERT_TRUE(rep.completed) << (rep.log.empty() ? "" : rep.log.back());
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(rep.recoveries, 1);
  EXPECT_EQ(rep.rollbacks, 2);
  EXPECT_EQ(rep.series_restores, 1);
  ASSERT_EQ(rep.events.size(), 2u);
  EXPECT_EQ(rep.events[0].rung, 3);
  EXPECT_EQ(rep.events[1].rung, 4);
  EXPECT_EQ(rep.events[1].rolled_back_to, 4);
  EXPECT_EQ(fault::fires_at("solver.health"), 2);
  EXPECT_EQ(fault::fires_at("solver.step"), 1);
  EXPECT_TRUE(log_has(rep.log, "restored generation 4"));
  EXPECT_EQ(rep.final_steps, 12);
  for (int r = 0; r < 2; ++r)
    EXPECT_EQ(sums[r], ref_sums[r])
        << "rank " << r << " state diverged after recovery";
}

#endif  // S3D_FAULTS_DISABLED

TEST(RecoveryDriver, ResumePastTargetStopsAtTarget) {
  // A directory holding a longer run (generations 4, 8, 12) must not
  // carry a 10-step request past step 10: the serial and the 2-rank
  // driver both restore generation 8, finish the last chunk, and land
  // bitwise on a clean 10-step run — and on each other.
  auto cfg = small_cfg();
  sv::GuardOptions opts;
  opts.checkpoint_every = 4;
  const std::size_t npts = static_cast<std::size_t>(
      sv::n_conserved(cfg.mech->n_species()) * cfg.x.n * cfg.y.n * cfg.z.n);

  TmpDir ref_dir("s3dpp_resume_ref"), dir("s3dpp_resume_run");
  opts.dir = ref_dir.str();
  sv::Solver ref(cfg);
  ASSERT_TRUE(sv::run_guarded(ref, wavy_init, 10, opts).completed);
  opts.dir = dir.str();
  {
    sv::Solver longer(cfg);
    ASSERT_TRUE(sv::run_guarded(longer, wavy_init, 12, opts).completed);
  }
  sv::Solver s(cfg);
  const auto rep = sv::run_guarded(s, wavy_init, 10, opts);
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(rep.final_steps, 10);
  EXPECT_EQ(s.steps_taken(), 10);
  EXPECT_TRUE(log_has(rep.log, "restored generation 8"));
  EXPECT_EQ(state_checksum(s), state_checksum(ref));
  std::vector<double> serial(npts);
  scatter_interior(s, serial);

  std::vector<std::uint64_t> sums(2, 0);
  std::vector<int> steps(2, 0);
  std::vector<double> global(npts);
  const auto finalize = [&](sv::Solver& ps, vmpi::Comm& comm) {
    sums[comm.rank()] = state_checksum(ps);
    steps[comm.rank()] = ps.steps_taken();
    scatter_interior(ps, global);
  };
  TmpDir pref_dir("s3dpp_resume_pref"), pdir("s3dpp_resume_prun");
  opts.dir = pref_dir.str();
  ASSERT_TRUE(
      sv::run_guarded(cfg, wavy_init, 10, opts, 2, 1, 1, finalize).completed);
  const auto ref_sums = sums;
  opts.dir = pdir.str();
  ASSERT_TRUE(sv::run_guarded(cfg, wavy_init, 12, opts, 2, 1, 1).completed);
  std::fill(global.begin(), global.end(), 0.0);
  const auto prep = sv::run_guarded(cfg, wavy_init, 10, opts, 2, 1, 1, finalize);
  ASSERT_TRUE(prep.completed);
  EXPECT_EQ(prep.final_steps, 10);
  EXPECT_TRUE(log_has(prep.log, "restored generation 8"));
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(steps[r], 10) << "rank " << r;
    EXPECT_EQ(sums[r], ref_sums[r]) << "rank " << r;
  }
  EXPECT_TRUE(global == serial)
      << "2-rank resume diverged from the serial resume";
}

TEST(Watchdog, DeadlockReportNamesEveryBlockedSite) {
  // Rank 0 waits on a message rank 1 never sends while everyone else sits
  // in a barrier: a genuine deadlock the watchdog must turn into a typed
  // report instead of a hang.
  vmpi::RunOptions opts;
  opts.watchdog_s = 0.25;
  try {
    vmpi::run(
        4,
        [](vmpi::Comm& c) {
          if (c.rank() == 0) {
            double buf[1];
            auto r = c.irecv(1, 7, buf);
            c.wait(r);
          } else {
            c.barrier();
          }
        },
        opts);
    FAIL() << "deadlocked run returned";
  } catch (const vmpi::DeadlockError& e) {
    ASSERT_EQ(e.blocked().size(), 4u);
    for (const auto& b : e.blocked()) {
      if (b.rank == 0)
        EXPECT_EQ(b.site, "irecv(src=1, tag=7)");
      else
        EXPECT_EQ(b.site, "barrier") << "rank " << b.rank;
      EXPECT_NE(std::string(e.what()).find("rank " + std::to_string(b.rank)),
                std::string::npos);
    }
  }
}

TEST(Watchdog, HealthyRunsAreNotFlagged) {
  // Slow-but-progressing communication must never trip the watchdog:
  // progress resets the clock even when each individual wait is long.
  vmpi::RunOptions opts;
  opts.watchdog_s = 0.2;
  vmpi::run(
      4,
      [](vmpi::Comm& c) {
        for (int round = 0; round < 3; ++round) {
          if (c.rank() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(120));
          c.barrier();
          double v = c.allreduce_sum(1.0);
          ASSERT_EQ(v, 4.0);
        }
      },
      opts);
}

TEST(Watchdog, RankFailureUnblocksPeersAndRethrowsOriginal) {
  vmpi::RunOptions opts;
  opts.watchdog_s = 5.0;
  try {
    vmpi::run(
        4,
        [](vmpi::Comm& c) {
          if (c.rank() == 2) throw s3d::Error("organic failure on rank 2");
          c.barrier();  // would hang forever without failure propagation
        },
        opts);
    FAIL() << "failing run returned";
  } catch (const s3d::Error& e) {
    EXPECT_NE(std::string(e.what()).find("organic failure on rank 2"),
              std::string::npos)
        << "original error not rethrown: " << e.what();
  }
}
