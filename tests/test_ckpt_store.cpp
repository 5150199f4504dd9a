// Delta checkpoint store tests (DESIGN.md §12): base/delta chains with
// bitwise restores, fold-on-prune across a pruned base, generation-table
// recovery with interleaved valid/invalid/missing generations, O(1)
// skip of known-invalid entries, write-behind persistence equivalence,
// crash-mid-persist consistency, the checkpoint.delta / checkpoint.persist
// fault sites, and the delta-backed snapshot ring.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chem/mechanisms.hpp"
#include "common/hash.hpp"
#include "resilience/fault.hpp"
#include "solver/checkpoint.hpp"
#include "solver/ckpt_store.hpp"
#include "solver/health.hpp"
#include "solver/solver.hpp"

namespace sv = s3d::solver;
namespace chem = s3d::chem;
namespace fault = s3d::fault;
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

void flip_byte(const std::string& path, std::size_t pos) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(pos));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(pos));
  f.put(static_cast<char>(c ^ 0x40));
}

std::uint64_t file_magic(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::uint64_t m = 0;
  f.read(reinterpret_cast<char*>(&m), sizeof(m));
  return f.good() ? m : 0;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

// ---------------------------------------------------------------------------
// codec

TEST(DeltaCodec, DiffApplyRoundTripsBitwise) {
  std::vector<double> prev(1000), next;
  for (std::size_t i = 0; i < prev.size(); ++i)
    prev[i] = std::sin(static_cast<double>(i));
  next = prev;
  next[3] = -7.25;          // block 0
  next[777] = 1.0 / 3.0;    // block 6
  next[999] = 0.0;          // tail block (partial: 1000 = 7*128 + 104)

  const sv::CkptDelta d = sv::diff_image(prev, next, 128);
  EXPECT_EQ(d.total, 1000u);
  EXPECT_EQ(d.blocks, (std::vector<std::uint32_t>{0, 6, 7}));
  // Dirty payload = two full blocks + the 104-double tail.
  EXPECT_EQ(d.payload.size(), 128u + 128u + 104u);

  std::vector<double> replay = prev;
  sv::apply_delta(replay, d, 128);
  EXPECT_EQ(std::memcmp(replay.data(), next.data(),
                        next.size() * sizeof(double)),
            0);

  // Identical images produce an empty delta: that is the dedup.
  const sv::CkptDelta none = sv::diff_image(next, next, 128);
  EXPECT_TRUE(none.blocks.empty());
  EXPECT_TRUE(none.payload.empty());
}

TEST(DeltaCodec, ChainRoundTripIsBitwisePerGeneration) {
  TmpDir dir("s3dpp_ckpt_chain");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions opt;
  opt.delta = true;
  opt.base_every = 4;
  opt.block = 256;
  sv::RestartSeries series(dir.str(), "ckpt", /*keep_last=*/16, opt);

  std::vector<long> gens;
  std::vector<std::uint64_t> want;
  for (long gen = 1; gen <= 8; ++gen) {
    s.run(1);
    series.write(s, gen);
    gens.push_back(gen);
    want.push_back(state_checksum(s));
  }
  // Cadence check: gens 1 and 5 are bases, the rest chained deltas.
  EXPECT_EQ(file_magic(series.path(1)), sv::kRestartMagic);
  EXPECT_EQ(file_magic(series.path(2)), sv::kDeltaMagic);
  EXPECT_EQ(file_magic(series.path(5)), sv::kRestartMagic);
  EXPECT_EQ(file_magic(series.path(8)), sv::kDeltaMagic);

  for (std::size_t i = 0; i < gens.size(); ++i) {
    sv::Solver b(cfg);
    b.initialize(wavy_init);
    std::string err;
    ASSERT_TRUE(series.try_load(gens[i], b, &err)) << err;
    EXPECT_EQ(state_checksum(b), want[i]) << "gen " << gens[i];
  }
}

// ---------------------------------------------------------------------------
// fold-on-prune

TEST(CkptStore, FoldAcrossPrunedBaseKeepsChainRestorable) {
  TmpDir dir("s3dpp_ckpt_fold");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions opt;
  opt.delta = true;
  opt.base_every = 4;  // gens 2(b), 4(d), 6(d), 8(d)
  sv::RestartSeries series(dir.str(), "ckpt", /*keep_last=*/3, opt);

  std::vector<std::uint64_t> want;
  for (long gen : {2, 4, 6, 8}) {
    s.run(2);
    series.write(s, gen);
    want.push_back(state_checksum(s));
  }
  // Pruning gen 2 (the base) folded gen 4 into a base so 6 and 8 still
  // replay; the chain never dangles off a deleted file.
  EXPECT_EQ(series.generations(), (std::vector<long>{8, 6, 4}));
  EXPECT_FALSE(fs::exists(series.path(2)));
  EXPECT_EQ(file_magic(series.path(4)), sv::kRestartMagic) << "not folded";
  EXPECT_EQ(series.stats().folds, 1);

  const long gens[] = {4, 6, 8};
  for (int i = 0; i < 3; ++i) {
    sv::Solver b(cfg);
    b.initialize(wavy_init);
    std::string err;
    ASSERT_TRUE(series.try_load(gens[i], b, &err)) << err;
    EXPECT_EQ(state_checksum(b), want[i + 1]) << "gen " << gens[i];
  }
}

// ---------------------------------------------------------------------------
// generation-table recovery

TEST(CkptStore, ManifestRecoveryWithInterleavedBadGenerations) {
  TmpDir dir("s3dpp_ckpt_interleaved");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions opt;
  opt.delta = true;
  opt.base_every = 2;  // gens 2(b), 4(d), 6(b), 8(d), 10(b)
  std::uint64_t want4 = 0;
  {
    sv::RestartSeries w(dir.str(), "ckpt", /*keep_last=*/8, opt);
    for (long gen : {2, 4, 6, 8, 10}) {
      s.run(2);
      w.write(s, gen);
      if (gen == 4) want4 = state_checksum(s);
    }
  }
  // Newest corrupted, the gen-6 base deleted outright (which also orphans
  // the gen-8 delta chained on it).
  flip_byte(
      (fs::path(dir.str()) / "ckpt.g000010.rst").string(),
      fs::file_size(fs::path(dir.str()) / "ckpt.g000010.rst") / 2);
  fs::remove(fs::path(dir.str()) / "ckpt.g000006.rst");

  // A fresh store (fresh table) must walk 10 (corrupt), 8 (broken chain),
  // 6 (missing) and land on the intact 4 -> 2 chain.
  sv::RestartSeries series(dir.str(), "ckpt", 8, opt);
  sv::Solver b(cfg);
  b.initialize(wavy_init);
  std::vector<std::string> skipped;
  EXPECT_EQ(series.read_latest(b, &skipped), 4);
  ASSERT_EQ(skipped.size(), 3u);
  EXPECT_NE(skipped[0].find("gen 10"), std::string::npos) << skipped[0];
  EXPECT_NE(skipped[0].find("checksum"), std::string::npos) << skipped[0];
  EXPECT_NE(skipped[1].find("gen 8"), std::string::npos) << skipped[1];
  EXPECT_NE(skipped[2].find("gen 6"), std::string::npos) << skipped[2];
  EXPECT_EQ(state_checksum(b), want4);
}

TEST(CkptStore, InvalidGenerationsSkipInO1WithoutReread) {
  TmpDir dir("s3dpp_ckpt_o1skip");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::RestartSeries series(dir.str(), "ckpt", 4);
  s.run(2);
  series.write(s, 2);
  const auto want = state_checksum(s);
  s.run(2);
  series.write(s, 4);

  flip_byte(series.path(4), fs::file_size(series.path(4)) / 2);

  // First walk discovers the corruption and records the validity bit.
  sv::Solver b(cfg);
  b.initialize(wavy_init);
  std::vector<std::string> skipped;
  EXPECT_EQ(series.read_latest(b, &skipped), 2);
  EXPECT_EQ(skipped.size(), 1u);

  // Second walk must not touch gen 4 at all: with its file deleted, any
  // re-read attempt would surface as a "missing" skip message.
  fs::remove(series.path(4));
  sv::Solver c(cfg);
  c.initialize(wavy_init);
  skipped.clear();
  EXPECT_EQ(series.read_latest(c, &skipped), 2);
  EXPECT_TRUE(skipped.empty()) << skipped[0];
  EXPECT_EQ(state_checksum(c), want);
}

// ---------------------------------------------------------------------------
// write-behind persistence

TEST(CkptStore, WriteBehindLandsIdenticalFilesToSynchronous) {
  TmpDir sync_dir("s3dpp_ckpt_sync");
  TmpDir wb_dir("s3dpp_ckpt_wb");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions sync_opt;
  sync_opt.delta = true;
  sync_opt.base_every = 3;
  sv::CkptOptions wb_opt = sync_opt;
  wb_opt.write_behind = true;
  wb_opt.queue_depth = 2;

  sv::RestartSeries sync_s(sync_dir.str(), "ckpt", 4, sync_opt);
  sv::RestartSeries wb_s(wb_dir.str(), "ckpt", 4, wb_opt);
  for (long gen : {2, 4, 6, 8, 10}) {
    s.run(1);
    sync_s.write(s, gen);
    wb_s.write(s, gen);
  }
  wb_s.drain();

  EXPECT_EQ(wb_s.generations(), sync_s.generations());
  for (long gen : wb_s.generations())
    EXPECT_EQ(slurp(wb_s.path(gen)), slurp(sync_s.path(gen)))
        << "gen " << gen;
  EXPECT_EQ(wb_s.stats().persisted, 5);
  EXPECT_GE(wb_s.stats().queue_hwm, 1);
  // Every cell moves each step, so deltas here are full-dirty: the ratio
  // sits at ~1 (delta framing overhead only). The dedup win is asserted
  // on quiescent captures in the snapshot-ring test below.
  EXPECT_EQ(wb_s.stats().bases, 2);
  EXPECT_EQ(wb_s.stats().deltas, 3);
  EXPECT_LT(wb_s.stats().dedup_ratio(), 1.05);
}

TEST(CkptStore, KillMidPersistLeavesPreviousGenerationRestorable) {
  TmpDir dir("s3dpp_ckpt_kill");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions opt;
  opt.delta = true;
  opt.base_every = 4;
  opt.write_behind = true;
  opt.persist_retries = 1;
  opt.backoff_ms = 0.01;
  opt.backoff_cap_ms = 0.02;
  sv::RestartSeries series(dir.str(), "ckpt", 4, opt);

  s.run(2);
  series.write(s, 2);
  series.drain();
  const auto want2 = state_checksum(s);

  // Every persist attempt for the next generation dies (the injected
  // equivalent of the node crashing mid-persist, retries included).
  FaultSession fsess(7);
  fault::arm({.site = "checkpoint.persist",
              .kind = fault::Kind::fail,
              .probability = 1.0,
              .max_fires = 2});  // first attempt + its retry
  s.run(2);
  series.write(s, 4);
  series.drain();
  EXPECT_EQ(fault::fires_at("checkpoint.persist"), 2);
  fault::reset();
  EXPECT_EQ(series.stats().persist_failures, 1);

  // The previous generation survived: the failed gen is skipped via its
  // validity bit (silently — no file was ever at its path) and gen 2
  // restores bitwise.
  sv::Solver b(cfg);
  b.initialize(wavy_init);
  std::vector<std::string> skipped;
  EXPECT_EQ(series.read_latest(b, &skipped), 2);
  EXPECT_TRUE(skipped.empty()) << skipped[0];
  EXPECT_EQ(state_checksum(b), want2);

  // Self-heal: the next generation refuses to chain through the hole and
  // forces a fresh base.
  s.run(2);
  series.write(s, 6);
  series.drain();
  EXPECT_EQ(file_magic(series.path(6)), sv::kRestartMagic);
  sv::Solver c(cfg);
  c.initialize(wavy_init);
  std::string err;
  EXPECT_TRUE(series.try_load(6, c, &err)) << err;
  EXPECT_EQ(state_checksum(c), state_checksum(s));
}

// ---------------------------------------------------------------------------
// fault sites

TEST(CkptFaults, DeltaEncodeFailThrowsBeforeCommit) {
  TmpDir dir("s3dpp_ckpt_deltafail");
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions opt;
  opt.delta = true;
  opt.base_every = 4;
  sv::RestartSeries series(dir.str(), "ckpt", 4, opt);

  s.run(2);
  series.write(s, 2);  // base: the delta site is not consulted
  const auto want = state_checksum(s);

  FaultSession fsess(3);
  fault::arm({.site = "checkpoint.delta", .kind = fault::Kind::fail, .nth = 0});
  s.run(2);
  EXPECT_THROW(series.write(s, 4), fault::InjectedFault);
  fault::reset();

  // The failed append left no trace: gen 2 is still the newest.
  sv::Solver b(cfg);
  b.initialize(wavy_init);
  EXPECT_EQ(series.read_latest(b), 2);
  EXPECT_EQ(state_checksum(b), want);
}

TEST(CkptFaults, CorruptAndDelayKindsAreCaughtOrAbsorbed) {
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions opt;
  opt.delta = true;
  opt.base_every = 4;

  {  // checkpoint.delta corrupt: checksum rejects the generation.
    TmpDir dir("s3dpp_ckpt_deltacorrupt");
    sv::RestartSeries series(dir.str(), "ckpt", 4, opt);
    s.run(1);
    series.write(s, 1);
    const auto want = state_checksum(s);
    FaultSession fsess(5);
    fault::arm(
        {.site = "checkpoint.delta", .kind = fault::Kind::corrupt, .nth = 0});
    s.run(1);
    series.write(s, 2);
    fault::reset();
    sv::Solver b(cfg);
    b.initialize(wavy_init);
    std::vector<std::string> skipped;
    EXPECT_EQ(series.read_latest(b, &skipped), 1);
    ASSERT_EQ(skipped.size(), 1u);
    EXPECT_NE(skipped[0].find("checksum"), std::string::npos) << skipped[0];
    EXPECT_EQ(state_checksum(b), want);
  }

  {  // checkpoint.persist corrupt on a base poisons its whole chain.
    TmpDir dir("s3dpp_ckpt_persistcorrupt");
    sv::RestartSeries series(dir.str(), "ckpt", 4, opt);
    FaultSession fsess(9);
    fault::arm(
        {.site = "checkpoint.persist", .kind = fault::Kind::corrupt, .nth = 0});
    s.run(1);
    series.write(s, 1);  // base lands bit-flipped on disk
    s.run(1);
    series.write(s, 2);  // delta chained on the poisoned base
    fault::reset();
    sv::Solver b(cfg);
    b.initialize(wavy_init);
    std::vector<std::string> skipped;
    EXPECT_EQ(series.read_latest(b, &skipped), -1);
    EXPECT_GE(skipped.size(), 2u);
  }

  {  // checkpoint.persist delay: slower, never wrong.
    TmpDir dir("s3dpp_ckpt_persistdelay");
    sv::CkptOptions wb = opt;
    wb.write_behind = true;
    sv::RestartSeries series(dir.str(), "ckpt", 4, wb);
    FaultSession fsess(13);
    fault::arm({.site = "checkpoint.persist",
                .kind = fault::Kind::delay,
                .nth = 0,
                .delay_ms = 2.0});
    s.run(1);
    series.write(s, 1);
    s.run(1);
    series.write(s, 2);
    series.drain();
    fault::reset();
    sv::Solver b(cfg);
    b.initialize(wavy_init);
    std::vector<std::string> skipped;
    EXPECT_EQ(series.read_latest(b, &skipped), 2);
    EXPECT_TRUE(skipped.empty());
    EXPECT_EQ(state_checksum(b), state_checksum(s));
  }
}

// ---------------------------------------------------------------------------
// delta-backed snapshot ring

TEST(DeltaSnapshotRing, DeltaAndFullCopyRestoresMatchBitwise) {
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);

  sv::CkptOptions delta_opt;  // defaults: delta on
  sv::CkptOptions full_opt;
  full_opt.delta = false;

  sv::SnapshotRing delta_ring(3, delta_opt);
  sv::SnapshotRing full_ring(3, full_opt);
  std::vector<std::uint64_t> want;
  for (int i = 0; i < 3; ++i) {
    s.run(1);
    delta_ring.capture(s);
    full_ring.capture(s);
    want.push_back(state_checksum(s));
  }

  sv::Solver a(cfg), b(cfg);
  a.initialize(wavy_init);
  b.initialize(wavy_init);
  delta_ring.restore_newest(a);
  full_ring.restore_newest(b);
  EXPECT_EQ(state_checksum(a), want[2]);
  EXPECT_EQ(state_checksum(b), want[2]);

  delta_ring.pop_newest();
  full_ring.pop_newest();
  delta_ring.restore_newest(a);
  full_ring.restore_newest(b);
  EXPECT_EQ(state_checksum(a), want[1]);
  EXPECT_EQ(state_checksum(b), want[1]);
  EXPECT_EQ(delta_ring.newest_step(), full_ring.newest_step());
}

TEST(DeltaSnapshotRing, RepeatedCapturesDeduplicate) {
  auto cfg = small_cfg();
  sv::Solver s(cfg);
  s.initialize(wavy_init);
  s.run(1);

  sv::CkptOptions delta_opt;
  sv::CkptOptions full_opt;
  full_opt.delta = false;

  sv::SnapshotRing delta_ring(3, delta_opt);
  sv::SnapshotRing full_ring(3, full_opt);
  for (int i = 0; i < 3; ++i) {  // identical state: deltas are empty
    delta_ring.capture(s);
    full_ring.capture(s);
  }
  EXPECT_EQ(delta_ring.size(), 3);
  // Delta ring retains ~2 images (base + materialized head, empty
  // deltas); the full-copy ring retains 4 (3 entries + head).
  EXPECT_LT(delta_ring.bytes(), full_ring.bytes() * 3 / 4)
      << "unchanged captures should cost (nearly) nothing";

  sv::Solver b(cfg);
  b.initialize(wavy_init);
  delta_ring.pop_newest();
  delta_ring.restore_newest(b);
  EXPECT_EQ(state_checksum(b), state_checksum(s));
}

// ---------------------------------------------------------------------------
// config knobs

TEST(CkptConfig, MalformedKnobsThrowTypedErrors) {
  auto cfg = small_cfg();
  cfg.validate();

  // The store knobs live in the driver options and validate with them.
  sv::GuardOptions bad;
  bad.validate();
  bad.ckpt.base_every = 0;
  EXPECT_THROW(bad.validate(), sv::ConfigError);
  bad = {};
  bad.ckpt.block = 0;
  EXPECT_THROW(bad.validate(), sv::ConfigError);
  bad = {};
  bad.ckpt.queue_depth = 0;
  EXPECT_THROW(bad.validate(), sv::ConfigError);
  bad = {};
  bad.ckpt.persist_retries = -1;
  EXPECT_THROW(bad.validate(), sv::ConfigError);
  bad = {};
  bad.ckpt.backoff_cap_ms = bad.ckpt.backoff_ms - 1.0;
  EXPECT_THROW(bad.validate(), sv::ConfigError);
}
