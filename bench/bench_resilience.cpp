// Resilience overhead sweep (DESIGN.md "Resilience" + §12), two parts:
//
//   1. checkpoint interval vs injected failure rate for run_guarded's
//      re-run rung: attempts, recoveries, wall time, overhead over the
//      fault-free run, and MTTR (overhead amortised over recoveries);
//   2. checkpoint-store mode A/B on the step path: the per-write cost of
//      RestartSeries::write under (a) synchronous full-copy generations
//      (the pre-store behaviour), (b) synchronous block deltas, and
//      (c) deltas behind the write-behind persister, plus bytes per
//      generation and the dedup ratio.
//
// Both parts land in BENCH_resilience.json (mttr_ms, the three per-write
// costs, bytes/generation, dedup ratio, persist-queue high-water mark) so
// CI can track the step-time checkpoint overhead without scraping stdout.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chem/mechanisms.hpp"
#include "resilience/fault.hpp"
#include "solver/checkpoint.hpp"
#include "solver/health.hpp"
#include "solver/solver.hpp"

namespace sv = s3d::solver;
namespace chem = s3d::chem;
namespace fault = s3d::fault;

namespace {

sv::Config bench_cfg() {
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

void quiescent_init(double, double, double, sv::InflowState& st, double& p) {
  st.u = 2.0;
  st.v = 0.5;
  st.w = 0.0;
  st.T = 300.0;
  st.Y.fill(0.0);
  st.Y[0] = 0.233;
  st.Y[1] = 0.767;
  p = 101325.0;
}

// Non-degenerate initial condition for the store A/B: every cell moves
// every step, so delta generations are full-dirty — the honest worst
// case for the codec (a quiescent state would make deltas trivially
// empty and flatter the store).
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

struct Cell {
  double wall_ms = 0.0;
  int attempts = 0;
  int recoveries = 0;
  bool ok = false;
};

struct CkptMode {
  const char* name = "";
  double median_write_ms = 0.0;  ///< step-path cost of one series.write
  double bytes_per_gen = 0.0;
  double dedup_ratio = 1.0;
  int queue_hwm = 0;
};

CkptMode bench_ckpt_mode(const char* name, const sv::Config& cfg, int ngens,
                         const sv::CkptOptions& opt, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);

  sv::Solver s(cfg);
  s.initialize(wavy_init);
  CkptMode m;
  m.name = name;
  std::vector<double> per_write;
  {
    sv::RestartSeries series(dir, "ckpt", /*keep_last=*/4, opt);
    for (int g = 1; g <= ngens; ++g) {
      s.run(1);
      const auto t0 = std::chrono::steady_clock::now();
      series.write(s, g);
      const auto t1 = std::chrono::steady_clock::now();
      per_write.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    series.drain();
    const auto st = series.stats();
    m.bytes_per_gen = static_cast<double>(st.written_bytes) / ngens;
    m.dedup_ratio = st.dedup_ratio();
    m.queue_hwm = st.queue_hwm;
  }
  m.median_write_ms = s3dpp_bench::median(per_write);
  fs::remove_all(dir);
  return m;
}

Cell run_cell(const sv::Config& cfg, int nsteps, int interval, double p_fail,
              const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);

  fault::set_seed(0x5eedU + interval * 131 +
                  static_cast<unsigned>(p_fail * 1e4));
  if (p_fail > 0.0)
    fault::arm({.site = "solver.step",
                .kind = fault::Kind::fail,
                .nth = -1,
                .probability = p_fail,
                .max_fires = -1});

  sv::GuardOptions opts;
  opts.health.enabled = false;  // checkpoint/restart cost only, no scans
  opts.dir = dir;
  opts.checkpoint_every = interval;
  opts.keep_last = 2;
  opts.max_attempts = 200;

  sv::Solver s(cfg);
  Cell cell;
  const auto t0 = std::chrono::steady_clock::now();
  const auto rep = sv::run_guarded(s, quiescent_init, nsteps, opts);
  const auto t1 = std::chrono::steady_clock::now();
  fault::reset();
  fs::remove_all(dir);

  cell.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  cell.attempts = rep.attempts;
  cell.recoveries = rep.recoveries;
  cell.ok = rep.completed;
  return cell;
}

}  // namespace

int main() {
  using s3dpp_bench::banner;
  using s3dpp_bench::full_mode;
  using s3dpp_bench::out_dir;

  banner("bench_resilience",
         "checkpoint interval vs failure rate (MTTR) + store mode A/B");
#ifdef S3D_FAULTS_DISABLED
  std::printf("fault injection compiled out (S3D_FAULTS_DISABLED); the\n"
              "failure-rate axis degenerates to p=0.\n\n");
#endif

  const auto cfg = bench_cfg();
  const int nsteps = full_mode() ? 120 : 40;
  const int intervals[] = {2, 5, 10};
  const double rates[] = {0.0, 0.01, 0.03};
  const std::string dir = out_dir() + "/resilience_ckpt";

  std::printf("nsteps=%d (grid 24x12, air_inert)\n\n", nsteps);
  std::printf("%-10s %-8s %-9s %-11s %-10s %-10s %-9s\n", "interval",
              "p_fail", "attempts", "recoveries", "wall_ms", "overhead",
              "MTTR_ms");

  double mttr_overhead_ms = 0.0;
  long mttr_recoveries = 0;
  for (int interval : intervals) {
    const Cell clean = run_cell(cfg, nsteps, interval, 0.0, dir);
    for (double p : rates) {
      const Cell c =
          p == 0.0 ? clean : run_cell(cfg, nsteps, interval, p, dir);
      const double overhead = c.wall_ms - clean.wall_ms;
      std::printf("%-10d %-8.2f %-9d %-11d %-10.1f %-10.1f ", interval, p,
                  c.attempts, c.recoveries, c.wall_ms,
                  p == 0.0 ? 0.0 : overhead);
      if (!c.ok)
        std::printf("budget exhausted\n");
      else if (c.recoveries > 0)
        std::printf("%-9.1f\n", overhead / c.recoveries);
      else
        std::printf("-\n");
      if (p > 0.0 && c.ok && c.recoveries > 0 && overhead > 0.0) {
        mttr_overhead_ms += overhead;
        mttr_recoveries += c.recoveries;
      }
    }
  }
  std::printf("\nMTTR = (faulty wall - fault-free wall at the same "
              "interval) / recoveries.\n");

  // --- part 2: checkpoint-store mode A/B on the step path ---------------
  std::printf("\ncheckpoint store: per-write step-path cost over %d "
              "generations (wavy state, full-dirty deltas)\n\n",
              nsteps);
  std::printf("%-16s %-14s %-14s %-12s %-10s\n", "mode", "write_ms(med)",
              "bytes/gen", "dedup", "queue_hwm");

  sv::CkptOptions full_sync;
  full_sync.delta = false;
  sv::CkptOptions delta_sync;
  delta_sync.delta = true;
  delta_sync.base_every = 4;
  sv::CkptOptions delta_wb = delta_sync;
  delta_wb.write_behind = true;

  const CkptMode modes[] = {
      bench_ckpt_mode("full-sync", cfg, nsteps, full_sync, dir),
      bench_ckpt_mode("delta-sync", cfg, nsteps, delta_sync, dir),
      bench_ckpt_mode("delta-wb", cfg, nsteps, delta_wb, dir),
  };
  for (const auto& m : modes)
    std::printf("%-16s %-14.4f %-14.0f %-12.3f %-10d\n", m.name,
                m.median_write_ms, m.bytes_per_gen, m.dedup_ratio,
                m.queue_hwm);
  std::printf("\nfull-sync is the pre-store behaviour (every generation a "
              "synchronous full copy); delta-wb is the delta store with "
              "the write-behind persister (the step path pays encode + "
              "enqueue only).\n");

  // The grid is fixed, so per-cell normalisation uses the A/B case size.
  const double cells = 24.0 * 12.0;
  s3dpp_bench::BenchResult r;
  r.name = "resilience";
  r.median_ns_per_cell_step = modes[2].median_write_ms * 1e6 / cells;
  r.passes = nsteps;
  r.extra = {
      {"mttr_ms",
       mttr_recoveries > 0 ? mttr_overhead_ms / mttr_recoveries : 0.0},
      {"ckpt_full_sync_write_ms", modes[0].median_write_ms},
      {"ckpt_delta_sync_write_ms", modes[1].median_write_ms},
      {"ckpt_delta_wb_write_ms", modes[2].median_write_ms},
      {"ckpt_bytes_per_gen_full", modes[0].bytes_per_gen},
      {"ckpt_bytes_per_gen_delta", modes[1].bytes_per_gen},
      {"ckpt_dedup_ratio_delta", modes[1].dedup_ratio},
      {"ckpt_persist_queue_hwm", static_cast<double>(modes[2].queue_hwm)},
  };
  s3dpp_bench::write_bench_json(r);
  return 0;
}
