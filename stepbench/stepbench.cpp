// Step-loop benchmark: microseconds per grid point per time step of the
// S3D++ Runge-Kutta step loop, driven the way examples/scenario_runner
// drives it (Solver::run with a per-step analysis monitor, dt re-estimated
// every 10 steps, analyses every 50), on fixed workloads of at most two
// vmpi ranks, plus a traced run that splits the step into the paper's
// fig. 2 layers from the program's own trace spans.
//
//   stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   stepbench --workload <name> --print-digest 1
//
// Method:
//   - every rank is bound to its own CPU, as an MPI launcher binds ranks;
//   - set-up (scenario build, per-rank solver construction, initial
//     condition, analysis attach) is repeated kSetupReps times and
//     reported as its median;
//   - a reference run advances a fresh solver kBlockSteps steps on the
//     OTHER decomposition (2 ranks for a 1-rank workload, 1 for a 2-rank
//     one) with the repository's reference paths: unfused passes,
//     per-point kinetics and transport, no chemistry load balancing;
//   - the measured loop runs blocks of kBlockSteps steps, each on a fresh
//     solver from the same initial condition, until --seconds have
//     passed, and reports the typical block: per step, the median over
//     blocks;
//   - every block's end state must equal the reference bit for bit (the
//     repository's rank-invariance and fused == unfused contracts), be
//     finite, and differ from the initial state, and its analysis
//     accumulators must match the reference's to 1e-9 (a different rank
//     count sums in another order); a block that does not counts as
//     failed;
//   - the bitwise check cannot see a change that computes the wrong
//     answer on every path alike, so before timing the workload also runs
//     kDigestSteps steps at seed kDigestSeed and compares how much each
//     conserved variable changed with the values committed in digest.hpp
//     (to 1e-6). A mismatch fails the run. --print-digest 1 prints the
//     current values in digest.hpp's form instead of benchmarking;
//   - --trace 1 runs the same loop with tracing on and reports, instead of
//     the end-to-end metrics, each layer's busy time per step (mean over
//     ranks, median block) and per-step work counts. Spans nest
//     (halo.exchange also runs inside solver.filter), so layer times are
//     inclusive and need not add up to the step.
//
// Core-speed normalisation. On a shared machine the neighbours' load
// slows a core by up to 2x for minutes at a time, far more than the
// changes this benchmark has to resolve. So every timed step and every
// set-up is bracketed by stepbench::reference_kernel_s() on each rank's
// own CPU, and its time is reported as
//     wall time * kRefKernelS / (mean reference-kernel time)
// i.e. the time it would take on a core that runs the reference kernel
// in kRefKernelS, the kernel's time on an idle core of the machine the
// benchmark was tuned on. There, and on any idle core of that kind, the
// reported times are wall-clock times. The typical block's wall time
// goes to stderr, and the traced run reports it and the slowdown as metrics.
//
// The last line of stdout is one JSON object: correct, attempted (timed
// blocks), failed (blocks whose end state was wrong; all of them when the
// digest does not match), metrics.

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <tuple>
#include <vector>

#include "calib.hpp"
#include "digest.hpp"
#include "solver/scenario.hpp"
#include "solver/solver.hpp"
#include "trace/trace.hpp"
#include "viz/analysis.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace viz = s3d::viz;
namespace vmpi = s3d::vmpi;
namespace trace = s3d::trace;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A set-up takes ~10 ms and varies by +-25% from one to the next.
constexpr int kSetupReps = 31;
/// scenario_runner's defaults: --dt-every 10, --interval 50.
constexpr int kDtEvery = 10;
constexpr int kAnalysisInterval = 50;
/// Steps per timed block (and per reference run): one analysis interval,
/// so every block holds the runner's mix of dt estimates and analyses.
constexpr int kBlockSteps = kAnalysisInterval;
/// stepbench::reference_kernel_s() on an idle core of the machine the
/// benchmark was tuned on (Intel Xeon, 4-vCPU KVM guest, GCC 12 -O2).
constexpr double kRefKernelS = 0.0080;
/// The digest run: steps and seed.
constexpr int kDigestSteps = 10;
constexpr std::uint64_t kDigestSeed = 1;

struct Workload {
  std::string scenario;
  int ranks = 1;
  /// Decomposition; {0, 0, 0} splits as scenario_runner's decompose().
  std::array<int, 3> split{0, 0, 0};
  sv::ParamMap params;
  std::vector<std::string> analyses;
};

// The seed picks the synthetic-turbulence field (inflow turbulence for
// the jets, mixing-layer perturbations for the counterflow); grid and
// physics stay fixed so every seed is the same amount of work.
bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& w) {
  // The scenario schema caps integer parameters at 9.2e18.
  const std::string turb_seed = std::to_string(seed % 9000000000000000000ull);
  if (name == "lifted_1rank") {
    // Lifted H2/N2 jet flame (paper section 6) at the bench_lifted_flame
    // size, with the analyses of `scenario_runner --scenario lifted_jet
    // --analysis conditional_means,scalar_dissipation`. A block starts
    // from the initial condition: the pre-ignition start-up, in which the
    // 1100 K coflow heats but no cell yet reaches 1200 K.
    w.scenario = "lifted_jet";
    w.params = {{"nx", "96"},         {"ny", "80"},
                {"Lx", "0.0072"},     {"Ly", "0.0072"},
                {"slot_h", "0.0009"}, {"u_jet", "130"},
                {"u_coflow", "6"},    {"u_rms", "14"},
                {"turb_len", "0.00045"},
                {"transport", "power_law"},
                {"seed", turb_seed}};
    w.analyses = {"conditional_means", "scalar_dissipation"};
    return true;
  }
  if (name == "bunsen_2rank") {
    // Slot Bunsen flame (paper section 7), bench_bunsen's quick grid and
    // case B (u'/S_L = 6, l_t/delta_L = 1 with the paper's S_L = 1.8 m/s,
    // delta_L = 0.3 mm): the initial condition already holds the burning
    // flame sheet and the hot-products coflow. Split as scenario_runner
    // splits it, across the slot.
    w.scenario = "bunsen";
    w.ranks = 2;
    w.params = {{"nx", "120"},       {"ny", "92"},
                {"Lx", "0.0055"},    {"Ly", "0.0042"},
                {"slot_h", "0.0011"}, {"u_jet", "90"},
                {"u_coflow", "22.5"}, {"u_rms", "10.8"},
                {"turb_len", "0.0003"},
                {"seed", turb_seed}};
    return true;
  }
  if (name == "counterflow_2rank") {
    // Counterflow ignition: cold diluted H2 at x < 0 against 1350 K air at
    // x > 0. Split along x rather than the runner's y, so one rank holds
    // the cold stream and the other the hot one and the chemistry DLB
    // ships reacting cells across.
    w.scenario = "counterflow_ignition";
    w.ranks = 2;
    w.split = {2, 1, 1};
    w.params = {{"nx", "128"}, {"ny", "64"}, {"seed", turb_seed}};
    return true;
  }
  return false;
}

/// examples/scenario_cli.cpp's decompose(): the first of y, x, z that
/// divides evenly.
std::array<int, 3> runner_split(const sv::Config& cfg, int ranks) {
  if (cfg.y.n > 1 && cfg.y.n % ranks == 0) return {1, ranks, 1};
  if (cfg.x.n % ranks == 0) return {ranks, 1, 1};
  if (cfg.z.n > 1 && cfg.z.n % ranks == 0) return {1, 1, ranks};
  throw sv::ConfigError("stepbench.ranks", "no grid axis divides evenly");
}

/// One way to run a workload: ranks and how the grid is split.
struct Decomp {
  int ranks = 1;
  std::array<int, 3> p{1, 1, 1};
};

Decomp workload_decomp(const Workload& w, const sv::Config& cfg) {
  if (w.ranks == 1) return {};
  return {w.ranks, w.split[0] > 0 ? w.split : runner_split(cfg, w.ranks)};
}

/// CPUs the process may run on, read once at start-up: vmpi runs rank 0
/// on the calling thread, so after the first binding that thread's own
/// mask would hide the other CPUs from the ranks it spawns.
std::vector<int> g_cpus;

void read_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) g_cpus.push_back(c);
}

/// Bind the calling rank's thread to its own CPU, as an MPI launcher binds
/// ranks to cores: an unbound thread migrates between CPUs and refills its
/// caches each time. Ranks take the highest-numbered allowed CPUs.
void bind_rank(int rank) {
  if (static_cast<int>(g_cpus.size()) <= rank) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(g_cpus[g_cpus.size() - 1 - static_cast<std::size_t>(rank)], &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// Interior of every rank's conserved state in global (v, k, j, i) order.
void gather_interior(const sv::Solver& s, const sv::Config& cfg,
                     std::vector<double>& global) {
  const int NX = cfg.x.n, NY = cfg.y.n, NZ = cfg.z.n;
  const std::size_t pts = static_cast<std::size_t>(NX) * NY * NZ;
  const auto& l = s.layout();
  const auto off = s.offset();
  for (int v = 0; v < s.state().nv(); ++v) {
    const double* var = s.state().var(v);
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          global[static_cast<std::size_t>(v) * pts +
                 static_cast<std::size_t>(off[2] + k) * NX * NY +
                 static_cast<std::size_t>(off[1] + j) * NX + (off[0] + i)] =
              var[l.at(i, j, k)];
  }
}

std::size_t state_size(const sv::Config& cfg) {
  return static_cast<std::size_t>(cfg.x.n) * cfg.y.n * cfg.z.n *
         sv::n_conserved(cfg.mech->n_species());
}

/// Run state and analysis accumulators at the end of a run.
struct RunEnd {
  std::vector<double> init, state, acc;
  long invocations = 0;
};

/// One solver per rank of `d`, the workload's analyses attached as
/// scenario_runner attaches them (no file emission), `steps` steps.
RunEnd run_once(const Workload& w, const sv::CaseSetup& cs, const Decomp& d,
                int steps) {
  RunEnd end;
  end.init.resize(state_size(cs.cfg));
  end.state.resize(end.init.size());
  vmpi::run(d.ranks, [&](vmpi::Comm& comm) {
    sv::Solver s(cs.cfg, comm, d.p[0], d.p[1], d.p[2]);
    s.initialize(cs.init);
    gather_interior(s, cs.cfg, end.init);
    viz::AnalysisDriver driver(cs, {.interval = kAnalysisInterval});
    for (const auto& a : w.analyses) driver.add(a);
    driver.attach(s, &comm);
    s.run(steps, [&](int) { driver.on_step(s.steps_taken()); }, kDtEvery);
    gather_interior(s, cs.cfg, end.state);
    if (comm.rank() == 0) {
      driver.snapshot(end.acc);
      end.invocations = driver.invocations();
    }
    comm.barrier();
  });
  return end;
}

/// Per conserved variable, the sum over the grid of |end - start|.
std::vector<double> change_digest(const RunEnd& r, int nv) {
  std::vector<double> d(static_cast<std::size_t>(nv), 0.0);
  const std::size_t pts = r.init.size() / d.size();
  for (std::size_t i = 0; i < r.init.size(); ++i)
    d[i / pts] += std::abs(r.state[i] - r.init[i]);
  return d;
}

/// Runs the digest and compares it with digest.hpp; returns why it does
/// not match, or an empty string.
std::string check_digest(const std::string& name, bool print) {
  Workload w;
  make_workload(name, kDigestSeed, w);
  const sv::CaseSetup cs =
      sv::ScenarioRegistry::instance().build(w.scenario, w.params);
  const std::vector<double> got =
      change_digest(run_once(w, cs, workload_decomp(w, cs.cfg), kDigestSteps),
                    sv::n_conserved(cs.cfg.mech->n_species()));
  if (print) {
    std::printf("    {\"%s\",\n     {", name.c_str());
    for (std::size_t v = 0; v < got.size(); ++v)
      std::printf("%s%.17g", v ? ", " : "", got[v]);
    std::printf("}},\n");
    return {};
  }
  const std::vector<double>* want = stepbench::expected_digest(name);
  if (want == nullptr) return "no committed digest";
  if (want->size() != got.size()) return "variable count differs";
  for (std::size_t v = 0; v < got.size(); ++v)
    if (!(std::abs(got[v] - (*want)[v]) <= 1e-6 * std::abs((*want)[v]))) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "variable %zu changed by %.9g, not %.9g",
                    v, got[v], (*want)[v]);
      return buf;
    }
  return {};
}

bool near_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(std::abs(a[i] - b[i]) <=
          1e-9 * std::max(std::abs(a[i]), std::abs(b[i]))))
      return false;
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// The typical block's time: for each step, the median over blocks. A
/// burst of load that the reference kernel misses lands on a few steps
/// of one block, and the median drops it.
double typical_block_s(const std::vector<std::vector<double>>& blocks) {
  double total = 0.0;
  for (std::size_t i = 0; i < blocks.front().size(); ++i) {
    std::vector<double> v;
    for (const auto& b : blocks) v.push_back(b[i]);
    total += median(v);
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One block's per-layer numbers from its trace summary: busy
/// microseconds per step on one rank (mean over ranks, scaled to the
/// reference core), and work counts per step.
std::vector<Metric> layer_sample(const trace::Summary& sum, int ranks,
                                 int steps, double scale) {
  auto total = [&](const char* name) {
    const trace::KernelStat* k = sum.find(name);
    return k ? k->total_s() : 0.0;
  };
  auto calls = [&](const char* name) {
    const trace::KernelStat* k = sum.find(name);
    return k ? static_cast<double>(k->total_calls()) : 0.0;
  };
  auto counter = [&](const char* name) {
    const trace::CounterStat* c = sum.find_counter(name);
    return c ? c->total : 0.0;
  };
  const double us = 1e6 * scale / (static_cast<double>(steps) * ranks);
  const double evals = calls("rhs.eval");
  return {
      {"chem_us_per_step", total("chem.reaction_rate") * us, "us"},
      {"transport_us_per_step", total("rhs.diffusive_flux") * us, "us"},
      {"deriv_us_per_step",
       (total("pass.grad") + total("rhs.gradients") + total("pass.flux_div")) *
           us,
       "us"},
      {"flux_assemble_us_per_step", total("pass.flux_assemble") * us, "us"},
      {"primitives_us_per_step", total("rhs.primitives") * us, "us"},
      {"halo_us_per_step", total("halo.exchange") * us, "us"},
      {"boundary_us_per_step", total("rhs.boundary") * us, "us"},
      {"filter_us_per_step", total("solver.filter") * us, "us"},
      {"dt_estimate_us_per_step", total("solver.stable_dt") * us, "us"},
      {"analysis_us_per_step", total("analysis.pass") * us, "us"},
      {"rhs_evals_per_step", evals / (static_cast<double>(steps) * ranks),
       "count"},
      {"halo_bytes_per_step", counter("halo.bytes") / steps, "B"},
      {"dlb_cells_shipped_per_step", counter("dlb.cells_shipped") / steps,
       "count"},
  };
}

struct LoopResult {
  /// Per timed block, each step's wall time and its normalised time.
  std::vector<std::vector<double>> wall_s, norm_s;
  std::vector<double> scale;  ///< normalised / wall time of each block
  long failed = 0;
  std::vector<std::vector<Metric>> layers;  ///< per block, traced runs only
};

// The measured loop. Rank 0 owns the clock and the checks; the decision
// to run another block is agreed through one allreduce so every rank
// steps the same number of times.
LoopResult timed_loop(const Workload& w, const sv::CaseSetup& cs,
                      const Decomp& d, const RunEnd& ref, double seconds,
                      bool traced) {
  LoopResult res;
  const std::size_t size = ref.state.size();
  std::vector<double> init(size), got(size), acc;
  long invocations = 0;
  // Per rank: each step's time (the step and the analysis hook), and the
  // reference kernel's time before step 0 and after every step.
  std::vector<std::vector<double>> step_s(d.ranks), kernel_s(d.ranks);
  vmpi::run(d.ranks, [&](vmpi::Comm& comm) {
    const int rank = comm.rank();
    const bool root = rank == 0;
    bind_rank(rank);
    // Each block gets a fresh solver: writing the initial State back into
    // a used one does not reproduce a fresh trajectory bitwise (the RHS
    // workspace keeps values from earlier steps), and every block must
    // repeat identical work. Tracing covers only the stepping.
    auto block = [&](int steps, bool trace_on) {
      sv::Solver s(cs.cfg, comm, d.p[0], d.p[1], d.p[2]);
      s.initialize(cs.init);
      viz::AnalysisDriver driver(cs, {.interval = kAnalysisInterval});
      for (const auto& a : w.analyses) driver.add(a);
      driver.attach(s, &comm);
      gather_interior(s, cs.cfg, init);
      auto& my_step = step_s[rank];
      auto& my_kernel = kernel_s[rank];
      my_step.assign(steps, 0.0);
      my_kernel.assign(steps + 1, 0.0);
      my_kernel[0] = stepbench::reference_kernel_s();
      if (root && trace_on) trace::set_enabled(true);
      comm.barrier();
      auto t0 = Clock::now();
      // The core's speed can change within a block, so every step is
      // normalised by the kernel runs on either side of it. The kernel
      // and the barrier that restarts all ranks together stay outside
      // the timed steps.
      s.run(
          steps,
          [&](int i) {
            driver.on_step(s.steps_taken());
            my_step[i] = seconds_since(t0);
            my_kernel[i + 1] = stepbench::reference_kernel_s();
            comm.barrier();
            t0 = Clock::now();
          },
          kDtEvery);
      if (root && trace_on) trace::set_enabled(false);
      comm.barrier();
      // A step ends when its slowest rank ends it.
      std::vector<double> wall(steps), norm(steps);
      if (root)
        for (int i = 0; i < steps; ++i) {
          double kernel = 0.0;
          for (int r = 0; r < d.ranks; ++r) {
            wall[i] = std::max(wall[i], step_s[r][i]);
            kernel += kernel_s[r][i] + kernel_s[r][i + 1];
          }
          norm[i] = wall[i] * kRefKernelS / (kernel / (2.0 * d.ranks));
        }
      const double scale = root ? sum(norm) / sum(wall) : 0.0;
      if (root && trace_on) {
        res.layers.push_back(
            layer_sample(trace::summarize(), d.ranks, steps, scale));
        trace::clear();
      }
      gather_interior(s, cs.cfg, got);
      if (root) {
        acc.clear();
        driver.snapshot(acc);
        invocations = driver.invocations();
      }
      comm.barrier();
      return std::tuple{wall, norm, scale};
    };

    block(kDtEvery, false);  // warm-up: first-touch pages, DLB cost model
    const auto start = Clock::now();
    bool more = true;
    while (more) {
      auto [wall, norm, scale] = block(kBlockSteps, traced);
      if (root) {
        res.wall_s.push_back(std::move(wall));
        res.norm_s.push_back(std::move(norm));
        res.scale.push_back(scale);
        const char* why = nullptr;
        if (std::memcmp(got.data(), ref.state.data(),
                        size * sizeof(double)) != 0)
          why = "end state differs from the reference";
        else if (std::memcmp(got.data(), init.data(),
                             size * sizeof(double)) == 0)
          why = "end state equals the initial state";
        else if (!std::all_of(got.begin(), got.end(),
                              [](double x) { return std::isfinite(x); }))
          why = "end state is not finite";
        else if (invocations != ref.invocations || !near_equal(acc, ref.acc))
          why = "analysis accumulators differ from the reference";
        if (why != nullptr && res.failed++ == 0)
          std::fprintf(stderr, "block %zu failed: %s\n", res.wall_s.size(),
                       why);
      }
      more = comm.allreduce_max(
                 root && seconds_since(start) < seconds ? 1.0 : 0.0) > 0.0;
    }
  });
  return res;
}

/// Per-layer metrics over all traced blocks: each the median over blocks
/// (counts repeat exactly, so their median is their value).
std::vector<Metric> layer_metrics(const LoopResult& r,
                                  double traced_us_per_point_step,
                                  double wall_us_per_point_step) {
  std::vector<double> slowdown;
  for (double s : r.scale) slowdown.push_back(1.0 / s);
  std::vector<Metric> out = {
      {"traced_us_per_point_step", traced_us_per_point_step, "us"},
      {"traced_wall_us_per_point_step", wall_us_per_point_step, "us"},
      {"core_slowdown", median(slowdown), "ratio"}};
  for (std::size_t m = 0; m < r.layers.front().size(); ++m) {
    std::vector<double> v;
    for (const auto& block : r.layers) v.push_back(block[m].value);
    out.push_back({r.layers.front()[m].name, median(v),
                   r.layers.front()[m].unit});
  }
  return out;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why, const char* detail = "") {
  std::fprintf(stderr,
               "stepbench: %s%s\nusage: stepbench --workload "
               "lifted_1rank|bunsen_2rank|counterflow_2rank --seed N "
               "--seconds S --trace 0|1\n"
               "       stepbench --workload NAME --print-digest 1\n",
               why, detail);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_arg;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool print_digest = false;
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string key = argv[a];
    const char* val = argv[a + 1];
    char* end = nullptr;
    if (key == "--workload") {
      name = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*val == '\0' || *end != '\0')
        return usage("--seed is not an integer");
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0.0 && seconds <= 3600.0))
        return usage("--seconds must be in (0, 3600]");
    } else if (key == "--trace") {
      trace_arg = val;
    } else if (key == "--print-digest") {
      print_digest = std::strcmp(val, "1") == 0;
    } else {
      return usage("unknown argument ", key.c_str());
    }
  }
  Workload w;
  if (!make_workload(name, seed, w)) return usage("unknown workload ", name.c_str());
  try {
    if (print_digest) {
      check_digest(name, true);
      return 0;
    }
    if (seconds <= 0.0) return usage("--seconds is required");
    if (trace_arg != "0" && trace_arg != "1")
      return usage("--trace must be 0 or 1");
    const bool traced = trace_arg == "1";

    read_cpus();
    bind_rank(0);  // vmpi runs rank 0 here: every set-up uses the same CPUs
    const auto& reg = sv::ScenarioRegistry::instance();

    // Set-up: what a run pays before its first step. The scenario build
    // plus the slowest rank's solver construction, initial condition and
    // analysis attach, timed once every rank runs: starting vmpi's rank
    // threads stands in for an MPI launch, and its cost is the host's
    // wake-up latency.
    std::vector<double> setup_s;
    sv::CaseSetup cs;
    Decomp d;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      cs = reg.build(w.scenario, w.params);
      d = workload_decomp(w, cs.cfg);
      const double build_s = seconds_since(t0);
      vmpi::run(d.ranks, [&](vmpi::Comm& comm) {
        bind_rank(comm.rank());
        double kernel_s = stepbench::reference_kernel_s();
        comm.barrier();
        const auto t1 = Clock::now();
        sv::Solver s(cs.cfg, comm, d.p[0], d.p[1], d.p[2]);
        s.initialize(cs.init);
        viz::AnalysisDriver driver(cs, {.interval = kAnalysisInterval});
        for (const auto& a : w.analyses) driver.add(a);
        driver.attach(s, &comm);
        const double slowest = comm.allreduce_max(seconds_since(t1));
        kernel_s += stepbench::reference_kernel_s();
        const double scale =
            kRefKernelS / (comm.allreduce_sum(kernel_s) / (2.0 * d.ranks));
        if (comm.rank() == 0) setup_s.push_back((build_s + slowest) * scale);
      });
    }

    const std::string digest_error = check_digest(name, false);
    if (!digest_error.empty())
      std::fprintf(stderr, "digest at seed %llu does not match: %s\n",
                   static_cast<unsigned long long>(kDigestSeed),
                   digest_error.c_str());

    sv::CaseSetup ref_cs = cs;
    ref_cs.cfg.fusion = false;
    ref_cs.cfg.batching = false;
    ref_cs.cfg.chem_dlb = false;
    const Decomp other = w.ranks == 1 ? Decomp{2, runner_split(cs.cfg, 2)}
                                      : Decomp{};
    const RunEnd ref = run_once(w, ref_cs, other, kBlockSteps);

    const LoopResult r = timed_loop(w, cs, d, ref, seconds, traced);
    const long points =
        static_cast<long>(cs.cfg.x.n) * cs.cfg.y.n * cs.cfg.z.n;
    const double block_s = typical_block_s(r.norm_s);
    const double block_wall_s = typical_block_s(r.wall_s);
    const double per_point_step = 1e6 / (kBlockSteps * points);
    const double us_pps = block_s * per_point_step;
    const double wall_us_pps = block_wall_s * per_point_step;
    std::fprintf(stderr,
                 "%s: %s on %d rank(s) (%dx%dx%d), %ld points, %zu blocks x "
                 "%d steps; typical block %.4f s wall, %.4f s normalised; "
                 "%.4f us/point/step (%.4f wall); set-up %.4f s normalised\n",
                 name.c_str(), w.scenario.c_str(), d.ranks, d.p[0], d.p[1],
                 d.p[2], points, r.wall_s.size(), kBlockSteps,
                 block_wall_s, block_s, us_pps, wall_us_pps,
                 median(setup_s));

    std::vector<Metric> metrics;
    if (traced) {
      metrics = layer_metrics(r, us_pps, wall_us_pps);
    } else {
      metrics.push_back({"us_per_point_step", us_pps, "us"});
      metrics.push_back({"setup_s", median(setup_s), "s"});
    }
    const long blocks = static_cast<long>(r.wall_s.size());
    // A digest mismatch means every block computed the wrong answer.
    const long failed = digest_error.empty() ? r.failed : blocks;
    print_result(failed == 0, blocks, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s\n", e.what());
    return 1;
  }
}
