#pragma once
// In-situ analysis plugin registry (DESIGN.md §15): analysis passes —
// conditional means over mixture fraction, scalar dissipation rate,
// box-filter a-priori subgrid stress/flux (the aPriori direction in
// PAPERS.md), and the volume renderer — register a name, a typed
// parameter schema, and a factory, and are driven as *fused consumer
// hooks*: every due step the AnalysisDriver builds ONE FusedPointwise
// carrying each active pass's row stages and traverses the interior
// once, so N analyses cost one sweep over memory, not N (DESIGN.md §10).
//
// Determinism contract: registries are deterministic ordered maps,
// per-invocation reductions are packed into one vmpi collective per pass
// invoked identically on every rank (S3D_COLLECTIVE_CHECK clean), and
// after finish() every rank holds bitwise-identical accumulators for a
// given decomposition. Accumulators snapshot to a flat double block that
// rides the health SnapshotRing as a StateSidecar and the checkpoint
// store through the driver's snapshot()/restore(), so rollbacks and
// restart replays are bitwise (the `ctest -L plugin` tier pins both).
// Trace counters are rank-0-gated `analysis.*` names; periodic CSV/JSON
// emission uses the checkpoint store's atomic temp+rename writes with
// iosim-style retry/backoff.

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "solver/cases.hpp"
#include "solver/health.hpp"
#include "solver/passes.hpp"
#include "solver/scenario.hpp"
#include "solver/solver.hpp"
#include "viz/render.hpp"
#include "vmpi/vmpi.hpp"

namespace s3d::viz {

using solver::ParamMap;
using solver::ParamSpec;

/// Thrown for unknown analysis names (lists every registered name),
/// duplicate registrations, and unusable scenario/analysis pairings.
class AnalysisError : public Error {
 public:
  explicit AnalysisError(const std::string& what) : Error(what) {}
};

/// Everything an analysis pass may read during one invocation. The
/// primitive workspace is refreshed (ghost shells exchanged) before
/// prepare() runs; `comm` is nullptr in serial runs.
struct AnalysisContext {
  solver::Solver& s;
  const solver::CaseSetup& cs;
  const solver::Prim& prim;
  long step = 0;
  double t = 0.0;
  vmpi::Comm* comm = nullptr;
};

/// One in-situ analysis. Lifecycle per invocation:
///   prepare()     derive whole-field inputs (mixture fraction, gradient
///                 magnitudes) — identical work on every rank;
///   add_stages()  contribute row stages to the SHARED fused consumer
///                 pass; stages write only this pass's own local scratch
///                 (stage outputs are pairwise disjoint by construction);
///   finish()      reduce the local scratch with ONE collective and fold
///                 it into the persistent accumulators — afterwards every
///                 rank holds identical accumulator values.
/// snapshot()/restore() expose the accumulators as a fixed-length double
/// block (the checkpoint/rollback payload); csv()/json() render them.
class AnalysisPass {
 public:
  explicit AnalysisPass(std::string name) : name_(std::move(name)) {}
  virtual ~AnalysisPass() = default;

  const std::string& name() const { return name_; }

  virtual void prepare(const AnalysisContext& ctx) { (void)ctx; }
  virtual void add_stages(solver::FusedPointwise& pass,
                          const AnalysisContext& ctx) = 0;
  virtual void finish(const AnalysisContext& ctx) = 0;

  /// Append the accumulator block (fixed length per instance).
  virtual void snapshot(std::vector<double>& out) const = 0;
  /// Consume exactly the block snapshot() appends; returns the count.
  virtual std::size_t restore(std::span<const double> in) = 0;

  virtual std::string csv() const = 0;
  /// One JSON object body (no surrounding braces newline), e.g.
  /// "\"name\": \"conditional_means\", \"samples\": 123".
  virtual std::string json() const = 0;

 private:
  std::string name_;
};

/// A registered analysis: name, schema, factory.
struct AnalysisSpec {
  std::string name;
  std::string description;
  std::vector<ParamSpec> schema;
  std::function<std::unique_ptr<AnalysisPass>(const ParamMap&)> make;
};

/// Process-wide analysis registry (deterministic ordered map; built-ins
/// register in the constructor, duplicates throw).
class AnalysisRegistry {
 public:
  static AnalysisRegistry& instance();

  void add(AnalysisSpec spec);
  bool contains(const std::string& name) const;
  const AnalysisSpec& at(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Validate overrides against the schema (unknown key / parse / range
  /// violations are typed ConfigErrors on "analysis.<name>.<key>"), then
  /// run the factory.
  std::unique_ptr<AnalysisPass> build(const std::string& name,
                                      const ParamMap& overrides = {}) const;

 private:
  AnalysisRegistry();
  std::map<std::string, AnalysisSpec> map_;
};

struct AnalysisOptions {
  int interval = 50;    ///< steps between invocations (on_step cadence)
  int emit_every = 0;   ///< invocations between emissions (0: manual only)
  std::string out_dir = ".";
  int emit_retries = 3;       ///< attempts per file (iosim-style policy)
  double backoff_ms = 0.5;    ///< base retry backoff
};

/// Drives the active analyses against one solver: builds the shared
/// fused consumer pass each due step, runs the collective finish phase,
/// carries the accumulator sidecar, and emits CSV/JSON. on_step() must
/// be invoked with the same step count on every rank (it decides the
/// collective cadence); under run_guarded wire it to
/// GuardOptions::on_clean_step and sidecar() to GuardOptions::sidecar, or
/// call it from a Solver::run monitor. Restores from the driver's restart
/// series (rung 4, re-runs) carry no sidecar, so steps replayed after one
/// are sampled again.
class AnalysisDriver {
 public:
  AnalysisDriver(const solver::CaseSetup& cs, AnalysisOptions opt = {});

  /// Instantiate a registered analysis by name with overrides.
  void add(const std::string& name, const ParamMap& overrides = {});
  void attach(solver::Solver& s, vmpi::Comm* comm = nullptr);

  /// Fused consumer hook: invokes the analyses when `step` is on the
  /// interval cadence. No-op when detached or no passes are active.
  void on_step(long step);
  /// Force one invocation now (ignores the cadence).
  void invoke(long step);

  long invocations() const { return invocations_; }
  const std::vector<std::unique_ptr<AnalysisPass>>& passes() const {
    return passes_;
  }
  const solver::PassStats& pass_stats() const { return stats_; }

  /// Accumulator block over every active pass, in add() order.
  void snapshot(std::vector<double>& out) const;
  std::size_t restore(std::span<const double> in);
  /// Bridge to the health/rollback contract: install the result as
  /// GuardOptions::sidecar so accumulators ride the snapshot ring.
  solver::StateSidecar sidecar();

  /// Write one CSV per pass plus a run summary JSON into out_dir
  /// (rank 0 only; atomic temp+rename with retry/backoff — the iosim
  /// write policy; a file that exhausts its retries is dropped and
  /// counted, never fatal). Returns the paths written.
  std::vector<std::string> emit(long step) const;

 private:
  const solver::CaseSetup& cs_;
  AnalysisOptions opt_;
  solver::Solver* s_ = nullptr;
  vmpi::Comm* comm_ = nullptr;
  std::vector<std::unique_ptr<AnalysisPass>> passes_;
  solver::PassStats stats_;
  long invocations_ = 0;
};

/// The volume renderer as a registered analysis ("insitu_render"):
/// InSituVis routes through this class. Renders its product list (or a
/// prepared primitive field in the driver path) to numbered PPM frames;
/// rank 0 renders its local box in parallel runs.
class RenderAnalysis : public AnalysisPass {
 public:
  /// A named rendering product: the field supplier is invoked at render
  /// time so the hook always sees the live solver state.
  struct Product {
    std::string name;
    std::function<const solver::GField*()> field;
    TransferFunction tf;
  };

  RenderAnalysis(std::string dir, std::string field, double lo, double hi,
                 double opacity);

  void add_product(Product p) { products_.push_back(std::move(p)); }
  /// Render the current product list now (the InSituVis path).
  void render_now(long step);

  int frames_written() const { return frames_; }
  double overhead_seconds() const { return overhead_; }

  void prepare(const AnalysisContext& ctx) override;
  void add_stages(solver::FusedPointwise& pass,
                  const AnalysisContext& ctx) override;
  void finish(const AnalysisContext& ctx) override;
  void snapshot(std::vector<double>& out) const override;
  std::size_t restore(std::span<const double> in) override;
  std::string csv() const override;
  std::string json() const override;

 private:
  std::string dir_;
  std::string field_;  ///< driver-path field name ("T", "rho", "Y:OH", ...)
  double lo_ = 0.0, hi_ = 0.0;  ///< transfer range (hi <= lo: field range)
  double opacity_ = 0.9;
  std::vector<Product> products_;
  const solver::GField* ctx_field_ = nullptr;  ///< resolved in prepare()
  int frames_ = 0;
  double overhead_ = 0.0;
};

}  // namespace s3d::viz
