#pragma once
// The three file kinds S3D emits and the paper's workflow manages
// (section 9):
//   (i)   restart files -- the conserved state ("the bulk of the analysis
//         data"); binary, self-describing, bit-exact round trip;
//   (ii)  analysis files -- named 1-D profiles and 2-D slices of derived
//         quantities, written more frequently than restarts (the paper's
//         "netcdf" files; here a compact self-describing binary plus text
//         traces the workflow's plot stage consumes);
//   (iii) min/max ASCII files -- per-variable extrema for the dashboard.

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solver/ckpt_store.hpp"
#include "solver/solver.hpp"

namespace s3d::solver {

/// Write the solver's conserved state (interior only) with grid/time
/// metadata. Serial solvers only (a parallel run writes per-rank files via
/// the I/O layer; see iosim for the shared-file strategies). Durable:
/// the image is staged to `<path>.tmp` and atomically renamed into place,
/// so a crash mid-write never leaves a half-written restart at `path`.
void write_restart(const std::string& path, const Solver& s);

/// Restore a restart file into `s`; grid extents and variable count must
/// match. Restores the simulation time; the state is bit-exact. The
/// solver is only touched after the trailing checksum verifies, so a
/// corrupted file cannot half-load.
void read_restart(const std::string& path, Solver& s);

/// Simulation time recorded in a restart file (cheap header peek).
double restart_time(const std::string& path);

/// Rotating, manifest-tracked series of restart generations
/// (DESIGN.md "Resilience" + §12): `dir/stem.g<NNNNNN>.rst` plus a
/// `dir/stem.manifest` listing generations newest-first. Since the delta
/// checkpoint store landed this is a thin facade over CkptStore: base
/// generations stay byte-identical restart files, intermediate
/// generations are block-delta records, the manifest carries per-entry
/// validity bits, and (when opt.write_behind) a persister thread takes
/// the file I/O off the step path. Recovery walks the generation table
/// newest-first, skipping known-invalid entries in O(1).
class RestartSeries {
 public:
  RestartSeries(std::string dir, std::string stem, int keep_last = 3,
                CkptOptions opt = {});
  ~RestartSeries();
  RestartSeries(const RestartSeries&) = delete;
  RestartSeries& operator=(const RestartSeries&) = delete;

  const std::string& dir() const;
  const std::string& stem() const;
  int keep_last() const;

  std::string path(long gen) const;
  std::string manifest_path() const;

  /// Checkpoint the solver as generation `gen` (typically its step
  /// count), update the manifest and prune old generations. With
  /// write-behind enabled this costs one encode + bounded enqueue.
  void write(const Solver& s, long gen);

  /// Known generations, newest first (manifest union directory scan, so
  /// a lost or corrupted manifest degrades to the scan).
  std::vector<long> generations() const;

  /// Validate-and-load one generation; false (with the reason in `err`)
  /// when the file is missing, corrupt, or mismatched.
  bool try_load(long gen, Solver& s, std::string* err = nullptr) const;

  /// Load the newest generation at or below `max_gen` that validates;
  /// returns its number, or -1 when no such generation exists. Skipped
  /// generations are reported through `skipped` ("gen N: reason") when
  /// provided.
  long read_latest(Solver& s, std::vector<std::string>* skipped = nullptr,
                   long max_gen = std::numeric_limits<long>::max()) const;

  /// Block until queued write-behind persists have settled (no-op when
  /// synchronous).
  void drain() const;

  /// Store accounting (delta ratio, persist failures, queue high-water).
  CkptStats stats() const;

 private:
  std::unique_ptr<CkptStore> store_;
};

/// The "netcdf" analysis-file substitute: named 1-D profiles and 2-D
/// slices in one self-describing binary container.
class AnalysisFile {
 public:
  /// Add an x-y trace (the workflow plots these).
  void add_profile(const std::string& name, std::vector<double> x,
                   std::vector<double> y);
  /// Add a 2-D slice stored row-major (ny rows of nx).
  void add_slice(const std::string& name, int nx, int ny,
                 std::vector<double> data);

  const std::vector<std::string>& profile_names() const { return p_names_; }
  const std::vector<std::string>& slice_names() const { return s_names_; }
  const std::pair<std::vector<double>, std::vector<double>>& profile(
      const std::string& name) const;
  /// Slice extents and data.
  std::tuple<int, int, const std::vector<double>*> slice(
      const std::string& name) const;

  void write(const std::string& path) const;
  static AnalysisFile read(const std::string& path);

  /// Export every profile as whitespace x-y text files next to `stem`
  /// (stem + "_" + name + ".xy"), the format the workflow's PlotXYActor
  /// consumes. Returns the written paths.
  std::vector<std::string> export_xy(const std::string& stem) const;

 private:
  std::vector<std::string> p_names_, s_names_;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      profiles_;
  std::map<std::string, std::tuple<int, int, std::vector<double>>> slices_;
};

/// Write a min/max ASCII file ("var min max" per line, the dashboard
/// format).
void write_minmax(const std::string& path,
                  const std::map<std::string, std::pair<double, double>>& mm);

/// Collect min/max of the standard monitored variables (T, p, u, |Y_i|
/// maxima for the radical species present) from the current primitives.
std::map<std::string, std::pair<double, double>> collect_minmax(Solver& s);

}  // namespace s3d::solver
