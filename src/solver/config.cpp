#include "solver/config.hpp"

#include <cmath>

namespace s3d::solver {

namespace {

void require(bool ok, const char* field, const std::string& why) {
  if (!ok) throw ConfigError(field, why);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

void CkptOptions::validate(const std::string& prefix) const {
  auto req = [&](bool ok, const char* field, const std::string& why) {
    if (!ok) throw ConfigError(prefix + "." + field, why);
  };
  req(base_every >= 1, "base_every",
      "base cadence must be >= 1 (1 = every generation a base)");
  req(block >= 1, "block", "delta block granule must be >= 1 double");
  req(queue_depth >= 1, "queue_depth",
      "persist queue must hold at least one generation");
  req(persist_retries >= 0, "persist_retries", "must be >= 0 (0 = no retry)");
  req(std::isfinite(backoff_ms) && backoff_ms >= 0.0, "backoff_ms",
      "must be finite and >= 0");
  req(std::isfinite(backoff_cap_ms) && backoff_cap_ms >= backoff_ms,
      "backoff_cap_ms", "must be finite and >= backoff_ms");
}

void AdaptiveOptions::validate(const std::string& prefix) const {
  auto req = [&](bool ok, const char* field, const std::string& why) {
    if (!ok) throw ConfigError(prefix + "." + field, why);
  };
  req(block >= 1, "block", "controller block edge must be >= 1 cell");
  req(finite_positive(atol), "atol", "must be positive and finite");
  req(finite_positive(rtol), "rtol", "must be positive and finite");
  req(std::isfinite(kI) && kI > 0.0, "kI",
      "integral gain must be positive and finite");
  req(std::isfinite(kP) && kP >= 0.0, "kP",
      "proportional gain must be finite and >= 0 (0 = pure I control)");
  req(finite_positive(safety) && safety <= 1.0, "safety",
      "must lie in (0, 1]");
  req(finite_positive(dt_min_ratio) && dt_min_ratio <= 1.0, "dt_min_ratio",
      "must lie in (0, 1]");
  req(std::isfinite(dt_max_ratio) && dt_max_ratio >= dt_min_ratio &&
          dt_max_ratio <= 1.0,
      "dt_max_ratio", "must lie in [dt_min_ratio, 1]");
  req(subcycle_cap >= 1, "subcycle_cap", "must be >= 1");
  req(max_subcycle_retries >= 0, "max_subcycle_retries",
      "must be >= 0 (0 = skip straight to localized rollback)");
  req(max_local_rollbacks >= 0, "max_local_rollbacks",
      "must be >= 0 (0 = skip straight to the global rung)");
  req(dt_recover_after >= 0, "dt_recover_after",
      "must be >= 0 (0 = keep the halved dt, the legacy behavior)");
}

void Config::validate() const {
  require(mech != nullptr, "mech", "mechanism must be set");
  require(mech->n_species() >= 1, "mech", "mechanism has no species");

  const grid::AxisSpec* axes[3] = {&x, &y, &z};
  const char* axis_names[3] = {"x", "y", "z"};
  for (int a = 0; a < 3; ++a) {
    require(axes[a]->n >= 1, axis_names[a],
            "grid dimension must be >= 1 (got " +
                std::to_string(axes[a]->n) + ")");
    if (axes[a]->n > 1)
      require(finite_positive(axes[a]->length), axis_names[a],
              "active axis needs a positive finite length");
    // Axis periodicity must agree with both face BCs (inactive axes carry
    // no faces; the solver ignores them).
    if (axes[a]->n > 1) {
      const bool face_periodic =
          faces[a][0].kind == BcKind::periodic &&
          faces[a][1].kind == BcKind::periodic;
      require(axes[a]->periodic == face_periodic, "faces",
              std::string("axis ") + axis_names[a] +
                  " periodicity must match both face BCs");
    }
    for (int side = 0; side < 2; ++side) {
      const FaceBc& f = faces[a][side];
      if (axes[a]->n <= 1) continue;
      if (f.kind == BcKind::nscbc_outflow) {
        require(finite_positive(f.p_target), "faces",
                "outflow face needs a positive far-field pressure");
        require(finite_positive(f.sigma), "faces",
                "outflow face needs a positive relaxation coefficient");
      }
      require(std::isfinite(f.sponge_width) && f.sponge_width >= 0.0,
              "faces", "sponge_width must be finite and >= 0");
      require(std::isfinite(f.sponge_strength) && f.sponge_strength >= 0.0,
              "faces", "sponge_strength must be finite and >= 0");
    }
  }

  bool any_inflow = false;
  for (int a = 0; a < 3; ++a)
    for (int side = 0; side < 2; ++side)
      if (axes[a]->n > 1 && faces[a][side].kind == BcKind::nscbc_inflow)
        any_inflow = true;
  require(!any_inflow || static_cast<bool>(inflow), "inflow",
          "an nscbc_inflow face requires the inflow generator");

  require(finite_positive(cfl), "cfl",
          "CFL number must be positive and finite");
  require(finite_positive(fourier), "fourier",
          "Fourier number must be positive and finite");
  require(std::isfinite(filter_alpha) && filter_alpha > 0.0 &&
              filter_alpha <= 1.0,
          "filter_alpha", "filter strength must lie in (0, 1]");
  require(filter_interval >= 0, "filter_interval",
          "filter interval must be >= 0 (0 disables the filter)");
  require(finite_positive(T_ref), "T_ref",
          "reference temperature must be positive");
  require(finite_positive(p_ref), "p_ref",
          "reference pressure must be positive");
  require(finite_positive(Pr), "Pr", "Prandtl number must be positive");
  require(std::isfinite(visc_exp), "visc_exp",
          "viscosity exponent must be finite");
  require(std::isfinite(L_relax) && L_relax >= 0.0, "L_relax",
          "relaxation length must be finite and >= 0");
  require(finite_positive(dlb_hot_T), "dlb_hot_T",
          "DLB hot-cell temperature threshold must be positive");
  require(std::isfinite(dlb_hot_weight) && dlb_hot_weight >= 1.0,
          "dlb_hot_weight", "DLB hot-cell weight must be >= 1");
  require(std::isfinite(dlb_imbalance_tol) && dlb_imbalance_tol >= 0.0,
          "dlb_imbalance_tol", "DLB imbalance tolerance must be >= 0");
  require(dlb_parcel_cells >= 1, "dlb_parcel_cells",
          "DLB parcels must carry at least one cell");
}

}  // namespace s3d::solver
