#include "sim/sampling.h"

#include <cmath>
#include <string>

#include "common/fnv.h"

namespace redhip {

const char* to_string(SampleMode m) {
  switch (m) {
    case SampleMode::kOff: return "off";
    case SampleMode::kInterval: return "interval";
  }
  return "unknown";
}

Status SamplingPlan::validate(std::uint64_t refs_per_core) const {
  if (!enabled()) return Status::Ok();
  if (period_refs == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "sampling: period_refs must be positive");
  }
  if (window_refs == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "sampling: window_refs must be positive");
  }
  if (window_refs >= period_refs) {
    return Status(StatusCode::kInvalidArgument,
                  "sampling: the measurement window must be strictly "
                  "smaller than the period");
  }
  if (warmup_refs + window_refs >= period_refs) {
    // Equality is as wrong as overflow: zero skip distance means every
    // reference of every period is simulated, which silently degenerates to
    // a wall-to-wall run wearing a sampled run's confidence intervals.
    return Status(
        StatusCode::kInvalidArgument,
        "sampling: --sample-warmup (" + std::to_string(warmup_refs) +
            ") + --sample-window (" + std::to_string(window_refs) +
            ") must leave a nonzero skip distance inside --sample-period (" +
            std::to_string(period_refs) +
            "); this plan would simulate every reference wall-to-wall");
  }
  if (windows_for(refs_per_core) < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "sampling: the run is too short for this period — fewer "
                  "than two full windows means no variance estimate and no "
                  "confidence interval");
  }
  return Status::Ok();
}

namespace {

// Two-sided 97.5% Student-t quantiles for dof 1..30; beyond that the
// distribution is within 2% of normal and a short step table suffices.
constexpr double kT975[30] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};

double t975(std::size_t dof) {
  if (dof == 0) return 0.0;
  if (dof <= 30) return kT975[dof - 1];
  if (dof <= 40) return 2.021;
  if (dof <= 60) return 2.000;
  if (dof <= 120) return 1.980;
  return 1.960;
}

}  // namespace

MetricEstimate estimate_mean(const std::vector<double>& values) {
  MetricEstimate e;
  const std::size_t n = values.size();
  if (n == 0) return e;
  double sum = 0.0;
  for (double v : values) sum += v;
  e.mean = sum / static_cast<double>(n);
  if (n < 2) return e;  // no variance estimate; half-width stays 0
  double ss = 0.0;
  for (double v : values) {
    const double d = v - e.mean;
    ss += d * d;
  }
  const double var = ss / static_cast<double>(n - 1);
  e.ci95_half = t975(n - 1) * std::sqrt(var / static_cast<double>(n));
  return e;
}

std::uint64_t sampling_digest(const SamplingPlan& plan) {
  if (!plan.enabled()) return 0;
  Fnv1a h;
  h.u8(static_cast<std::uint8_t>(plan.mode));
  h.u64(plan.period_refs).u64(plan.window_refs).u64(plan.warmup_refs);
  // A constant tag for the warming semantics (warm tallies discarded);
  // checkpoint keys, sweep cache cells and window snapshot names fold it.
  h.u8(0x57).u8(0);
  return h.digest();
}

SamplingReport build_sampling_report(const SamplingPlan& plan,
                                     const std::vector<WindowSample>& windows,
                                     std::uint64_t skipped_refs,
                                     std::uint64_t warmed_refs,
                                     std::uint64_t total_refs,
                                     std::uint32_t cores) {
  SamplingReport rep;
  rep.enabled = plan.enabled();
  rep.plan = plan;
  rep.windows = windows.size();
  rep.skipped_refs = skipped_refs;
  rep.warmed_refs = warmed_refs;
  rep.window_samples = windows;

  std::vector<double> ipc, hit_rate, energy;
  ipc.reserve(windows.size());
  hit_rate.reserve(windows.size());
  energy.reserve(windows.size());
  for (const WindowSample& w : windows) {
    rep.measured_refs += w.refs;
    // A window starved by a finite trace (zero refs) carries no information;
    // including it would put 0/0 into the ratio estimators.
    if (w.refs == 0) continue;
    if (w.core_cycles > 0) {
      ipc.push_back(static_cast<double>(w.refs) * cores /
                    static_cast<double>(w.core_cycles));
    }
    if (w.l1_accesses > 0) {
      hit_rate.push_back(static_cast<double>(w.l1_hits) /
                         static_cast<double>(w.l1_accesses));
    }
    // Per-reference window energy scaled to the whole run: each window
    // contributes its own extrapolation, so the spread across windows *is*
    // the uncertainty of the run-level figure.
    energy.push_back(w.energy_j / static_cast<double>(w.refs) *
                     static_cast<double>(total_refs));
  }
  rep.ipc = estimate_mean(ipc);
  rep.l1_hit_rate = estimate_mean(hit_rate);
  rep.total_energy_j = estimate_mean(energy);
  return rep;
}

}  // namespace redhip
