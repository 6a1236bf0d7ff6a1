// Statistical (SMARTS-style) interval sampling.
//
// A sampled run partitions each core's reference stream into fixed periods
// of `period_refs`.  Within every period the simulator fast-forwards the
// first (period - warmup - window) references — pure trace repositioning,
// no simulated state changes — then functionally warms `warmup_refs`
// references (tags, predictor, PT/CBF and prefetch tables updated through
// the ordinary access path; timing, per-reference observability and the
// pure-accounting tallies discarded), and finally measures `window_refs`
// references at full fidelity.
// Per-window metric values are aggregated into point estimates with 95%
// confidence intervals computed from the inter-window variance
// (t-distribution on windows-1 degrees of freedom), reported in
// SimResult::sampling.
//
// The estimator assumes the trace sources cover the full run length
// (synthetic generators are unbounded); a finite trace that ends inside a
// gap simply contributes empty windows.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace redhip {

enum class SampleMode : std::uint8_t { kOff = 0, kInterval = 1 };

const char* to_string(SampleMode m);

// How a sampled run partitions each core's reference stream.  Validated
// against the run length by validate(); an invalid plan never produces NaN
// confidence intervals — it is rejected up front as INVALID_ARGUMENT.
struct SamplingPlan {
  SampleMode mode = SampleMode::kOff;
  std::uint64_t period_refs = 0;  // per-core references per sampling period
  std::uint64_t window_refs = 0;  // measured references at each period's end
  std::uint64_t warmup_refs = 0;  // functionally-warmed refs before a window

  bool enabled() const { return mode != SampleMode::kOff; }
  std::uint64_t windows_for(std::uint64_t refs_per_core) const {
    return period_refs == 0 ? 0 : refs_per_core / period_refs;
  }
  // A plan is usable for a run of `refs_per_core` when the window fits
  // strictly inside the period (with its warmup) and at least two full
  // periods complete — one window has no variance, hence no interval.
  Status validate(std::uint64_t refs_per_core) const;

  bool operator==(const SamplingPlan&) const = default;
};

// Cumulative counter snapshot at a window boundary.  Window metrics are
// deltas of two snapshots, which is what makes the functional-warming loop
// free to update any counter it likes: gap activity lands between windows
// and drops out of every delta.
struct SampleSnapshot {
  std::uint64_t refs = 0;         // aggregate refs_done over cores
  std::uint64_t core_cycles = 0;  // sum over cores of clock (stall included)
  std::uint64_t max_clock = 0;    // slowest core's clock (stall included)
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_hits = 0;
  double energy_j = 0.0;  // counters priced cumulatively (ledger is linear)

  bool operator==(const SampleSnapshot&) const = default;
};

// One closed measurement window: the deltas between its two boundary
// snapshots.
struct WindowSample {
  std::uint64_t index = 0;       // 0-based period index
  std::uint64_t start_refs = 0;  // aggregate refs at window open
  std::uint64_t refs = 0;
  std::uint64_t core_cycles = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_hits = 0;
  double energy_j = 0.0;

  bool operator==(const WindowSample&) const = default;
};

// A point estimate with the half-width of its 95% confidence interval.
struct MetricEstimate {
  double mean = 0.0;
  double ci95_half = 0.0;

  double lo() const { return mean - ci95_half; }
  double hi() const { return mean + ci95_half; }
  bool covers(double v) const { return v >= lo() && v <= hi(); }

  bool operator==(const MetricEstimate&) const = default;
};

// Mean and 95% CI half-width of `values` using the two-sided t quantile on
// values.size()-1 degrees of freedom.  Fewer than two values have no
// variance estimate: the half-width is reported as 0 (callers are expected
// to have validated the plan, which guarantees >= 2 windows).
MetricEstimate estimate_mean(const std::vector<double>& values);

// Everything a sampled run reports beyond the ordinary counters.  The
// per-run counters (exec_cycles, energy, ...) of a sampled SimResult cover
// only the measured and warmed references; these estimates are the
// run-level answer.
struct SamplingReport {
  bool enabled = false;
  SamplingPlan plan;
  std::uint64_t windows = 0;
  std::uint64_t skipped_refs = 0;   // aggregate refs fast-forwarded
  std::uint64_t warmed_refs = 0;    // aggregate refs functionally warmed
  std::uint64_t measured_refs = 0;  // aggregate refs inside windows

  // Per-window ratio estimators, averaged across windows.
  MetricEstimate ipc;          // refs / (core_cycles / cores)
  MetricEstimate l1_hit_rate;  // l1_hits / l1_accesses
  // Mean per-reference window energy scaled to the full run length, so the
  // estimate (and its CI) is directly comparable to an exact run's
  // energy.total_j().
  MetricEstimate total_energy_j;

  std::vector<WindowSample> window_samples;

  bool operator==(const SamplingReport&) const = default;
};

// Digest of the plan for artifact keying (checkpoint files, sweep cache
// cells): a sampled run must never restore or reuse an exact run's on-disk
// state, nor one sampled under a different plan.  Returns 0 for a disabled
// plan so exact runs' keys are unchanged by the existence of sampling.
std::uint64_t sampling_digest(const SamplingPlan& plan);

// Aggregate closed windows into the report.  `total_refs` is the aggregate
// reference count the run covers (skipped + warmed + measured) — the
// scaling basis of the total-energy estimate; `cores` the IPC denominator.
SamplingReport build_sampling_report(const SamplingPlan& plan,
                                     const std::vector<WindowSample>& windows,
                                     std::uint64_t skipped_refs,
                                     std::uint64_t warmed_refs,
                                     std::uint64_t total_refs,
                                     std::uint32_t cores);

}  // namespace redhip
