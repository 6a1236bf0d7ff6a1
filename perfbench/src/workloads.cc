// The three benchmark workloads: their timed phase through the public API,
// the output checks every run makes, and the end-to-end metrics.
//
//  exact-matrix    all 11 workloads x {Base, ReDHiP}, inclusive, scale 8,
//                  exact, fast engine, run_matrix at jobs=1.  Time goes to
//                  the run loop, cache, predictor and trace generation;
//                  sampling, checkpoints, the result cache and the pool do
//                  nothing here.
//  design-sweep    run_sweep over 6 workloads x 2 schemes x 3 inclusion
//                  policies x 2 recalibration intervals (72 short cells at
//                  scale 32) on min(nproc, 4) threads into a fresh result
//                  cache: a cold pass simulates and stores every cell, a
//                  warm pass reads them all back.  Weighs per-cell set-up,
//                  pool scheduling, cache writes, the hybrid and exclusive
//                  paths and frequent recalibration.
//  sampled-resume  {mcf, blas, mix} x ReDHiP, scale 8, 12.5M refs/core,
//                  interval sampling (10 windows) with a checkpoint
//                  directory: each cell runs cold (seeding the window
//                  snapshots), then resumed from the deepest snapshot.  Most
//                  references go through TraceSource::skip, then the warm
//                  engine; the exact loop barely shows.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "ckpt/checkpoint_io.h"
#include "sim/config_digest.h"
#include "sweep/axes.h"
#include "sweep/sweep.h"

namespace perfbench {

using namespace redhip;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

// A cell slower than this counts as failed (timed out).  Every cell here
// takes well under ten seconds on a 4-core host.
constexpr double kCellTimeLimitS = 60.0;

// Wall time spent timing set-ups before each pass; setup_s is the median of
// every set-up timed in the run.
constexpr double kSetupSampleS = 0.05;

// design-sweep reads its result cache back this many times per pass (a
// warm pass takes milliseconds, so one sample alone is mostly noise).
constexpr int kWarmPasses = 15;

constexpr std::uint64_t kExactRefs = 250'000;
constexpr std::uint64_t kSweepRefs = 250'000;
constexpr std::uint64_t kSampledRefs = 12'500'000;

// Nominal wall time of one pass on a 4-core host; --seconds / nominal
// (at least 2) passes are run, so a run measures about --seconds and the
// pass count is a pure function of the arguments.
constexpr double kExactPassS = 6.0;
constexpr double kSweepPassS = 6.0;
constexpr double kSampledPassS = 8.5;

// Times `setup` over and over for kSetupSampleS, one sample per run of it.
// A set-up takes tens to hundreds of microseconds, so a single timing is
// often stretched several-fold by a scheduler tick or a stolen vCPU slice;
// the median of thousands is not.
template <class Fn>
void sample_setup(Fn&& setup, std::vector<double>& samples) {
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    setup();
    samples.push_back(seconds_since(t0));
  } while (seconds_since(start) < kSetupSampleS);
}

int pass_count(const Options& o, double nominal) {
  if (o.trace) return 1;
  return std::max(2, static_cast<int>(std::lround(o.seconds / nominal)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::string cell_label(const RunSpec& s) {
  return to_string(s.bench) + "-" + to_string(s.scheme);
}

// Run a ReDHiP cell again with the invariant auditor on (count-only: it
// observes, never alters a fault-free run).  Fails the cell on any false
// negative, and on any difference from `timed` once the auditor's own
// counters are set aside — an independent re-run of the same cell.
void audit_cell(Context& ctx, const RunSpec& spec, const SimResult& timed,
                const std::string& label) {
  RunSpec s = spec;
  s.ckpt_path.clear();
  s.ckpt_restore = false;
  s.tweak = [base = spec.tweak](HierarchyConfig& c) {
    if (base) base(c);
    c.audit.enabled = true;
    c.audit.policy = RecoveryPolicy::kCountOnly;
  };
  SimResult r;
  try {
    r = run_spec(s);
  } catch (const std::exception& e) {
    ctx.checker.fail(0, label, std::string("audited re-run threw: ") + e.what());
    return;
  }
  if (r.fault.invariant_violations != 0) {
    ctx.checker.fail(0, label,
                     "fn = " + std::to_string(r.fault.invariant_violations) +
                         " (a bypass hid an LLC-resident line)");
  }
  if (r.fault.audit_checks == 0 && r.predictor.predicted_absent != 0) {
    ctx.checker.fail(0, label, "auditor saw none of the bypasses");
  }
  r.fault = FaultStats{};
  if (digest(r) != digest(timed)) {
    ctx.checker.fail(0, label, "audited re-run differs from the timed run");
  }
}

// Held-out seeds: the reference engine must reproduce the smallest cell.
void reference_check(Context& ctx, const RunSpec& spec, const SimResult& timed,
                     const std::string& label) {
  RunSpec s = spec;
  s.engine = SimEngine::kReference;
  s.ckpt_path.clear();
  s.ckpt_restore = false;
  try {
    if (digest(run_spec(s)) != digest(timed)) {
      ctx.checker.fail(0, label, "reference engine disagrees with fast engine");
    }
  } catch (const std::exception& e) {
    ctx.checker.fail(0, label, std::string("reference run threw: ") + e.what());
  }
}

// Per-pass cell check: time limit, recorded digest (when this seed has
// one), and determinism against the first pass.
void check_cell(Context& ctx, int pass, const std::string& label,
                const SimResult& r, std::map<std::string, std::uint64_t>& first) {
  ctx.checker.attempt(pass, label);
  if (r.host_seconds > kCellTimeLimitS) {
    ctx.checker.fail(pass, label, "timed out");
  }
  const std::uint64_t d = digest(r);
  const std::string want =
      ctx.expected.digest(ctx.opt.workload, ctx.opt.seed, label);
  if (ctx.expected.has_seed(ctx.opt.workload, ctx.opt.seed) && !ctx.opt.record &&
      want != hex(d)) {
    ctx.checker.fail(pass, label,
                     "digest " + hex(d) + " != recorded " +
                         (want.empty() ? std::string("(none)") : want));
  }
  const auto [it, inserted] = first.emplace(label, d);
  if (!inserted && it->second != d) {
    ctx.checker.fail(pass, label, "differs from the same cell in pass 0");
  }
}

std::size_t smallest(const std::vector<double>& cell_s) {
  return static_cast<std::size_t>(
      std::min_element(cell_s.begin(), cell_s.end()) - cell_s.begin());
}

// End-to-end metrics shared by every workload.  `cell_s` holds one sample
// per timed cell run, `rerun_s` one per re-run of a cell that already ran
// in the same place, `pass_refs`/`pass_wall` one per pass; `rss_mb` is the
// peak resident memory when the passes ended.
std::vector<Metric> end_to_end(double setup_s, const std::vector<double>& cell_s,
                               const std::vector<double>& rerun_s,
                               const std::vector<double>& pass_refs,
                               const std::vector<double>& pass_wall,
                               std::size_t cells_per_pass, double rss_mb) {
  std::vector<double> mrefs, cph;
  for (std::size_t p = 0; p < pass_wall.size(); ++p) {
    mrefs.push_back(pass_refs[p] / pass_wall[p] / 1e6);
    cph.push_back(3600.0 * static_cast<double>(cells_per_pass) / pass_wall[p]);
  }
  double pct = 0.0;
  const double t = tail(cell_s, &pct);
  std::printf("cell samples: %zu (tail = p%.1f), re-run samples: %zu, "
              "passes: %zu\n",
              cell_s.size(), pct, rerun_s.size(), pass_wall.size());
  return {
      {"setup_s", setup_s, "s", "host"},
      {"mrefs_per_s", median(mrefs), "Mrefs/s", "host"},
      {"cell_s_p50", median(cell_s), "s", "host"},
      {"cell_s_tail", t, "s", "host"},
      {"cells_per_hour", median(cph), "1/h", "host"},
      {"rerun_cell_s", median(rerun_s), "s", "host"},
      {"peak_rss_mb", rss_mb, "MB", "memory"},
  };
}

// --- exact-matrix -------------------------------------------------------------

struct MatrixPlan {
  ExperimentOptions opts;
  std::vector<SchemeColumn> columns;
  std::vector<RunSpec> cells;  // bench-major, column-minor (run_matrix order)
};

MatrixPlan plan_matrix(const ExperimentOptions& base,
                       std::vector<SchemeColumn> columns) {
  MatrixPlan p{base, std::move(columns), {}};
  for (BenchmarkId b : p.opts.benches) {
    for (const SchemeColumn& c : p.columns) {
      RunSpec s;
      s.bench = b;
      s.scheme = c.scheme;
      s.inclusion = c.inclusion;
      s.scale = p.opts.scale;
      s.refs_per_core = p.opts.refs_per_core;
      s.seed = p.opts.seed;
      s.sampling = p.opts.sampling;
      // Config resolution: the content address every cell is keyed by.
      (void)config_digest(resolved_config(s));
      p.cells.push_back(s);
    }
  }
  if (!p.opts.ckpt_dir.empty()) fresh_dir(p.opts.ckpt_dir);
  return p;
}

// Runs run_matrix once; fills results (run_matrix order) or marks every
// cell of the pass failed when the call throws.
bool run_matrix_pass(Context& ctx, const MatrixPlan& plan, int pass,
                     std::vector<SimResult>& results, double& wall) {
  std::vector<std::vector<Status>> status;
  MatrixStats stats;
  results.clear();
  try {
    const auto grid = run_matrix(plan.opts, plan.columns, &stats, &status);
    for (std::size_t b = 0; b < grid.size(); ++b) {
      for (std::size_t c = 0; c < grid[b].size(); ++c) {
        results.push_back(grid[b][c]);
        if (!status[b][c].ok()) {
          ctx.checker.fail(pass, cell_label(plan.cells[results.size() - 1]),
                           status[b][c].to_string());
        }
      }
    }
  } catch (const std::exception& e) {
    for (const RunSpec& s : plan.cells) {
      ctx.checker.fail(pass, cell_label(s), std::string("threw: ") + e.what());
    }
    return false;
  }
  wall = stats.wall_seconds;
  return true;
}

WorkloadResult exact_matrix(Context& ctx) {
  ExperimentOptions base;
  base.scale = 8;
  base.refs_per_core = kExactRefs;
  base.seed = ctx.opt.seed;
  base.jobs = 1;
  base.engine = SimEngine::kFast;
  base.benches = all_benchmarks();
  const std::vector<SchemeColumn> columns = {{"Base", Scheme::kBase},
                                             {"ReDHiP", Scheme::kRedhip}};

  WorkloadResult out;
  std::vector<double> setup, cell_s, rerun_s, pass_refs, pass_wall;
  std::map<std::string, std::uint64_t> first;
  LayerInput layer;
  const auto t_start = Clock::now();
  const int passes = pass_count(ctx.opt, kExactPassS);
  for (int pass = 0; pass < passes; ++pass) {
    MatrixPlan plan;
    sample_setup([&] { plan = plan_matrix(base, columns); }, setup);
    std::vector<SimResult> results;
    double wall = 0.0;
    if (!run_matrix_pass(ctx, plan, pass, results, wall)) continue;
    double refs = 0.0, busy = 0.0;
    std::vector<double> pass_cell_s, waits;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string label = cell_label(plan.cells[i]);
      check_cell(ctx, pass, label, results[i], first);
      cell_s.push_back(results[i].host_seconds);
      if (pass > 0) rerun_s.push_back(results[i].host_seconds);
      pass_cell_s.push_back(results[i].host_seconds);
      waits.push_back(results[i].queue_wait_seconds);
      refs += static_cast<double>(results[i].total_refs);
      busy += results[i].host_seconds;
      if (pass == 0) out.digests[label] = digest(results[i]);
    }
    pass_refs.push_back(refs);
    pass_wall.push_back(wall);
    if (layer.cells.empty()) {
      layer.cells = plan.cells;
      layer.results = results;
      layer.api_cell_s = pass_cell_s;
      layer.queue_wait_s = waits;
      layer.busy_s = busy;
      layer.pass_wall_s = wall;
    }
  }
  if (layer.cells.empty()) throw std::runtime_error("every pass failed");
  const double timed_s = seconds_since(t_start);
  const double rss_mb = peak_rss_mb();  // of the passes, before any check runs
  const auto t_checks = Clock::now();

  // Every run: audited re-run of each ReDHiP cell (fn == 0, independent
  // re-run identical).  Held-out seeds add the reference-engine check.
  for (std::size_t i = 0; i < layer.cells.size(); ++i) {
    if (layer.cells[i].scheme == Scheme::kRedhip) {
      audit_cell(ctx, layer.cells[i], layer.results[i],
                 cell_label(layer.cells[i]));
    }
  }
  if (!ctx.expected.has_seed(ctx.opt.workload, ctx.opt.seed)) {
    const std::size_t i = smallest(layer.api_cell_s);
    reference_check(ctx, layer.cells[i], layer.results[i],
                    cell_label(layer.cells[i]));
  }

  // The paper comparison, unscored: ReDHiP against Base over the matrix.
  std::vector<double> speedup, energy;
  for (std::size_t i = 0; i + 1 < layer.results.size(); i += 2) {
    const Comparison c = compare(layer.results[i], layer.results[i + 1]);
    speedup.push_back(c.speedup);
    energy.push_back(c.dyn_energy_ratio);
  }
  std::printf("paper check (unscored): ReDHiP vs Base mean speedup %+.2f%% "
              "(paper: +8%%), mean dynamic energy ratio %.3f (paper: 0.39)\n",
              (mean(speedup) - 1.0) * 100.0, mean(energy));

  std::printf("passes %.2f s, output checks %.2f s\n", timed_s,
              seconds_since(t_checks));
  out.end_to_end = end_to_end(median(setup), cell_s, rerun_s, pass_refs,
                              pass_wall, layer.cells.size(), rss_mb);
  if (ctx.tracer != nullptr) out.per_layer = measure_layers(ctx, layer);
  return out;
}

// --- design-sweep -------------------------------------------------------------

// The design-sweep grid; `audited` keeps only the cells the invariant
// auditor covers (ReDHiP, inclusive or hybrid) and turns it on.
SweepSpec sweep_spec(std::uint64_t seed, bool audited) {
  ExperimentOptions axis_opts;
  axis_opts.scale = 32;
  SweepSpec spec;
  spec.base.scale = 32;
  spec.base.refs_per_core = kSweepRefs;
  spec.base.seed = seed;
  spec.base.engine = SimEngine::kFast;
  for (const char* axis :
       {"workload=mcf,lbm,pmf,mix,blas,astar",
        audited ? "scheme=ReDHiP" : "scheme=Base,ReDHiP",
        audited ? "inclusion=inclusive,hybrid"
                : "inclusion=inclusive,hybrid,exclusive",
        "recal-interval=100K,1M"}) {
    spec.axes.push_back(make_named_axis(axis, axis_opts));
  }
  if (audited) {
    spec.base.tweak = [](HierarchyConfig& c) {
      c.audit.enabled = true;
      c.audit.policy = RecoveryPolicy::kCountOnly;
    };
  }
  return spec;
}

std::string sweep_label(const SweepCell& c) {
  std::string s;
  for (const std::string& l : c.labels) s += (s.empty() ? "" : "-") + l;
  return s;
}

WorkloadResult design_sweep(Context& ctx) {
  const std::size_t jobs = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), 4);
  WorkloadResult out;
  std::vector<double> setup, cell_s, rerun_s, pass_refs, pass_wall;
  std::map<std::string, std::uint64_t> first;
  LayerInput layer;
  std::vector<std::string> labels;  // of layer.cells
  const auto t_start = Clock::now();
  const int passes = pass_count(ctx.opt, kSweepPassS);
  for (int pass = 0; pass < passes; ++pass) {
    const std::string cache_dir =
        ctx.work_dir + "/sweep-cache-" + std::to_string(pass);
    SweepSpec spec;
    sample_setup([&] {
      spec = sweep_spec(ctx.opt.seed, false);
      (void)expand(spec);  // sweep expansion + every cell's content key
      fresh_dir(cache_dir);
    }, setup);
    SweepRunOptions ro;
    ro.cache_dir = cache_dir;
    ro.jobs = jobs;
    SweepOutcome cold;
    std::vector<SweepOutcome> warm;
    try {
      cold = run_sweep(spec, ro);
      for (int k = 0; k < kWarmPasses; ++k) warm.push_back(run_sweep(spec, ro));
    } catch (const std::exception& e) {
      for (const SweepCell& c : expand(spec)) {
        ctx.checker.fail(pass, sweep_label(c), std::string("threw: ") + e.what());
      }
      continue;
    }
    double refs = 0.0, busy = 0.0;
    std::vector<double> pass_cell_s, waits;
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
      const SweepCell& c = cold.cells[i];
      const std::string label = sweep_label(c);
      if (!c.status.ok()) ctx.checker.fail(pass, label, c.status.to_string());
      if (c.from_cache) ctx.checker.fail(pass, label, "cold pass hit the cache");
      check_cell(ctx, pass, label, c.result, first);
      for (const SweepOutcome& wo : warm) {
        const SweepCell& w = wo.cells[i];
        if (!w.from_cache) {
          ctx.checker.fail(pass, label, "warm pass missed the cache");
        } else if (digest(w.result) != digest(c.result)) {
          ctx.checker.fail(pass, label, "warm-pass result differs from cold pass");
        }
      }
      cell_s.push_back(c.result.host_seconds);
      pass_cell_s.push_back(c.result.host_seconds);
      waits.push_back(c.result.queue_wait_seconds);
      refs += static_cast<double>(c.result.total_refs);
      busy += c.result.host_seconds;
      if (pass == 0) out.digests[label] = digest(c.result);
    }
    const double cells = static_cast<double>(cold.cells.size());
    std::vector<double> warm_wall;
    for (const SweepOutcome& wo : warm) {
      rerun_s.push_back(wo.stats.wall_seconds / cells);
      warm_wall.push_back(wo.stats.wall_seconds);
    }
    pass_refs.push_back(refs);
    pass_wall.push_back(cold.stats.wall_seconds);
    if (layer.cells.empty()) {
      for (const SweepCell& c : cold.cells) {
        layer.cells.push_back(c.spec);
        layer.results.push_back(c.result);
        labels.push_back(sweep_label(c));
      }
      layer.api_cell_s = pass_cell_s;
      layer.queue_wait_s = waits;
      layer.busy_s = busy;
      layer.pass_wall_s = cold.stats.wall_seconds;
      layer.jobs = jobs;
      layer.warm_hit_ratio =
          static_cast<double>(warm.front().stats.cache_hits) / cells;
      layer.warm_pass_s = median(warm_wall);
    }
  }
  if (layer.cells.empty()) throw std::runtime_error("every pass failed");
  const double timed_s = seconds_since(t_start);
  const double rss_mb = peak_rss_mb();  // of the passes, before any check runs
  const auto t_checks = Clock::now();

  // Audited re-run of the 24 inclusive and hybrid ReDHiP cells on the same
  // pool size (the auditor does not cover exclusive hierarchies, whose
  // cells rest on their digests and the pass-to-pass determinism check).
  try {
    const SweepSpec audited_spec = sweep_spec(ctx.opt.seed, true);
    SweepRunOptions ro;
    ro.jobs = jobs;
    const SweepOutcome audited = run_sweep(audited_spec, ro);
    for (const SweepCell& a : audited.cells) {
      const std::string label = sweep_label(a);
      SimResult r = a.result;
      if (r.fault.invariant_violations != 0) {
        ctx.checker.fail(0, label,
                         "fn = " + std::to_string(r.fault.invariant_violations));
      }
      if (r.fault.audit_checks == 0 && r.predictor.predicted_absent != 0) {
        ctx.checker.fail(0, label, "auditor saw none of the bypasses");
      }
      r.fault = FaultStats{};
      const auto it = first.find(label);
      if (it == first.end() || it->second != digest(r)) {
        ctx.checker.fail(0, label, "audited re-run differs from the timed run");
      }
    }
  } catch (const std::exception& e) {
    ctx.checker.fail(0, "audit", std::string("audited sweep threw: ") + e.what());
  }
  if (!ctx.expected.has_seed(ctx.opt.workload, ctx.opt.seed)) {
    const std::size_t i = smallest(layer.api_cell_s);
    reference_check(ctx, layer.cells[i], layer.results[i], labels[i]);
  }

  std::printf("passes %.2f s, output checks %.2f s\n", timed_s,
              seconds_since(t_checks));
  out.end_to_end = end_to_end(median(setup), cell_s, rerun_s, pass_refs,
                              pass_wall, layer.cells.size(), rss_mb);
  if (ctx.tracer != nullptr) out.per_layer = measure_layers(ctx, layer);
  return out;
}

// --- sampled-resume -----------------------------------------------------------

SamplingPlan sampled_plan() {
  SamplingPlan p;
  p.mode = SampleMode::kInterval;
  p.period_refs = 1'200'000;
  p.window_refs = 10'000;
  p.warmup_refs = 100'000;
  return p;
}

std::string sampled_label(const RunSpec& s) { return cell_label(s) + "-sampled"; }

ExactValues exact_values(const RunSpec& sampled_spec) {
  RunSpec s = sampled_spec;
  s.sampling = SamplingPlan{};
  s.ckpt_path.clear();
  s.ckpt_restore = false;
  const SimResult r = run_spec(s);
  ExactValues e;
  e.ipc = static_cast<double>(r.total_refs) *
          static_cast<double>(r.core_cycles.size()) /
          static_cast<double>(r.total_core_cycles);
  e.l1_hit_rate = r.hit_rate(0);
  e.energy_j = r.energy.total_j();
  return e;
}

WorkloadResult sampled_resume(Context& ctx) {
  ExperimentOptions base;
  base.scale = 8;
  base.refs_per_core = kSampledRefs;
  base.seed = ctx.opt.seed;
  base.jobs = 1;
  base.engine = SimEngine::kFast;
  base.benches = {BenchmarkId::kMcf, BenchmarkId::kBlas, BenchmarkId::kMix};
  base.sampling = sampled_plan();
  const std::vector<SchemeColumn> columns = {{"ReDHiP", Scheme::kRedhip}};
  const std::uint64_t windows = base.sampling.windows_for(kSampledRefs);

  WorkloadResult out;
  std::vector<double> setup, cell_s, rerun_s, pass_refs, pass_wall;
  std::map<std::string, std::uint64_t> first;
  LayerInput layer;
  const auto t_start = Clock::now();
  const int passes = pass_count(ctx.opt, kSampledPassS);
  for (int pass = 0; pass < passes; ++pass) {
    MatrixPlan plan;
    ExperimentOptions o = base;
    o.ckpt_dir = ctx.work_dir + "/ckpt-" + std::to_string(pass);
    sample_setup([&] { plan = plan_matrix(o, columns); }, setup);
    ckpt_profile_reset();
    std::vector<SimResult> cold, resumed;
    double cold_wall = 0.0, resumed_wall = 0.0;
    if (!run_matrix_pass(ctx, plan, pass, cold, cold_wall)) continue;
    const std::uint64_t saves = ckpt_profile_save_count();
    const double save_cpu = ckpt_profile_save_cpu_seconds();
    std::vector<std::string> snapshots;
    for (const RunSpec& s : plan.cells) {
      const std::string path =
          deepest_snapshot((fs::path(o.ckpt_dir) /
                            ckpt_file_name(s.bench, "ReDHiP", SimEngine::kFast))
                               .string(),
                           windows);
      snapshots.push_back(path);
      if (!fs::exists(path)) {
        ctx.checker.fail(pass, sampled_label(s), "cold run left no snapshot " + path);
      }
    }
    if (!run_matrix_pass(ctx, plan, pass, resumed, resumed_wall)) continue;

    double refs = 0.0, busy = 0.0;
    std::vector<double> pass_cell_s, waits;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      const std::string label = sampled_label(plan.cells[i]);
      check_cell(ctx, pass, label, cold[i], first);
      if (resumed[i].host_seconds > kCellTimeLimitS) {
        ctx.checker.fail(pass, label, "resumed run timed out");
      }
      if (digest(resumed[i]) != digest(cold[i])) {
        ctx.checker.fail(pass, label, "resumed report differs from cold report");
      }
      cell_s.push_back(cold[i].host_seconds);
      rerun_s.push_back(resumed[i].host_seconds);
      pass_cell_s.push_back(cold[i].host_seconds);
      waits.push_back(cold[i].queue_wait_seconds);
      refs += static_cast<double>(plan.cells[i].refs_per_core) *
              static_cast<double>(cold[i].core_cycles.size());
      busy += cold[i].host_seconds;
      if (pass == 0) out.digests[label] = digest(cold[i]);
    }
    pass_refs.push_back(refs);
    pass_wall.push_back(cold_wall);
    if (layer.cells.empty()) {
      layer.cells = plan.cells;
      layer.results = cold;
      layer.api_cell_s = pass_cell_s;
      layer.queue_wait_s = waits;
      layer.busy_s = busy;
      layer.pass_wall_s = cold_wall;
      layer.sampled = true;
      layer.ckpt_saves = saves;
      layer.ckpt_save_cpu_s = save_cpu;
      layer.snapshot_paths = snapshots;
    }
  }
  if (layer.cells.empty()) throw std::runtime_error("every pass failed");
  const double timed_s = seconds_since(t_start);
  const double rss_mb = peak_rss_mb();  // of the passes, before any check runs
  const auto t_checks = Clock::now();

  // Every run: a plain cold run (no checkpoint directory, auditor on) must
  // equal the snapshot-seeding run — with the resumed run already equal to
  // that, cold == seeding == resumed — and show fn == 0.  Recorded seeds
  // also check each CI against the recorded exact value.
  for (std::size_t i = 0; i < layer.cells.size(); ++i) {
    const std::string label = sampled_label(layer.cells[i]);
    audit_cell(ctx, layer.cells[i], layer.results[i], label);
    const SamplingReport& sr = layer.results[i].sampling;
    if (!sr.enabled || sr.windows != windows) {
      ctx.checker.fail(0, label, "sampling report missing or wrong window count");
    }
    if (const ExactValues* e =
            ctx.expected.exact(ctx.opt.workload, ctx.opt.seed, label)) {
      const struct {
        const char* name;
        const MetricEstimate& est;
        double exact;
      } cis[] = {{"ipc", sr.ipc, e->ipc},
                 {"l1_hit_rate", sr.l1_hit_rate, e->l1_hit_rate},
                 {"total_energy_j", sr.total_energy_j, e->energy_j}};
      for (const auto& c : cis) {
        if (c.est.covers(c.exact)) continue;
        char why[160];
        std::snprintf(why, sizeof(why),
                      "sampled %s 95%% CI [%.6g, %.6g] misses the exact %.6g",
                      c.name, c.est.lo(), c.est.hi(), c.exact);
        ctx.checker.fail(0, label, why);
      }
    }
    if (ctx.opt.record_exact) out.exact[label] = exact_values(layer.cells[i]);
  }
  if (!ctx.expected.has_seed(ctx.opt.workload, ctx.opt.seed)) {
    const std::size_t i = smallest(layer.api_cell_s);
    reference_check(ctx, layer.cells[i], layer.results[i],
                    sampled_label(layer.cells[i]));
  }

  std::printf("passes %.2f s, output checks %.2f s\n", timed_s,
              seconds_since(t_checks));
  out.end_to_end = end_to_end(median(setup), cell_s, rerun_s, pass_refs,
                              pass_wall, layer.cells.size(), rss_mb);
  if (ctx.tracer != nullptr) out.per_layer = measure_layers(ctx, layer);
  return out;
}

}  // namespace

std::string deepest_snapshot(const std::string& ckpt_path,
                             std::uint64_t windows) {
  std::uint64_t deepest = 0;
  for (std::uint64_t w = 0; w < windows; w = w * 2 + 1) deepest = w;
  return window_snapshot_path(ckpt_path, deepest);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"exact-matrix", "design-sweep",
                                                 "sampled-resume"};
  return names;
}

WorkloadResult run_workload(Context& ctx) {
  const std::string& w = ctx.opt.workload;
  if (w == "exact-matrix") return exact_matrix(ctx);
  if (w == "design-sweep") return design_sweep(ctx);
  if (w == "sampled-resume") return sampled_resume(ctx);
  throw std::invalid_argument("unknown workload '" + w + "'");
}

}  // namespace perfbench
