// Per-layer metrics for the traced run (--trace 1).
//
// Measured from outside the program: each number times calls into one
// layer's public functions from these files, or is a count the simulator
// reports, always on the workload's own cells.  Spans go around the calls
// (tracer in checks.cc); nothing inside src/ is instrumented.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_set>

#include "bench.h"
#include "cache/tag_array.h"
#include "ckpt/checkpoint_io.h"
#include "predict/redhip_table.h"
#include "sim/config_digest.h"
#include "sweep/config_digest.h"
#include "sweep/result_cache.h"

namespace perfbench {

using namespace redhip;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

// References per core replayed through the cache and predictor probes.
constexpr std::uint64_t kReplayRefsPerCore = 50'000;
// Refill batch size of the fast engine; generation is replayed the same way.
constexpr std::size_t kBatch = 256;

// Keeps replayed results observable so the timed loops are not elided.
volatile std::uint64_t g_sink = 0;

RunSpec plain(const RunSpec& spec) {
  RunSpec s = spec;
  s.ckpt_path.clear();
  s.ckpt_restore = false;
  return s;
}

struct CellTimes {
  double ctor_s = 0.0;
  double run_s = 0.0;
  double cell_s = 0.0;
};

// run_spec's path for a run without checkpointing, with a span around each
// layer call.  Returns the same SimResult run_spec would.
SimResult traced_cell(Tracer& t, std::uint64_t id, const RunSpec& spec,
                      CellTimes& times) {
  Tracer::Scope cell(t, "cell", id);
  HierarchyConfig config;
  {
    Tracer::Scope s(t, "config.resolve", id);
    config = resolved_config(spec);
    spec.sampling.validate(spec.refs_per_core).throw_if_error();
  }
  std::vector<std::unique_ptr<TraceSource>> traces;
  std::vector<std::uint32_t> cpis;
  {
    Tracer::Scope s(t, "trace.make_workload", id);
    for (CoreId c = 0; c < config.cores; ++c) {
      traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
      cpis.push_back(workload_cpi_centi(spec.bench, c));
    }
  }
  std::unique_ptr<MulticoreSimulator> sim;
  {
    Tracer::Scope s(t, "sim.ctor", id);
    sim = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                               std::move(cpis));
    sim->set_sampling(spec.sampling);
    times.ctor_s = s.seconds();
  }
  SimResult r;
  {
    Tracer::Scope s(t, "sim.run", id);
    r = sim->run(spec.refs_per_core);
    times.run_s = s.seconds();
  }
  times.cell_s = cell.seconds();
  return r;
}

struct TraceTimes {
  double gen_s = 0.0, gen_refs = 0.0;    // references the run generates
  double skip_s = 0.0, skip_refs = 0.0;  // TraceSource::skip
  double run_skip_s = 0.0;               // skip time inside a sampled run
};

// Replays each core's stream the way the run consumes it: generation of
// every reference for an exact cell; per period, skip of the gap then
// generation of warmup + window for a sampled cell.  Exact cells also time
// skip over the same length on fresh sources.
void replay_trace(Tracer& t, std::uint64_t id, const RunSpec& spec,
                  TraceTimes& tt) {
  const std::uint32_t cores = resolved_config(spec).cores;
  std::vector<MemRef> buf(kBatch);
  const auto generate = [&](TraceSource& src, std::uint64_t n) {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    while (n > 0) {
      const std::size_t got = src.next_batch(buf.data(), std::min<std::uint64_t>(n, kBatch));
      if (got == 0) break;
      acc += buf[got - 1].addr;
      n -= got;
    }
    g_sink = g_sink + acc;
    return seconds_since(t0);
  };
  const SamplingPlan& plan = spec.sampling;
  for (CoreId c = 0; c < cores; ++c) {
    if (!plan.enabled()) {
      Tracer::Scope s(t, "trace.gen", id);
      const auto t0 = Clock::now();
      auto src = make_workload(spec.bench, c, spec.scale, spec.seed);
      generate(*src, spec.refs_per_core);
      tt.gen_s += seconds_since(t0);
      tt.gen_refs += static_cast<double>(spec.refs_per_core);
      continue;
    }
    auto src = make_workload(spec.bench, c, spec.scale, spec.seed);
    const std::uint64_t gap =
        plan.period_refs - plan.warmup_refs - plan.window_refs;
    for (std::uint64_t w = 0; w < plan.windows_for(spec.refs_per_core); ++w) {
      {
        Tracer::Scope s(t, "trace.skip", id);
        src->skip(gap);
        tt.run_skip_s += s.seconds();
        tt.skip_s += s.seconds();
        tt.skip_refs += static_cast<double>(gap);
      }
      Tracer::Scope s(t, "trace.gen", id);
      tt.gen_s += generate(*src, plan.warmup_refs + plan.window_refs);
      tt.gen_refs += static_cast<double>(plan.warmup_refs + plan.window_refs);
    }
  }
  if (plan.enabled()) return;
  for (CoreId c = 0; c < cores; ++c) {
    auto src = make_workload(spec.bench, c, spec.scale, spec.seed);
    Tracer::Scope s(t, "trace.skip", id);
    src->skip(spec.refs_per_core);
    tt.skip_s += s.seconds();
    tt.skip_refs += static_cast<double>(spec.refs_per_core);
  }
}

struct CacheTimes {
  double lookup_s = 0.0, lookups = 0.0;
  double fill_s = 0.0, fills = 0.0;
  double query_s = 0.0, queries = 0.0;
  std::vector<double> recal_s;
};

// The cell's own L1 miss stream (each core's first kReplayRefsPerCore
// references through a private L1 tag array at the config's geometry),
// replayed into an LLC tag array at the config's geometry: fill of every
// distinct line in first-touch order (so each fill is of an absent line),
// then lookup of the whole stream.  ReDHiP cells then build the PT from the
// filled array and time query over the stream and full recalibration.
void replay_cache(Tracer& t, std::uint64_t id, const RunSpec& spec,
                  CacheTimes& ct) {
  Tracer::Scope span(t, "cache.replay", id);
  const HierarchyConfig config = resolved_config(spec);
  const CacheGeometry& l1_geom = config.levels.front().geom;
  const std::uint32_t shift = l1_geom.line_shift();
  std::vector<LineAddr> misses;
  std::vector<MemRef> buf(kBatch);
  for (CoreId c = 0; c < config.cores; ++c) {
    TagArray l1(l1_geom);
    auto src = make_workload(spec.bench, c, spec.scale, spec.seed);
    for (std::uint64_t done = 0; done < kReplayRefsPerCore;) {
      const std::size_t got = src->next_batch(buf.data(), kBatch);
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) {
        const LineAddr line = buf[i].addr >> shift;
        if (!l1.lookup(line, buf[i].is_write).hit) {
          l1.fill(line);
          misses.push_back(line);
        }
      }
      done += got;
    }
  }
  std::vector<LineAddr> first_touch;
  {
    std::unordered_set<LineAddr> seen;
    for (LineAddr l : misses) {
      if (seen.insert(l).second) first_touch.push_back(l);
    }
  }
  TagArray llc(config.llc().geom);
  std::uint64_t acc = 0;
  {
    Tracer::Scope s(t, "cache.fill", id);
    for (LineAddr l : first_touch) acc += llc.fill(l).way;
    ct.fill_s += s.seconds();
    ct.fills += static_cast<double>(first_touch.size());
  }
  {
    Tracer::Scope s(t, "cache.lookup", id);
    for (LineAddr l : misses) acc += llc.lookup(l).hit;
    ct.lookup_s += s.seconds();
    ct.lookups += static_cast<double>(misses.size());
  }
  if (config.scheme == Scheme::kRedhip) {
    RedhipTable pt(config.redhip);
    llc.for_each_valid([&pt](LineAddr l) { pt.on_fill(l); });
    {
      Tracer::Scope s(t, "predict.query", id);
      for (LineAddr l : misses) acc += pt.query(l) == Prediction::kAbsent;
      ct.query_s += s.seconds();
      ct.queries += static_cast<double>(misses.size());
    }
    for (int k = 0; k < 3; ++k) {
      Tracer::Scope s(t, "predict.recalibrate", id);
      acc += pt.recalibrate(llc);
      ct.recal_s.push_back(s.seconds());
    }
  }
  g_sink = g_sink + acc;
}

// Milliseconds of load_checkpoint of each snapshot into a freshly built
// simulator of its cell (construction untimed).
std::vector<double> time_loads(Context& ctx, const std::vector<RunSpec>& cells,
                               const std::vector<std::string>& paths) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RunSpec& spec = cells[i];
    const HierarchyConfig config = resolved_config(spec);
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::uint32_t> cpis;
    for (CoreId c = 0; c < config.cores; ++c) {
      traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
      cpis.push_back(workload_cpi_centi(spec.bench, c));
    }
    MulticoreSimulator sim(config, std::move(traces), std::move(cpis));
    sim.set_sampling(spec.sampling);
    const std::uint64_t key =
        ckpt_key(to_string(spec.bench), spec.scale, spec.seed,
                 config_digest(config) ^ sampling_digest(spec.sampling));
    Tracer::Scope s(*ctx.tracer, "ckpt.load", i);
    const Status st = load_checkpoint(paths[i], key, sim);
    ms.push_back(s.seconds() * 1e3);
    if (!st.ok()) {
      ctx.checker.fail(0, "ckpt-probe", "snapshot load failed: " + st.to_string());
    }
  }
  return ms;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> measure_layers(Context& ctx, const LayerInput& in) {
  Tracer& t = *ctx.tracer;
  const std::size_t n = in.cells.size();

  // sim: each cell through run_spec (untraced), then through the traced
  // mirror of run_spec; the results must agree with the timed phase's.
  // Coverage compares ctor + run with the mirror's own cell span (same
  // execution): against the separate run_spec call, a single cell's ratio
  // swings by the host's run-to-run noise, so that comparison is reported
  // over the sum of all cells (sim.run_spec_share).
  double api_total = 0.0, cell_total = 0.0, run_total = 0.0, ctor_run = 0.0;
  double coverage = 1e30;
  std::vector<double> ctor_ms;
  for (std::size_t i = 0; i < n; ++i) {
    const RunSpec spec = plain(in.cells[i]);
    api_total += run_spec(spec).host_seconds;
    CellTimes times;
    const SimResult r = traced_cell(t, i, spec, times);
    if (digest(r) != digest(in.results[i])) {
      ctx.checker.fail(0, "traced-" + std::to_string(i),
                       "traced run's result differs from the untraced run's");
    }
    cell_total += times.cell_s;
    run_total += times.run_s;
    ctor_run += times.ctor_s + times.run_s;
    ctor_ms.push_back(times.ctor_s * 1e3);
    coverage = std::min(coverage, (times.ctor_s + times.run_s) / times.cell_s);
  }

  // trace: generation and skip on each cell's own streams.
  TraceTimes tt;
  for (std::size_t i = 0; i < n; ++i) replay_trace(t, i, in.cells[i], tt);

  // cache + predict replays.
  CacheTimes ct;
  for (std::size_t i = 0; i < n; ++i) replay_cache(t, i, in.cells[i], ct);

  // Deterministic counts from the simulated results.
  double l1_acc = 0, l1_hit = 0, llc_acc = 0, refs = 0, lookups = 0,
         absent = 0, fp = 0, recals = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SimResult& r = in.results[i];
    l1_acc += static_cast<double>(r.levels.front().accesses);
    l1_hit += static_cast<double>(r.levels.front().hits);
    llc_acc += static_cast<double>(r.levels.back().accesses);
    refs += static_cast<double>(r.total_refs);
    if (in.cells[i].scheme == Scheme::kRedhip) {
      lookups += static_cast<double>(r.predictor.lookups);
      absent += static_cast<double>(r.predictor.predicted_absent);
      fp += static_cast<double>(r.predictor.false_positives);
      recals += static_cast<double>(r.predictor.recalibrations);
    }
  }

  // sim warm engine + ckpt: the workload's own sampled runs, or else a
  // sampled, checkpointed run of its first ReDHiP cell.
  std::size_t probe = 0;
  while (probe + 1 < n && in.cells[probe].scheme != Scheme::kRedhip) ++probe;
  double warm_s = 0, warmed = 0, simulated = 0, covered = 0, save_cpu = 0;
  std::uint64_t saves = 0;
  std::vector<double> load_ms;
  if (in.sampled) {
    for (std::size_t i = 0; i < n; ++i) {
      const SimResult& r = in.results[i];
      warm_s += r.warm_host_seconds;
      warmed += static_cast<double>(r.sampling.warmed_refs);
      simulated += static_cast<double>(r.sampling.warmed_refs + r.sampling.measured_refs);
      covered += static_cast<double>(r.sampling.skipped_refs + r.sampling.warmed_refs +
                                     r.sampling.measured_refs);
    }
    saves = in.ckpt_saves;
    save_cpu = in.ckpt_save_cpu_s;
    load_ms = time_loads(ctx, in.cells, in.snapshot_paths);
  } else {
    RunSpec s = plain(in.cells[probe]);
    s.sampling.mode = SampleMode::kInterval;
    s.sampling.period_refs = s.refs_per_core / 4;
    s.sampling.window_refs = 2'000;
    s.sampling.warmup_refs = 20'000;
    const std::string dir = ctx.work_dir + "/probe-ckpt";
    fs::remove_all(dir);
    fs::create_directories(dir);
    s.ckpt_path = dir + "/probe.ckpt";
    ckpt_profile_reset();
    SimResult r;
    {
      Tracer::Scope span(t, "probe.sampled_run", probe);
      r = run_spec(s);
    }
    saves = ckpt_profile_save_count();
    save_cpu = ckpt_profile_save_cpu_seconds();
    warm_s = r.warm_host_seconds;
    warmed = static_cast<double>(r.sampling.warmed_refs);
    simulated = static_cast<double>(r.sampling.warmed_refs + r.sampling.measured_refs);
    covered = static_cast<double>(r.sampling.skipped_refs + r.sampling.warmed_refs +
                                  r.sampling.measured_refs);
    s.ckpt_path.clear();
    load_ms = time_loads(ctx, {s},
                         {deepest_snapshot(dir + "/probe.ckpt",
                                           s.sampling.windows_for(s.refs_per_core))});
  }

  // obs: the smallest cell with observability off and on, alternating.
  const std::size_t small = static_cast<std::size_t>(
      std::min_element(in.api_cell_s.begin(), in.api_cell_s.end()) -
      in.api_cell_s.begin());
  std::vector<double> off_s, on_s;
  {
    const RunSpec off = plain(in.cells[small]);
    RunSpec on = off;
    on.tweak = [base = off.tweak](HierarchyConfig& c) {
      if (base) base(c);
      c.obs.enabled = true;
    };
    for (int k = 0; k < (in.sampled ? 2 : 3); ++k) {
      const SimResult a = run_spec(off);
      SimResult b = run_spec(on);
      off_s.push_back(a.host_seconds);
      on_s.push_back(b.host_seconds);
      b.epochs.clear();
      if (digest(a) != digest(b)) {
        ctx.checker.fail(0, "obs-probe", "observability changed a simulated result");
      }
    }
  }

  // sweep: result-cache store and load of every cell's result.
  std::vector<double> store_ms, entry_load_ms;
  double loaded_ok = 0.0;
  {
    const std::string dir = ctx.work_dir + "/layer-cache";
    fs::remove_all(dir);
    ResultCache cache(dir);
    for (std::size_t i = 0; i < n; ++i) {
      Tracer::Scope s(t, "sweep.cache_store", i);
      cache.store(sweep_cache_key(in.cells[i]), in.results[i]).throw_if_error();
      store_ms.push_back(s.seconds() * 1e3);
    }
    for (std::size_t i = 0; i < n; ++i) {
      Tracer::Scope s(t, "sweep.cache_load", i);
      Result<SimResult> r = cache.load(sweep_cache_key(in.cells[i]));
      entry_load_ms.push_back(s.seconds() * 1e3);
      if (r.ok() && digest(r.value()) == digest(in.results[i])) {
        loaded_ok += 1.0;
      } else {
        ctx.checker.fail(0, "cache-probe", "result cache did not return what was stored");
      }
    }
  }

  std::printf("traced spans (total / self seconds):\n");
  for (const std::string& name : t.names()) {
    std::printf("  %-22s %10.4f %10.4f\n", name.c_str(), t.total(name), t.self(name));
  }

  return {
      {"trace.gen_mrefs_per_s", tt.gen_refs / tt.gen_s / 1e6, "Mrefs/s", "host"},
      {"trace.gen_share", ratio(tt.gen_s, run_total), "ratio", "host"},
      {"trace.skip_mrefs_per_s", tt.skip_refs / tt.skip_s / 1e6, "Mrefs/s", "host"},
      {"sim.ctor_ms", median(ctor_ms), "ms", "host"},
      {"sim.run_s", run_total, "s", "host"},
      {"sim.self_s", run_total - tt.gen_s - tt.run_skip_s, "s", "host"},
      {"sim.span_coverage", coverage, "ratio", "host"},
      {"sim.run_spec_share", ctor_run / api_total, "ratio", "host"},
      {"sim.warm_s", warm_s, "s", "host"},
      {"sim.warm_mrefs_per_s", ratio(warmed, warm_s) / 1e6, "Mrefs/s", "host"},
      {"sim.duty_cycle", ratio(simulated, covered), "ratio", "count"},
      {"cache.l1_hit_rate", ratio(l1_hit, l1_acc), "ratio", "count"},
      {"cache.llc_accesses_per_kref", 1e3 * ratio(llc_acc, refs), "1/kref", "count"},
      {"cache.lookup_ns", 1e9 * ratio(ct.lookup_s, ct.lookups), "ns", "host"},
      {"cache.fill_ns", 1e9 * ratio(ct.fill_s, ct.fills), "ns", "host"},
      {"predict.query_ns", 1e9 * ratio(ct.query_s, ct.queries), "ns", "host"},
      {"predict.recal_us", 1e6 * median(ct.recal_s), "us", "host"},
      {"predict.recalibrations", recals, "count", "count"},
      {"predict.bypass_ratio", ratio(absent, lookups), "ratio", "count"},
      {"predict.fp_ratio", ratio(fp, lookups), "ratio", "count"},
      {"ckpt.saves", static_cast<double>(saves), "count", "count"},
      {"ckpt.save_ms", 1e3 * ratio(save_cpu, static_cast<double>(saves)), "ms", "host"},
      {"ckpt.load_ms", median(load_ms), "ms", "host"},
      {"harness.queue_wait_s_p50", median(in.queue_wait_s), "s", "host"},
      {"harness.pool_busy_ratio",
       ratio(in.busy_s, in.pass_wall_s * static_cast<double>(in.jobs)), "ratio", "host"},
      {"sweep.cache_store_ms", median(store_ms), "ms", "host"},
      {"sweep.cache_load_ms", median(entry_load_ms), "ms", "host"},
      {"sweep.warm_hit_ratio",
       in.warm_pass_s > 0.0 ? in.warm_hit_ratio : loaded_ok / static_cast<double>(n),
       "ratio", "count"},
      {"sweep.warm_pass_s", in.warm_pass_s > 0.0 ? in.warm_pass_s : sum(entry_load_ms) / 1e3,
       "s", "host"},
      {"obs.overhead_pct", 100.0 * (median(on_s) / median(off_s) - 1.0), "%", "host"},
      {"bench.trace_overhead_pct", 100.0 * (cell_total / api_total - 1.0), "%", "host"},
  };
}

}  // namespace perfbench
