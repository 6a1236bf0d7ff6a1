// Warm-engine equivalence (src/sim/simulator.cc sample_warm_loop<kWarm>).
//
// The warm engine's contract: a sampled run warmed by the specialized loop
// (SampleWarmMode::kWarm) is indistinguishable from one warmed at full
// fidelity (kFull) everywhere a measurement can look.  The elided work is
// pure accounting — per-level probe/fill/eviction/writeback tallies, memory
// traffic, prefetch issue stats — and none of it feeds state that a later
// window touches.  Pinned here, for every run-loop feature mask and every
// engine:
//
//  * every measurement window is element-wise identical (same refs, same
//    core cycles, same L1 access/hit deltas) — which transitively pins the
//    window-start trace position and RNG state: one extra or missing RNG
//    draw during a warm phase would shift every subsequent window's
//    reference stream and change its counters on the first reference;
//  * the IPC and L1-hit-rate estimates are bit-identical (integer deltas in,
//    same doubles out), and the energy estimate agrees to FP-differencing
//    noise (the elided-counter contribution to cumulative energy is equal
//    in both boundary snapshots of a window, so it cancels in the delta —
//    but the absolute magnitudes differ, so the subtraction reassociates);
//  * all warm-relevant end-of-run structures are element-wise identical:
//    every tag array's packed entries (tags, LRU, dirty, prefetched bits)
//    and the full ReDHiP predictor state (CBF counters / PT rows and every
//    PredictorEvents field, serialized through the checkpoint codec);
//  * the per-core clocks agree (clocks only advance inside windows);
//  * the observability epoch series agrees (epochs read L1 and predictor
//    counters, all of which the warm engine keeps exact).
//
// The TagArray operations themselves are untouched by the warm engine (it
// calls the same lookup/fill/invalidate paths, only the surrounding tallies
// are compiled out), so tagarray_fuzz.h's model coverage carries over
// unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bytestream.h"
#include "harness/run.h"
#include "sim/sampling.h"
#include "sim/simulator.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

RunSpec base_spec() {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 32;
  spec.seed = 4242;
  spec.sampling.mode = SampleMode::kInterval;
  spec.sampling.period_refs = 8'000;
  spec.sampling.window_refs = 800;
  spec.sampling.warmup_refs = 2'000;
  spec.refs_per_core = 8'000 * 6;  // six windows
  return spec;
}

// Build the simulator exactly like run_spec does, but keep the object so
// the test can inspect internal state after the run.
std::unique_ptr<MulticoreSimulator> build_sim(const RunSpec& spec) {
  const HierarchyConfig config = resolved_config(spec);
  std::vector<std::unique_ptr<TraceSource>> traces;
  std::vector<std::uint32_t> cpis;
  for (CoreId c = 0; c < config.cores; ++c) {
    traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
    cpis.push_back(workload_cpi_centi(spec.bench, c));
  }
  auto s = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                std::move(cpis));
  s->set_sampling(spec.sampling);
  return s;
}

std::vector<std::uint8_t> predictor_state(const MulticoreSimulator& sim) {
  const LlcPredictor* p = sim.llc_predictor_for_test();
  if (p == nullptr) return {};
  ByteWriter w;
  p->ckpt_save(w);
  return w.buffer();
}

// Everything a window can see must match exactly; energy to FP noise.
void expect_windows_identical(const SamplingReport& warm,
                              const SamplingReport& full,
                              const std::string& label) {
  ASSERT_EQ(warm.windows, full.windows) << label;
  ASSERT_EQ(warm.window_samples.size(), full.window_samples.size()) << label;
  for (std::size_t i = 0; i < warm.window_samples.size(); ++i) {
    const WindowSample& a = warm.window_samples[i];
    const WindowSample& b = full.window_samples[i];
    EXPECT_EQ(a.index, b.index) << label << " window " << i;
    EXPECT_EQ(a.start_refs, b.start_refs) << label << " window " << i;
    EXPECT_EQ(a.refs, b.refs) << label << " window " << i;
    EXPECT_EQ(a.core_cycles, b.core_cycles) << label << " window " << i;
    EXPECT_EQ(a.l1_accesses, b.l1_accesses) << label << " window " << i;
    EXPECT_EQ(a.l1_hits, b.l1_hits) << label << " window " << i;
    EXPECT_NEAR(a.energy_j, b.energy_j,
                1e-9 * std::max(std::abs(b.energy_j), 1.0))
        << label << " window " << i;
  }
  // Integer deltas in, identical doubles out.
  EXPECT_EQ(warm.ipc.mean, full.ipc.mean) << label;
  EXPECT_EQ(warm.ipc.ci95_half, full.ipc.ci95_half) << label;
  EXPECT_EQ(warm.l1_hit_rate.mean, full.l1_hit_rate.mean) << label;
  EXPECT_EQ(warm.l1_hit_rate.ci95_half, full.l1_hit_rate.ci95_half) << label;
  EXPECT_NEAR(warm.total_energy_j.mean, full.total_energy_j.mean,
              1e-9 * std::max(std::abs(full.total_energy_j.mean), 1.0))
      << label;
  // Phase totals: the two modes walk the identical skip/warm/measure
  // schedule.
  EXPECT_EQ(warm.skipped_refs, full.skipped_refs) << label;
  EXPECT_EQ(warm.warmed_refs, full.warmed_refs) << label;
  EXPECT_EQ(warm.measured_refs, full.measured_refs) << label;
}

void expect_state_identical(const MulticoreSimulator& warm,
                            const MulticoreSimulator& full,
                            const std::string& label) {
  const std::uint32_t n = warm.config().num_levels();
  const std::uint32_t cores = warm.config().cores;
  for (std::uint32_t lvl = 0; lvl < n; ++lvl) {
    for (CoreId c = 0; c < cores; ++c) {
      const TagArray& a = warm.level_array_for_test(lvl, c);
      const TagArray& b = full.level_array_for_test(lvl, c);
      ASSERT_EQ(a.ckpt_entries().size(), b.ckpt_entries().size())
          << label << " L" << lvl + 1 << " core " << c;
      EXPECT_EQ(a.ckpt_entries(), b.ckpt_entries())
          << label << " L" << lvl + 1 << " core " << c
          << ": tag/LRU/dirty state diverged";
    }
  }
  EXPECT_EQ(predictor_state(warm), predictor_state(full))
      << label << ": predictor CBF/PT state or events diverged";
}

struct Mask {
  bool prefetch;
  bool auto_disable;
  InclusionPolicy inclusion;
  std::string name() const {
    std::string s = inclusion == InclusionPolicy::kInclusive ? "incl"
                    : inclusion == InclusionPolicy::kHybrid  ? "hybr"
                                                             : "excl";
    s += prefetch ? "+pf" : "-pf";
    s += auto_disable ? "+ad" : "-ad";
    return s;
  }
};

// The run loop's specialization axes that compose with sampling (fault
// injection is rejected by set_sampling): prefetch x auto-disable x
// inclusion policy.  Every access path the warm engine templates is on
// this grid — inclusive/hybrid/exclusive traversals, the prefetch filter
// and fill chain, and the auto-disable epoch reads of L1 + predictor
// counters (which must see identical values in both modes or gate
// decisions would diverge).  config.cc restricts the composition —
// prefetching is modeled for the inclusive hierarchy only, auto-disable
// for the single-LLC-predictor (inclusive/hybrid) policies — so this is
// the complete feasible grid, not a sample of it.
std::vector<Mask> masks() {
  return {
      {false, false, InclusionPolicy::kInclusive},
      {true, false, InclusionPolicy::kInclusive},
      {false, true, InclusionPolicy::kInclusive},
      {true, true, InclusionPolicy::kInclusive},
      {false, false, InclusionPolicy::kHybrid},
      {false, true, InclusionPolicy::kHybrid},
      {false, false, InclusionPolicy::kExclusive},
  };
}

RunSpec spec_for_mask(const Mask& m) {
  RunSpec spec = base_spec();
  spec.prefetch = m.prefetch;
  spec.inclusion = m.inclusion;
  if (m.auto_disable) {
    spec.tweak = [](HierarchyConfig& hc) {
      hc.auto_disable.enabled = true;
      hc.auto_disable.epoch_refs = 50'000;
    };
  }
  return spec;
}

TEST(WarmEngine, EquivalentToFullFidelityWarmingAcrossFeatureMasks) {
  for (const Mask& m : masks()) {
    RunSpec spec = spec_for_mask(m);
    spec.sampling.warm_mode = SampleWarmMode::kWarm;
    auto warm_sim = build_sim(spec);
    const SimResult warm = warm_sim->run(spec.refs_per_core);

    spec.sampling.warm_mode = SampleWarmMode::kFull;
    auto full_sim = build_sim(spec);
    const SimResult full = full_sim->run(spec.refs_per_core);

    expect_windows_identical(warm.sampling, full.sampling, m.name());
    expect_state_identical(*warm_sim, *full_sim, m.name());
    // Clocks advance only inside windows; equality here means every window
    // simulated the identical reference stream from identical state.
    EXPECT_EQ(warm.core_cycles, full.core_cycles) << m.name();
    EXPECT_EQ(warm.exec_cycles, full.exec_cycles) << m.name();
    EXPECT_EQ(warm.total_refs, full.total_refs) << m.name();
    // L1 events and all predictor events are exact under the warm engine
    // (snapshots, auto-disable and obs epochs read them); deeper-level
    // events are the documented elision.
    ASSERT_FALSE(warm.levels.empty());
    EXPECT_EQ(warm.levels[0].accesses, full.levels[0].accesses) << m.name();
    EXPECT_EQ(warm.levels[0].hits, full.levels[0].hits) << m.name();
    EXPECT_EQ(warm.levels[0].misses, full.levels[0].misses) << m.name();
    EXPECT_EQ(warm.predictor, full.predictor) << m.name();
    EXPECT_EQ(warm.recal_stall_cycles, full.recal_stall_cycles) << m.name();
    EXPECT_EQ(warm.predictor_disabled_refs, full.predictor_disabled_refs)
        << m.name();
  }
}

TEST(WarmEngine, EquivalentAcrossEngines) {
  // One predictor-rich mask, both engines: the warm loop is shared by
  // run/run_reference through run_sampled, so each engine's
  // sampled report must be warm/full-invariant (and engines must agree
  // with each other, which engine_equivalence_test pins for exact runs).
  RunSpec spec = base_spec();
  spec.prefetch = true;

  for (int engine = 0; engine < 2; ++engine) {
    const char* name = engine == 0 ? "fast" : "ref";
    SimResult results[2];
    std::unique_ptr<MulticoreSimulator> sims[2];
    for (int mode = 0; mode < 2; ++mode) {
      spec.sampling.warm_mode =
          mode == 0 ? SampleWarmMode::kWarm : SampleWarmMode::kFull;
      sims[mode] = build_sim(spec);
      results[mode] = engine == 0
                          ? sims[mode]->run(spec.refs_per_core)
                          : sims[mode]->run_reference(spec.refs_per_core);
    }
    expect_windows_identical(results[0].sampling, results[1].sampling, name);
    expect_state_identical(*sims[0], *sims[1], name);
    EXPECT_EQ(results[0].core_cycles, results[1].core_cycles) << name;
  }
}

TEST(WarmEngine, ObsEpochSeriesIsWarmModeInvariant) {
  // The observability epoch series samples L1 and predictor counters — all
  // kept exact by the warm engine — so a sampled run's epoch series must
  // not depend on the warm mode.  (Epoch refs tick only inside windows,
  // where both modes run the identical full-fidelity loop.)
  RunSpec spec = base_spec();
  SimResult results[2];
  for (int mode = 0; mode < 2; ++mode) {
    spec.sampling.warm_mode =
        mode == 0 ? SampleWarmMode::kWarm : SampleWarmMode::kFull;
    spec.tweak = [](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 40'000;
    };
    results[mode] = run_spec(spec);
  }
  EXPECT_EQ(results[0].epochs, results[1].epochs);
  expect_windows_identical(results[0].sampling, results[1].sampling, "obs");
}

TEST(WarmEngine, FullModeMatchesPrePrSampledDigest) {
  // --sample-warm-mode=full must be bit-identical to pre-warm-engine
  // sampled runs; the artifact keys are part of that contract.  A full-mode
  // plan's digest must not mention warm_mode at all (same bytes as before
  // the field existed), while the warm default digests differently so
  // checkpoints and sweep cells never cross-restore between modes.
  SamplingPlan full;
  full.mode = SampleMode::kInterval;
  full.period_refs = 1'000'000;
  full.window_refs = 10'000;
  full.warmup_refs = 100'000;
  full.warm_mode = SampleWarmMode::kFull;

  // Pre-PR value of this plan's digest, recorded before warm_mode existed.
  // kFull must keep hashing to exactly this so existing checkpoint files
  // and sweep cache cells stay addressable.
  EXPECT_EQ(sampling_digest(full), 0xa2a62033951dd283ull);

  SamplingPlan warm = full;
  warm.warm_mode = SampleWarmMode::kWarm;
  EXPECT_NE(sampling_digest(warm), sampling_digest(full));

  SamplingPlan off;
  EXPECT_EQ(sampling_digest(off), 0u);
}

TEST(WarmEngine, WindowSnapshotPathDerivation) {
  EXPECT_EQ(window_snapshot_path("run.ckpt", 0), "run_w0.ckpt");
  EXPECT_EQ(window_snapshot_path("a/b/run.ckpt", 3), "a/b/run_w3.ckpt");
  EXPECT_EQ(window_snapshot_path("run", 7), "run_w7");
}

// Tentpole sharing property: a sampled run with checkpointing drops warm
// snapshots at window opens 0, 1, 3, 7, ... (w+1 a power of two), and a
// *different* run of the same cell — here a shorter ref count and then a
// different engine, the two axes deliberately excluded from the snapshot
// key — cold-starts from the deepest snapshot its own window count still
// contains and produces output bit-identical to running from scratch.
// warm_host_seconds is the witness that the resume actually happened: it
// is accumulated on the host, never checkpointed, so a run that skipped
// all its warm phases reports only no-op dispatch overhead (sub-µs timer
// reads) where a genuine cold start pays for warming tens of thousands of
// references — orders of magnitude apart.
TEST(WarmEngine, WindowSnapshotsShareWarmStateAcrossRefsAndEngine) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "redhip_warm_snap";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ckpt = (dir / "cell.ckpt").string();

  RunSpec writer = base_spec();  // six windows
  writer.ckpt_path = ckpt;
  run_spec(writer);
  // Six windows -> snapshots at opens 0, 1 and 3 (7 never opens); the main
  // checkpoint was never requested (no interval, no save-at).
  for (std::uint64_t w : {0ull, 1ull, 3ull}) {
    EXPECT_TRUE(fs::exists(window_snapshot_path(ckpt, w))) << w;
  }
  EXPECT_FALSE(fs::exists(window_snapshot_path(ckpt, 7)));
  EXPECT_FALSE(fs::exists(ckpt));

  // A 4-window run of the same cell: the oracle is a plain cold start.
  RunSpec shorter = base_spec();
  shorter.refs_per_core = 8'000 * 4;
  const SimResult cold = run_spec(shorter);
  EXPECT_GT(cold.warm_host_seconds, 0.0);

  shorter.ckpt_path = ckpt;
  shorter.ckpt_restore = true;
  const SimResult resumed = run_spec(shorter);
  EXPECT_TRUE(stats_identical(cold, resumed));
  // Restored at window 3's open: windows 0-2 and every warm phase were
  // skipped entirely.
  EXPECT_LT(resumed.warm_host_seconds, cold.warm_host_seconds * 0.1);

  // Engine is not part of the address either: the reference engine resumes
  // from the fast engine's snapshot, bit-identically.
  shorter.engine = SimEngine::kReference;
  const SimResult ref_resumed = run_spec(shorter);
  EXPECT_TRUE(stats_identical(cold, ref_resumed));
  EXPECT_LT(ref_resumed.warm_host_seconds, cold.warm_host_seconds * 0.1);

  // A torn deepest snapshot is evicted with a DATA_LOSS warning and the
  // scan falls back to the next-deepest — never a wrong result.
  shorter.engine = SimEngine::kFast;
  {
    std::ofstream torn(window_snapshot_path(ckpt, 3),
                       std::ios::binary | std::ios::trunc);
    torn << "torn";
  }
  const SimResult fallback = run_spec(shorter);
  EXPECT_TRUE(stats_identical(cold, fallback));

  fs::remove_all(dir);
}

}  // namespace
}  // namespace redhip
