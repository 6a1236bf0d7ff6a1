// Functional-warming pins (src/sim/simulator.cc sample_warm_to).
//
// Warming drives the one access path exact runs use, then restores the
// pure-accounting tallies it recorded (per-level probe/fill/eviction/
// invalidation/writeback/skip counts, L2+ access/hit/miss counts, memory
// traffic, simulator-level prefetch stats) so a warm phase leaves them
// untouched.  The fingerprints below were recorded on the build that still
// had a separate warm engine, with those tallies compiled out, next to a
// full-fidelity warming path.  That build's tests proved the two paths equal
// wherever a measurement looks: identical windows and estimates, identical
// tag arrays and predictor state, for every feature mask and both engines.
// Matching its output keeps that result without keeping either path:
//
//  * the whole json_report of the sampled run (windows, estimates,
//    cumulative counters, and the obs epoch series in the obs row);
//  * every tag array's packed entries (tags, LRU, dirty, prefetched bits)
//    at the end of the run;
//  * the full predictor state (CBF counters / PT rows and every
//    PredictorEvents field) through the checkpoint codec.
//
// A tally that leaks out of a warm phase, or a counter that later
// decisions read being restored with the tallies, changes the report hash;
// any drift in the warmed state changes the tag or predictor hash.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/bytestream.h"
#include "common/fnv.h"
#include "harness/json_report.h"
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

struct Fingerprint {
  std::uint64_t report = 0;     // FNV-1a of to_json(result)
  std::uint64_t tags = 0;       // FNV-1a of every level's ckpt_entries()
  std::uint64_t predictor = 0;  // FNV-1a of the LLC predictor's ckpt_save
};

Fingerprint fingerprint(const RunSpec& spec) {
  auto sim = build_sim(spec);
  const SimResult r = spec.engine == SimEngine::kFast
                          ? sim->run(spec.refs_per_core)
                          : sim->run_reference(spec.refs_per_core);
  Fingerprint f;
  const std::string json = to_json(r);
  f.report = fnv1a(json.data(), json.size());
  Fnv1a tags;
  const std::uint32_t n = sim->config().num_levels();
  for (std::uint32_t lvl = 0; lvl < n; ++lvl) {
    // The shared LLC is one array whichever core names it.
    const CoreId cores = lvl + 1 == n ? 1 : sim->config().cores;
    for (CoreId c = 0; c < cores; ++c) {
      for (const std::uint64_t e :
           sim->level_array_for_test(lvl, c).ckpt_entries()) {
        tags.u64(e);
      }
    }
  }
  f.tags = tags.digest();
  if (const LlcPredictor* p = sim->llc_predictor_for_test()) {
    ByteWriter w;
    p->ckpt_save(w);
    f.predictor = fnv1a(w.buffer().data(), w.buffer().size());
  }
  return f;
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

// The feature axes that compose with sampling (fault injection is rejected
// by set_sampling): prefetch x auto-disable x inclusion policy.  config.cc
// models prefetching for the inclusive hierarchy only and auto-disable for
// the single-LLC-predictor (inclusive/hybrid) policies, so these seven are
// the complete feasible grid.
const Mask kMasks[] = {
    {false, false, InclusionPolicy::kInclusive},
    {true, false, InclusionPolicy::kInclusive},
    {false, true, InclusionPolicy::kInclusive},
    {true, true, InclusionPolicy::kInclusive},
    {false, false, InclusionPolicy::kHybrid},
    {false, true, InclusionPolicy::kHybrid},
    {false, false, InclusionPolicy::kExclusive},
};

RunSpec spec_for_mask(const Mask& m, SimEngine engine) {
  RunSpec spec = base_spec();
  spec.engine = engine;
  spec.prefetch = m.prefetch;
  spec.inclusion = m.inclusion;
  if (m.auto_disable) {
    // Epochs tick only inside windows (6 x 800 refs x 8 cores = 38.4k), so
    // short epochs and an unreachable bypass floor make the gate flip, and
    // each re-enable recalibrate, within the run.
    spec.tweak = [](HierarchyConfig& hc) {
      hc.auto_disable.enabled = true;
      hc.auto_disable.epoch_refs = 2'000;
      hc.auto_disable.min_bypass_ppm = 1'000'000;
    };
  }
  return spec;
}

void expect_pinned(const RunSpec& spec, const Fingerprint& pin,
                   const std::string& row) {
  const Fingerprint f = fingerprint(spec);
  EXPECT_EQ(f.report, pin.report) << row << ": report 0x" << std::hex
                                  << f.report;
  EXPECT_EQ(f.tags, pin.tags) << row << ": tag arrays 0x" << std::hex
                              << f.tags;
  EXPECT_EQ(f.predictor, pin.predictor) << row << ": predictor 0x"
                                        << std::hex << f.predictor;
}

// kPins[2 * mask + engine], engine 0 = fast, 1 = reference.  The exclusive
// hierarchy has no shared-LLC predictor, hence a 0 predictor hash.
const Fingerprint kPins[] = {
    {0xc6229ddaa4730770ull, 0x54f28b52302bf939ull,
     0xfdb231eb8eaf840aull},  // incl-pf-ad/fast
    {0xc6229ddaa4730770ull, 0x54f28b52302bf939ull,
     0xfdb231eb8eaf840aull},  // incl-pf-ad/reference
    {0x721393d8746f04d2ull, 0x86428f522f107d27ull,
     0xdb5a91f547e5b827ull},  // incl+pf-ad/fast
    {0x721393d8746f04d2ull, 0x86428f522f107d27ull,
     0xdb5a91f547e5b827ull},  // incl+pf-ad/reference
    {0x1166c3f43fd5b7c9ull, 0x330e1c890ec504b5ull,
     0x38ffe68267f47c2full},  // incl-pf+ad/fast
    {0x1166c3f43fd5b7c9ull, 0x330e1c890ec504b5ull,
     0x38ffe68267f47c2full},  // incl-pf+ad/reference
    {0x25e21c7e81abf6a3ull, 0x11ac19375bde0e17ull,
     0x1066502e11a670c1ull},  // incl+pf+ad/fast
    {0x25e21c7e81abf6a3ull, 0x11ac19375bde0e17ull,
     0x1066502e11a670c1ull},  // incl+pf+ad/reference
    {0x30ab37277bb0f721ull, 0xcd3f19f7968a9e91ull,
     0xfdb231eb8eaf840aull},  // hybr-pf-ad/fast
    {0x30ab37277bb0f721ull, 0xcd3f19f7968a9e91ull,
     0xfdb231eb8eaf840aull},  // hybr-pf-ad/reference
    {0xce1ee3e53ccfeb6cull, 0x36d303303bb9b859ull,
     0xe138cdd2be3c0fd2ull},  // hybr-pf+ad/fast
    {0xce1ee3e53ccfeb6cull, 0x36d303303bb9b859ull,
     0xe138cdd2be3c0fd2ull},  // hybr-pf+ad/reference
    {0xfeb8d5ef8b83a74full, 0xd8c7d72b6202cf57ull,
     0},  // excl-pf-ad/fast
    {0xfeb8d5ef8b83a74full, 0xd8c7d72b6202cf57ull,
     0},  // excl-pf-ad/reference
};

TEST(WarmEngine, PinnedAcrossFeatureMasksAndEngines) {
  for (std::size_t m = 0; m < std::size(kMasks); ++m) {
    for (const SimEngine engine : {SimEngine::kFast, SimEngine::kReference}) {
      const std::size_t e = engine == SimEngine::kFast ? 0 : 1;
      expect_pinned(spec_for_mask(kMasks[m], engine), kPins[2 * m + e],
                    kMasks[m].name() + "/" + engine_name(engine));
    }
  }
}

TEST(WarmEngine, PinnedWithObsEnabled) {
  // Epochs close only at window boundaries and inside windows; the series
  // (part of the report) reads L1 and predictor counters, which warming
  // keeps.
  RunSpec spec = base_spec();
  spec.tweak = [](HierarchyConfig& hc) {
    hc.obs.enabled = true;
    hc.obs.epoch_refs = 40'000;
  };
  expect_pinned(spec,
                {0xdbfa87b301d65adcull, 0x54f28b52302bf939ull,
                 0xfdb231eb8eaf840aull},
                "obs");
}

TEST(WarmEngine, DefaultPlanDigestPinned) {
  // Checkpoint keys, sweep cache cells and window snapshot names all fold
  // this digest, so it must not move.
  SamplingPlan plan;
  plan.mode = SampleMode::kInterval;
  plan.period_refs = 1'000'000;
  plan.window_refs = 10'000;
  plan.warmup_refs = 100'000;
  EXPECT_EQ(sampling_digest(plan), 0xf60c87b7f960bff4ull);
  EXPECT_EQ(sampling_digest(SamplingPlan{}), 0u);
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
