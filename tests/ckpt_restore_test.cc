// Checkpoint/restore bit-identity (src/ckpt + harness/run wiring).  A run
// that checkpoints mid-way, is discarded, and then resumes from the file in
// a fresh process-equivalent simulator must be indistinguishable from an
// uninterrupted run: stats_identical, byte-identical json_report, and a
// byte-identical JSONL event trace — on both engines.  A corrupted
// checkpoint degrades to a cold start (with the file evicted), never to a
// wrong result.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/checkpoint_io.h"
#include "harness/json_report.h"
#include "harness/run.h"
#include "sim/stats.h"
#include "sweep/sweep.h"

namespace redhip {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CkptRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "redhip_ckpt_restore";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RunSpec traced_spec(SimEngine engine, const std::string& trace_name) {
    RunSpec spec;
    spec.bench = BenchmarkId::kMcf;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 8;
    spec.refs_per_core = 20'000;
    spec.seed = 1234;
    spec.engine = engine;
    const std::string path = (dir_ / trace_name).string();
    spec.tweak = [path](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 20'000;  // several epochs over the 160k total
      hc.obs.trace_path = path;
    };
    return spec;
  }

  std::string trace_of(const std::string& trace_name) {
    return slurp((dir_ / trace_name).string());
  }

  std::filesystem::path dir_;
};

void expect_same_run(const SimResult& a, const SimResult& b,
                     const std::string& what) {
  EXPECT_TRUE(stats_identical(a, b)) << what;
  EXPECT_EQ(to_json(a), to_json(b)) << what;
  EXPECT_GT(a.total_refs, 0u) << what;
}

TEST_F(CkptRestoreTest, SaveRestoreBitIdenticalOnEveryEngine) {
  for (SimEngine engine :
       {SimEngine::kFast, SimEngine::kReference}) {
    const std::string name = engine_name(engine);
    const std::string ckpt = (dir_ / (name + ".ckpt")).string();

    // Uninterrupted: the oracle every other run must match.
    const SimResult plain = run_spec(traced_spec(engine, name + "-a.jsonl"));

    // Same run, checkpointing mid-way.  The checkpoint itself must be
    // invisible: this run's stats/report/trace already match the oracle.
    RunSpec saving = traced_spec(engine, name + "-b.jsonl");
    saving.ckpt_path = ckpt;
    saving.ckpt_save_at_refs = 60'000;  // mid-run (160k aggregate refs)
    const SimResult saved = run_spec(saving);
    expect_same_run(plain, saved, name + " with checkpointing on");
    EXPECT_EQ(trace_of(name + "-a.jsonl"), trace_of(name + "-b.jsonl"))
        << name;
    ASSERT_TRUE(std::filesystem::exists(ckpt)) << name;

    // Fresh simulator, restore, continue: still the same run, including the
    // JSONL prefix emitted before the checkpoint was taken.
    RunSpec resuming = traced_spec(engine, name + "-c.jsonl");
    resuming.ckpt_path = ckpt;
    resuming.ckpt_restore = true;
    const SimResult resumed = run_spec(resuming);
    expect_same_run(plain, resumed, name + " restored");
    EXPECT_EQ(trace_of(name + "-a.jsonl"), trace_of(name + "-c.jsonl"))
        << name;
  }
}

// Restoring with an interval configured must not immediately re-save, and
// a restored run keeps checkpointing from where it left off.
TEST_F(CkptRestoreTest, RestoredRunKeepsCheckpointing) {
  const std::string ckpt = (dir_ / "interval.ckpt").string();
  const SimResult plain = run_spec(traced_spec(SimEngine::kFast, "p.jsonl"));

  RunSpec saving = traced_spec(SimEngine::kFast, "q.jsonl");
  saving.ckpt_path = ckpt;
  saving.ckpt_interval_refs = 30'000;
  const SimResult saved = run_spec(saving);
  expect_same_run(plain, saved, "interval checkpointing");
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  RunSpec resuming = traced_spec(SimEngine::kFast, "r.jsonl");
  resuming.ckpt_path = ckpt;
  resuming.ckpt_interval_refs = 30'000;
  resuming.ckpt_restore = true;
  const SimResult resumed = run_spec(resuming);
  expect_same_run(plain, resumed, "restored with interval");
  EXPECT_EQ(trace_of("p.jsonl"), trace_of("r.jsonl"));
}

// Graceful degradation: a corrupt checkpoint is evicted with a DATA_LOSS
// diagnostic and the run cold-starts to the identical result.
TEST_F(CkptRestoreTest, CorruptCheckpointColdStartsAndEvicts) {
  const std::string ckpt = (dir_ / "corrupt.ckpt").string();
  const SimResult plain = run_spec(traced_spec(SimEngine::kFast, "x.jsonl"));

  RunSpec saving = traced_spec(SimEngine::kFast, "y.jsonl");
  saving.ckpt_path = ckpt;
  saving.ckpt_save_at_refs = 60'000;
  run_spec(saving);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Flip one payload byte.
  std::string bytes = slurp(ckpt);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  RunSpec resuming = traced_spec(SimEngine::kFast, "z.jsonl");
  resuming.ckpt_path = ckpt;
  resuming.ckpt_restore = true;
  const SimResult resumed = run_spec(resuming);
  expect_same_run(plain, resumed, "cold start after corruption");
  EXPECT_EQ(trace_of("x.jsonl"), trace_of("z.jsonl"));
  EXPECT_FALSE(std::filesystem::exists(ckpt)) << "corrupt file not evicted";
}

// A checkpoint written past this run's end (a longer run's file under the
// same key) is ignored — but kept on disk for the run it belongs to.
TEST_F(CkptRestoreTest, AheadOfRunCheckpointIsIgnoredNotEvicted) {
  const std::string ckpt = (dir_ / "ahead.ckpt").string();
  RunSpec long_run = traced_spec(SimEngine::kFast, "long.jsonl");
  long_run.ckpt_path = ckpt;
  long_run.ckpt_save_at_refs = 150'000;  // near the end of 160k aggregate
  run_spec(long_run);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  RunSpec short_run = traced_spec(SimEngine::kFast, "short-b.jsonl");
  short_run.refs_per_core = 10'000;  // 80k aggregate < checkpoint position
  short_run.ckpt_path = ckpt;
  short_run.ckpt_restore = true;
  const SimResult got = run_spec(short_run);

  RunSpec short_plain = traced_spec(SimEngine::kFast, "short-a.jsonl");
  short_plain.refs_per_core = 10'000;
  const SimResult want = run_spec(short_plain);
  expect_same_run(want, got, "short run under a longer run's checkpoint");
  EXPECT_EQ(trace_of("short-a.jsonl"), trace_of("short-b.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(ckpt)) << "valid file wrongly evicted";
}

// A checkpoint taken inside a sampled run's warm phase.  Warming restores
// its pure-accounting tallies at the end of every round, before it polls for
// checkpoint actions; a save that captured the round's tallies instead
// would resume with them folded into the counters.  Prefetch is on so the
// discarded prefetch stats are live too.
TEST_F(CkptRestoreTest, MidWarmCheckpointRestoresBitIdentical) {
  for (SimEngine engine : {SimEngine::kFast, SimEngine::kReference}) {
    const std::string name = engine_name(engine);
    RunSpec spec;
    spec.bench = BenchmarkId::kMcf;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 8;
    spec.seed = 1234;
    spec.prefetch = true;
    spec.engine = engine;
    spec.refs_per_core = 40'000;  // four windows
    spec.sampling.mode = SampleMode::kInterval;
    spec.sampling.period_refs = 10'000;
    spec.sampling.window_refs = 1'000;
    spec.sampling.warmup_refs = 2'000;
    const SimResult plain = run_spec(spec);

    // Window 0 skips to 7'000 refs per core (56'000 aggregate over 8
    // cores), then warms to 9'000 in rounds that end at 256-ref chunk
    // boundaries: 57'344, 59'392, 61'440, ...  The save fires at the first
    // poll at or past 60'000, i.e. after the third warm round.
    const std::string ckpt = (dir_ / (name + "-warm.ckpt")).string();
    RunSpec saving = spec;
    saving.ckpt_path = ckpt;
    saving.ckpt_save_at_refs = 60'000;
    expect_same_run(plain, run_spec(saving), name + " saving mid-warm");
    ASSERT_TRUE(std::filesystem::exists(ckpt)) << name;

    RunSpec resuming = spec;
    resuming.ckpt_path = ckpt;
    resuming.ckpt_restore = true;
    expect_same_run(plain, run_spec(resuming), name + " restored mid-warm");
  }
}

// Sweep warmup sharing: cells that differ only in refs_per_core share a
// checkpoint key, so with warmup_refs set the first cell writes one warmup
// file and the others restore from it.  Results must be bit-identical to
// the same sweep run cold, and the shared file must exist (exactly one per
// key — not one per cell).
TEST_F(CkptRestoreTest, SweepWarmupSharingIsBitIdentical) {
  SweepSpec spec;
  spec.base.bench = BenchmarkId::kMcf;
  spec.base.scheme = Scheme::kRedhip;
  spec.base.scale = 8;
  spec.base.seed = 1234;
  SweepAxis refs_axis{"refs", {}};
  for (std::uint64_t refs : {10'000ull, 15'000ull, 20'000ull}) {
    refs_axis.values.push_back({std::to_string(refs), [refs](RunSpec& s) {
                                  s.refs_per_core = refs;
                                }});
  }
  spec.axes.push_back(std::move(refs_axis));

  const SweepOutcome cold = run_sweep(spec, {});

  SweepRunOptions warm;
  warm.ckpt_dir = (dir_ / "sweep-ckpt").string();
  warm.warmup_refs = 40'000;  // inside the smallest cell (80k aggregate)
  warm.jobs = 1;  // serial: later cells see the first cell's warmup file
  const SweepOutcome shared = run_sweep(spec, warm);

  ASSERT_EQ(cold.cells.size(), shared.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    EXPECT_TRUE(shared.cells[i].status.ok());
    EXPECT_TRUE(
        stats_identical(cold.cells[i].result, shared.cells[i].result))
        << "cell " << i;
    EXPECT_GT(shared.cells[i].result.total_refs, 0u);
  }
  // One shared warmup file for the whole refs axis.
  std::size_t files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(warm.ckpt_dir)) {
    files += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace redhip
