// Statistical verification of the sampling harness (src/sim/sampling.*).
//
// The headline property: across many independently drawn (workload, period,
// window, seed) configurations, the 95% confidence intervals a sampled run
// reports must cover the exact run's value at or above a 90% empirical rate
// per metric.  95% nominal minus estimator bias (ratio estimators, window
// autocorrelation) leaves real margin above 90% when the estimator is
// honest; a broken variance formula or a skip/warm state leak drops
// coverage far below it.
//
// Also pinned here: per-seed determinism (running the same draw twice gives
// the same report, bit for bit), degenerate plans rejected up front as
// INVALID_ARGUMENT (never a NaN interval), and the estimator unit
// arithmetic (t-quantiles, single-value edge cases).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytestream.h"
#include "common/rng.h"
#include "harness/run.h"
#include "sim/sampling.h"
#include "trace/kernels.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

struct Draw {
  BenchmarkId bench;
  std::uint64_t period;
  std::uint64_t window;
  std::uint64_t warmup;
  std::uint64_t windows;  // refs_per_core = period * windows
  std::uint64_t seed;
};

// 200 deterministic draws spanning workloads, period geometries and seeds.
//
// The draws stay inside the regime DESIGN.md documents as trustworthy: the
// fast-forwarded fraction of each period is capped at 25%, so the
// functional warmup rebuilds the deep hierarchy's occupancy at every
// window's position before measurement starts.  Larger skip fractions at
// these short run lengths leave the LLC and predictor visibly behind the
// exact run's state — exactly where the docs say not to trust the CI —
// and drawing from there would test the documentation's warning, not the
// estimator.
std::vector<Draw> make_draws() {
  static const BenchmarkId kBenches[] = {
      BenchmarkId::kMcf,   BenchmarkId::kAstar, BenchmarkId::kBwaves,
      BenchmarkId::kMilc,  BenchmarkId::kPmf,   BenchmarkId::kSoplex,
  };
  static const std::uint64_t kPeriods[] = {8'000, 12'000, 16'000};
  static const std::uint64_t kWindows[] = {400, 800};
  Xoshiro256 rng(0xbead5a11ull);
  std::vector<Draw> draws;
  draws.reserve(200);
  for (int i = 0; i < 200; ++i) {
    Draw d;
    d.bench = kBenches[rng.below(std::size(kBenches))];
    d.period = kPeriods[rng.below(std::size(kPeriods))];
    d.window = kWindows[rng.below(std::size(kWindows))];
    d.warmup = d.period * 3 / 4 - d.window;  // skip = 25% of the period
    d.windows = 12 + rng.below(7);  // 12..18 windows per run
    d.seed = rng.next();
    draws.push_back(d);
  }
  return draws;
}

RunSpec spec_for(const Draw& d, bool sampled) {
  RunSpec spec;
  spec.bench = d.bench;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 32;
  spec.refs_per_core = d.period * d.windows;
  spec.seed = d.seed;
  if (sampled) {
    spec.sampling.mode = SampleMode::kInterval;
    spec.sampling.period_refs = d.period;
    spec.sampling.window_refs = d.window;
    spec.sampling.warmup_refs = d.warmup;
  }
  return spec;
}

double exact_ipc(const SimResult& r) {
  return static_cast<double>(r.total_refs) * 8 /
         static_cast<double>(r.total_core_cycles);
}

TEST(SamplingProperty, CiCoversExactValueAtNinetyPercentRate) {
  const std::vector<Draw> draws = make_draws();
  int n = 0, ipc_covered = 0, hit_covered = 0, energy_covered = 0;
  double ipc_bias = 0, hit_bias = 0, energy_bias = 0;
  double ipc_width = 0, hit_width = 0, energy_width = 0;
  for (const Draw& d : draws) {
    const SimResult exact = run_spec(spec_for(d, /*sampled=*/false));
    const SimResult sampled = run_spec(spec_for(d, /*sampled=*/true));
    ASSERT_TRUE(sampled.sampling.enabled);
    ASSERT_EQ(sampled.sampling.windows, d.windows);
    // A sampled run covers the same reference stream as the exact run.
    ASSERT_EQ(sampled.total_refs, exact.total_refs);
    ++n;
    ipc_covered += sampled.sampling.ipc.covers(exact_ipc(exact)) ? 1 : 0;
    hit_covered +=
        sampled.sampling.l1_hit_rate.covers(exact.hit_rate(0)) ? 1 : 0;
    energy_covered +=
        sampled.sampling.total_energy_j.covers(exact.energy.total_j()) ? 1 : 0;
    ipc_bias += sampled.sampling.ipc.mean / exact_ipc(exact) - 1.0;
    ipc_width += sampled.sampling.ipc.ci95_half / exact_ipc(exact);
    hit_bias += sampled.sampling.l1_hit_rate.mean / exact.hit_rate(0) - 1.0;
    hit_width += sampled.sampling.l1_hit_rate.ci95_half / exact.hit_rate(0);
    energy_bias +=
        sampled.sampling.total_energy_j.mean / exact.energy.total_j() - 1.0;
    energy_width +=
        sampled.sampling.total_energy_j.ci95_half / exact.energy.total_j();
    // No estimate may be degenerate: the plan guarantees >= 2 windows, so
    // every metric carries a finite, non-NaN interval.
    for (const MetricEstimate* e :
         {&sampled.sampling.ipc, &sampled.sampling.l1_hit_rate,
          &sampled.sampling.total_energy_j}) {
      ASSERT_TRUE(std::isfinite(e->mean));
      ASSERT_TRUE(std::isfinite(e->ci95_half));
      ASSERT_GE(e->ci95_half, 0.0);
    }
  }
  ASSERT_EQ(n, 200);
  const double ipc_rate = static_cast<double>(ipc_covered) / n;
  const double hit_rate = static_cast<double>(hit_covered) / n;
  const double energy_rate = static_cast<double>(energy_covered) / n;
  std::printf("empirical 95%%-CI coverage over %d draws: ipc %.3f, "
              "l1_hit_rate %.3f, total_energy %.3f\n",
              n, ipc_rate, hit_rate, energy_rate);
  std::printf("mean relative bias / CI half-width: ipc %+.4f / %.4f, "
              "l1_hit_rate %+.4f / %.4f, total_energy %+.4f / %.4f\n",
              ipc_bias / n, ipc_width / n, hit_bias / n, hit_width / n,
              energy_bias / n, energy_width / n);
  EXPECT_GE(ipc_rate, 0.90);
  EXPECT_GE(hit_rate, 0.90);
  EXPECT_GE(energy_rate, 0.90);
}

TEST(SamplingProperty, ReportsAreDeterministicPerSeed) {
  const std::vector<Draw> draws = make_draws();
  // A spread of draws re-run twice must reproduce the report bit for bit.
  for (std::size_t i = 0; i < draws.size(); i += 37) {
    const SimResult a = run_spec(spec_for(draws[i], /*sampled=*/true));
    const SimResult b = run_spec(spec_for(draws[i], /*sampled=*/true));
    EXPECT_EQ(a.sampling, b.sampling) << "draw " << i;
    EXPECT_EQ(a.total_refs, b.total_refs) << "draw " << i;
    EXPECT_EQ(a.exec_cycles, b.exec_cycles) << "draw " << i;
  }
}

void expect_invalid(RunSpec spec, const std::string& what) {
  try {
    run_spec(spec);
    FAIL() << what << ": expected INVALID_ARGUMENT, run succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("INVALID_ARGUMENT"),
              std::string::npos)
        << what << ": wrong error: " << e.what();
  }
}

TEST(SamplingProperty, DegeneratePlansAreInvalidArgumentNotNan) {
  RunSpec base;
  base.bench = BenchmarkId::kMcf;
  base.scheme = Scheme::kRedhip;
  base.scale = 8;
  base.refs_per_core = 50'000;
  base.sampling.mode = SampleMode::kInterval;

  {
    RunSpec s = base;  // window >= period
    s.sampling.period_refs = 1'000;
    s.sampling.window_refs = 1'000;
    expect_invalid(s, "window == period");
  }
  {
    RunSpec s = base;  // warmup + window overflow the period
    s.sampling.period_refs = 1'000;
    s.sampling.window_refs = 400;
    s.sampling.warmup_refs = 700;
    expect_invalid(s, "warmup + window > period");
  }
  {
    RunSpec s = base;  // warmup + window exactly fill the period: zero skip
    s.sampling.period_refs = 1'000;
    s.sampling.window_refs = 400;
    s.sampling.warmup_refs = 600;
    expect_invalid(s, "warmup + window == period");
  }
  {
    RunSpec s = base;  // zero-length period
    s.sampling.period_refs = 0;
    s.sampling.window_refs = 100;
    expect_invalid(s, "period == 0");
  }
  {
    RunSpec s = base;  // zero-length window
    s.sampling.period_refs = 1'000;
    s.sampling.window_refs = 0;
    expect_invalid(s, "window == 0");
  }
  {
    RunSpec s = base;  // run too short: fewer than two complete periods
    s.sampling.period_refs = 40'000;
    s.sampling.window_refs = 1'000;
    expect_invalid(s, "fewer than two windows");
  }
  {
    RunSpec s = base;  // exactly one window is still not a variance
    s.refs_per_core = 1'999;
    s.sampling.period_refs = 1'000;
    s.sampling.window_refs = 100;
    expect_invalid(s, "one full window");
  }
}

TEST(SamplingProperty, EstimatorArithmetic) {
  // Hand-checked t-interval: n=5, mean 3, sample sd sqrt(2.5).
  const MetricEstimate e = estimate_mean({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(e.mean, 3.0);
  const double expect_half = 2.776 * std::sqrt(2.5 / 5.0);
  EXPECT_NEAR(e.ci95_half, expect_half, 1e-12);
  EXPECT_TRUE(e.covers(3.0));
  EXPECT_TRUE(e.covers(e.lo()));
  EXPECT_TRUE(e.covers(e.hi()));
  EXPECT_FALSE(e.covers(e.hi() + 1e-9));

  // Degenerate inputs have zero half-width, never NaN.
  const MetricEstimate empty = estimate_mean({});
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.ci95_half, 0.0);
  const MetricEstimate single = estimate_mean({7.0});
  EXPECT_DOUBLE_EQ(single.mean, 7.0);
  EXPECT_EQ(single.ci95_half, 0.0);
}

// The fast-forward contract: trace->skip(n) leaves the generator in
// exactly the state n generated-and-discarded references would.  The
// RNG-driven kernels' skip is derived from the same step() their next()
// runs (kernels.cc), so there is no hand-copied twin to drift; what this
// pins is the scheduler's skip (burst chunking, the gap-draw replay) and
// the stencil's closed-form counter jump, on every workload profile.
// Odd skip lengths deliberately land mid-burst, mid-gather-group and
// mid-row so the resumed state is interior, not a clean boundary.
TEST(SamplingProperty, SkipMatchesGenerate) {
  std::vector<MemRef> buf(4096);
  std::vector<MemRef> want(4096);
  for (BenchmarkId bench : all_benchmarks()) {
    for (std::uint64_t gap : {std::uint64_t{1}, std::uint64_t{997},
                              std::uint64_t{12'345}, std::uint64_t{100'003}}) {
      auto skipped = make_workload(bench, 0, 8, 777);
      auto generated = make_workload(bench, 0, 8, 777);
      skipped->skip(gap);
      std::uint64_t left = gap;
      while (left > 0) {
        const std::size_t chunk =
            static_cast<std::size_t>(std::min<std::uint64_t>(left, buf.size()));
        ASSERT_EQ(generated->next_batch(buf.data(), chunk), chunk);
        left -= chunk;
      }
      ASSERT_EQ(skipped->next_batch(buf.data(), buf.size()), buf.size());
      ASSERT_EQ(generated->next_batch(want.data(), want.size()), want.size());
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], want[i])
            << to_string(bench) << " skip " << gap << " ref " << i;
      }
    }
  }
}

// Kernel-level skip contract for constructor variants no make_workload
// profile builds, so SkipMatchesGenerate cannot reach them: after
// skip(n, gap_rng, bound), the kernel, its checkpointed state and the gap
// stream must match n x (next + one gap draw).  Each pair first runs an
// odd number of references so the skip starts mid-pattern (for the
// stencil, at an odd point inside a cell).
TEST(SamplingProperty, KernelSkipMatchesGenerateOnUnprofiledVariants) {
  const Region r{0x100000, 256_KiB};
  const struct {
    const char* name;
    std::function<std::unique_ptr<Kernel>()> make;
  } variants[] = {
      {"chase payload_lines=0",
       [&] {
         return std::make_unique<PointerChaseKernel>(r, /*payload_lines=*/0,
                                                     200'000, 0x300, 5);
       }},
      {"sparse zipf_k=0 gather_elems=3",
       [] {
         return std::make_unique<SparseGatherKernel>(
             Region{0x100000, 64_KiB}, Region{0x200000, 1_MiB},
             Region{0x400000, 64_KiB}, /*gathers_per_index=*/4, 100'000,
             800'000, 0x400, 11, /*zipf_k=*/0, /*gather_elems=*/3);
       }},
      {"stream repeats=3",
       [&] {
         return std::make_unique<StreamKernel>(r, 3, 8, 300'000, 0x100, 7,
                                               /*repeats=*/3);
       }},
      {"stencil",
       [&] { return std::make_unique<StencilKernel>(r, 16, 8, 4, 0x200); }},
  };
  for (const auto& v : variants) {
    for (int lead : {1, 3, 5}) {
      for (std::uint64_t n : {0, 1, 7, 333, 4097}) {
        for (std::uint64_t bound : {1, 3, 7}) {
          SCOPED_TRACE(std::string(v.name) + " lead " + std::to_string(lead) +
                       " skip " + std::to_string(n) + " bound " +
                       std::to_string(bound));
          auto skipped = v.make();
          auto generated = v.make();
          MemRef got, want;
          for (int i = 0; i < lead; ++i) {
            skipped->next(got);
            generated->next(want);
          }
          Xoshiro256 skip_gaps(99), gen_gaps(99);
          skipped->skip(n, skip_gaps, bound);
          for (std::uint64_t i = 0; i < n; ++i) {
            generated->next(want);
            gen_gaps.below(bound);
          }
          ByteWriter skip_state, gen_state;
          skipped->ckpt_save(skip_state);
          generated->ckpt_save(gen_state);
          ASSERT_EQ(skip_state.buffer(), gen_state.buffer());
          ASSERT_EQ(skip_gaps.next(), gen_gaps.next());
          for (int i = 0; i < 64; ++i) {
            skipped->next(got);
            generated->next(want);
            ASSERT_EQ(got, want) << "ref " << i << " after the skip";
          }
        }
      }
    }
  }
}

TEST(SamplingProperty, PlanValidationIsExhaustive) {
  SamplingPlan p;
  EXPECT_TRUE(p.validate(1'000).ok());  // off: always valid
  p.mode = SampleMode::kInterval;
  p.period_refs = 1'000;
  p.window_refs = 100;
  p.warmup_refs = 200;
  EXPECT_TRUE(p.validate(10'000).ok());
  EXPECT_EQ(p.windows_for(10'000), 10u);
  EXPECT_EQ(p.validate(1'500).code(), StatusCode::kInvalidArgument);
  p.window_refs = 1'000;
  EXPECT_EQ(p.validate(10'000).code(), StatusCode::kInvalidArgument);
  // Zero skip distance (warmup + window == period) silently degenerates to
  // a wall-to-wall run; it must be rejected, and the diagnostic must name
  // the flags and their values so the fix is obvious from the message.
  p.window_refs = 100;
  p.warmup_refs = 900;
  const Status zero_skip = p.validate(10'000);
  EXPECT_EQ(zero_skip.code(), StatusCode::kInvalidArgument);
  for (const char* needle : {"--sample-warmup", "--sample-window",
                             "--sample-period", "900", "100", "1000"}) {
    EXPECT_NE(zero_skip.to_string().find(needle), std::string::npos)
        << "diagnostic missing " << needle << ": " << zero_skip.to_string();
  }
  p.warmup_refs = 899;  // one reference of skip is enough to be a plan again
  EXPECT_TRUE(p.validate(10'000).ok());
}

}  // namespace
}  // namespace redhip
