// micro_tagarray — google-benchmark suite for the structures the fast
// engine's per-reference critical path lives in: the SoA TagArray (partial
// tag lane scan + packed-entry verify + rank-row LRU promote) and the
// counting Bloom filter's probe.  Each benchmark isolates one hot operation
// so a layout or indexing change shows up as a per-op delta instead of
// being smeared across an end-to-end run (bench_speed measures that).
//
// These measure the *simulator's* software performance, not the modeled
// hardware.  Built only when google-benchmark is available (same optional
// gate as microbench).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cache/tag_array.h"
#include "common/rng.h"
#include "predict/counting_bloom.h"

namespace {

using namespace redhip;

constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;

// A 1 MiB array with the given associativity, warmed to full occupancy so
// every probe scans a steady-state set (the lane scan's worst case: every
// lane word valid).
TagArray make_full_array(std::uint32_t ways) {
  CacheGeometry g;
  g.size_bytes = std::uint64_t{1} << 20;
  g.ways = ways;
  TagArray arr(g);
  Xoshiro256 rng(11);
  while (arr.valid_count() < g.lines()) {
    const LineAddr line = rng.next() >> 12;
    TagArray::FillResult fr;
    arr.fill_if_absent(line, false, false, &fr);
  }
  return arr;
}

// Hit path: probe resident lines, so every lookup runs the full
// lane-match -> entry-verify -> prefetched-consume -> LRU-promote chain.
void BM_TagArrayLookupHit(benchmark::State& state) {
  TagArray arr = make_full_array(static_cast<std::uint32_t>(state.range(0)));
  std::vector<LineAddr> resident;
  for (std::uint64_t s = 0; s < arr.sets(); ++s) {
    arr.visit_valid_in_set(s, [&](LineAddr l) { resident.push_back(l); });
  }
  std::uint64_t x = 13;
  for (auto _ : state) {
    x = x * kLcgMul + kLcgAdd;
    benchmark::DoNotOptimize(arr.lookup(resident[(x >> 32) % resident.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + "-way hit");
}
BENCHMARK(BM_TagArrayLookupHit)->Arg(8)->Arg(16);

// Miss path: probe lines that are (almost) never resident.  This is the
// case the SoA split targets — a definite miss is decided from the dense
// 16-bit lane alone, without touching the packed entries.
void BM_TagArrayLookupMiss(benchmark::State& state) {
  TagArray arr = make_full_array(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t x = 29;
  for (auto _ : state) {
    x = x * kLcgMul + kLcgAdd;
    // High-entropy tags far outside the warmed range: misses.
    benchmark::DoNotOptimize(arr.lookup((x >> 8) | (std::uint64_t{1} << 40)));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + "-way miss");
}
BENCHMARK(BM_TagArrayLookupMiss)->Arg(8)->Arg(16);

// Promote-only: repeated hits on a tiny working set, so the rank-row LRU
// rotation dominates over the tag match.
void BM_TagArrayPromote(benchmark::State& state) {
  TagArray arr = make_full_array(16);
  std::vector<LineAddr> hot;
  arr.visit_valid_in_set(0, [&](LineAddr l) { hot.push_back(l); });
  std::uint64_t x = 5;
  for (auto _ : state) {
    x = x * kLcgMul + kLcgAdd;
    benchmark::DoNotOptimize(arr.lookup(hot[(x >> 40) % hot.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayPromote);

// Fill/evict steady state: every fill_if_absent on a full array either
// verifies residency or picks the rank-row LRU victim and overwrites —
// the back-invalidation-heavy benches spend their time here.
void BM_TagArrayFillEvict(benchmark::State& state) {
  TagArray arr = make_full_array(16);
  std::uint64_t x = 99;
  for (auto _ : state) {
    x = x * kLcgMul + kLcgAdd;
    TagArray::FillResult fr;
    benchmark::DoNotOptimize(arr.fill_if_absent(x >> 12, false, false, &fr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayFillEvict);

// CBF probe: the branch-free xor-fold index plus the min-of-counters read.
void BM_CbfProbe(benchmark::State& state) {
  CbfConfig c = CbfConfig::for_area_budget(std::uint64_t{512} << 10);
  CountingBloomFilter f(c);
  Xoshiro256 rng(7);
  for (int i = 0; i < 200'000; ++i) f.on_fill(rng.next() >> 16);
  std::uint64_t x = 3;
  for (auto _ : state) {
    x = x * kLcgMul + kLcgAdd;
    benchmark::DoNotOptimize(f.query(x >> 16));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CbfProbe);

}  // namespace

BENCHMARK_MAIN();
