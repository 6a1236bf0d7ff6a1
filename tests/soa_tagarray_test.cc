// SoA tag-array equivalence: the partial-tag-lane layout must be
// observably identical to a plain per-way model (tagarray_fuzz.h), the
// derived lanes must survive checkpoint restore, and a randomized sample of
// full simulations must stay bit-identical between the fast and reference
// engines across schemes, inclusion policies, and every feature
// combination.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fnv.h"
#include "harness/run.h"
#include "sim/stats.h"
#include "tagarray_fuzz.h"

namespace redhip {
namespace {

TEST(SoaTagArray, RandomizedEquivalenceVsShadowModel) {
  std::uint64_t seed = 0xF00D;
  for (const CacheGeometry& g : fuzz::fuzz_geometries()) {
    SCOPED_TRACE("ways=" + std::to_string(g.ways));
    fuzz::fuzz_against_shadow(g, seed++, 20'000);
  }
}

// Build two arrays that should be in identical states and require they
// behave identically under a shared random op stream.
void expect_arrays_equivalent(TagArray& a, TagArray& b,
                              const CacheGeometry& g, std::uint64_t seed) {
  ASSERT_EQ(a.valid_count(), b.valid_count());
  for (std::uint64_t s = 0; s < g.sets(); ++s) {
    std::vector<LineAddr> la, lb;
    a.visit_valid_in_set(s, [&](LineAddr l) { la.push_back(l); });
    b.visit_valid_in_set(s, [&](LineAddr l) { lb.push_back(l); });
    ASSERT_EQ(la, lb) << "set " << s;
    for (LineAddr l : la) ASSERT_EQ(a.is_dirty(l), b.is_dirty(l));
  }
  // Behavioural check: fills exercise the lane-derived invalid-way choice
  // and the replacement state, which the state walk above cannot see.
  Xoshiro256 rng(seed);
  for (int i = 0; i < 2'000; ++i) {
    const LineAddr line = fuzz::random_line(rng, g);
    TagArray::FillResult fa, fb;
    const bool ra = a.fill_if_absent(line, false, (i & 1) != 0, &fa);
    const bool rb = b.fill_if_absent(line, false, (i & 1) != 0, &fb);
    ASSERT_EQ(ra, rb) << "fill " << i;
    if (ra) {
      ASSERT_EQ(fa.way, fb.way) << "fill " << i;
      ASSERT_EQ(fa.evicted, fb.evicted) << "fill " << i;
      ASSERT_EQ(fa.victim, fb.victim) << "fill " << i;
    }
    const auto la = a.lookup(line);
    const auto lb = b.lookup(line);
    ASSERT_EQ(la.hit, lb.hit);
    ASSERT_EQ(la.way, lb.way);
  }
}

// Churn an array into an arbitrary state: fills, hits, dirties,
// invalidations.
void churn(TagArray& arr, const CacheGeometry& g, std::uint64_t seed,
           int ops) {
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const LineAddr line = fuzz::random_line(rng, g);
    switch (rng.below(4)) {
      case 0:
      case 1: {
        TagArray::FillResult fr;
        arr.fill_if_absent(line, rng.below(2) != 0, rng.below(2) != 0, &fr);
        break;
      }
      case 2:
        arr.lookup(line, rng.below(2) != 0);
        break;
      case 3:
        arr.invalidate(line);
        break;
    }
  }
}

TEST(SoaTagArray, CheckpointRoundTripRebuildsLanes) {
  CacheGeometry g;
  g.ways = 16;
  g.size_bytes = 64 * 16 * std::uint64_t{64};
  TagArray arr(g);
  churn(arr, g, 0xC0FFEE, 30'000);

  // Round-trip the packed entries into a fresh array; the partial-tag
  // lanes are not serialized, so equivalence proves the rebuild.
  TagArray restored(g);
  ASSERT_TRUE(restored.ckpt_restore_entries(arr.ckpt_entries()));
  expect_arrays_equivalent(arr, restored, g, 0xBEEF);

  // Size mismatch must be rejected, not truncated.
  CacheGeometry small = g;
  small.size_bytes /= 2;
  TagArray other(small);
  EXPECT_FALSE(other.ckpt_restore_entries(arr.ckpt_entries()));
}

// The checkpoint payload format is pinned: ckpt_entries() after a fixed
// churn hashes to the values recorded before the LRU ranks moved out of the
// entries into per-set rank rows, so checkpoints and sweep snapshots
// written by older builds still restore.
TEST(SoaTagArray, CheckpointEntriesFormatIsPinned) {
  const struct {
    std::uint32_t ways;
    std::uint64_t fnv;
  } cases[] = {{4, 0xab48c58573b6691eull},
               {8, 0x883c932a7d10401dull},
               {16, 0x33114b30db4a53f3ull}};
  for (const auto& c : cases) {
    CacheGeometry g;
    g.ways = c.ways;
    g.size_bytes = 64 * c.ways * std::uint64_t{64};
    TagArray arr(g);
    churn(arr, g, 0xC0FFEE, 30'000);
    Fnv1a h;
    for (std::uint64_t e : arr.ckpt_entries()) h.u64(e);
    EXPECT_EQ(h.digest(), c.fnv) << "ways=" << c.ways;
  }
}

// A payload whose per-set ranks are not a permutation of 0..ways-1 would
// leave the LRU victim undefined; restore must reject it so the checkpoint
// loader reports DATA_LOSS instead of silently mis-simulating.
TEST(SoaTagArray, CheckpointRestoreRejectsBadRanks) {
  CacheGeometry g;
  g.ways = 16;
  g.size_bytes = 64 * 16 * std::uint64_t{64};
  TagArray arr(g);
  churn(arr, g, 0xC0FFEE, 30'000);
  const std::vector<std::uint64_t> good = arr.ckpt_entries();
  TagArray restored(g);
  ASSERT_TRUE(restored.ckpt_restore_entries(good));
  // Flipping one rank bit duplicates another way's rank in the same set.
  for (std::size_t i : {std::size_t{0}, std::size_t{17}, good.size() - 1}) {
    std::vector<std::uint64_t> bad = good;
    bad[i] ^= std::uint64_t{1} << 60;
    EXPECT_FALSE(restored.ckpt_restore_entries(bad)) << "entry " << i;
  }
  // A rank past ways-1 is out of range for a 4-way set.
  CacheGeometry g4 = g;
  g4.ways = 4;
  g4.size_bytes = 64 * 4 * std::uint64_t{64};
  TagArray small(g4);
  std::vector<std::uint64_t> bad = small.ckpt_entries();
  bad[2] |= std::uint64_t{0xF} << 60;
  EXPECT_FALSE(small.ckpt_restore_entries(bad));
  ASSERT_TRUE(small.ckpt_restore_entries(TagArray(g4).ckpt_entries()));
}

// Randomized full-simulation equivalence: a deterministic sample of
// (bench, scheme, inclusion, feature-mask) combinations, each run through
// the fast engine (SoA lanes, batched lookups, software pipeline) and the
// reference engine (scalar oracle), requiring bit-identical statistics.
TEST(SoaTagArray, RandomizedEngineEquivalence) {
  const BenchmarkId benches[] = {BenchmarkId::kMcf,  BenchmarkId::kBlas,
                                 BenchmarkId::kBwaves, BenchmarkId::kAstar,
                                 BenchmarkId::kMix,  BenchmarkId::kPmf};
  const Scheme schemes[] = {Scheme::kBase,   Scheme::kPhased,
                            Scheme::kCbf,    Scheme::kRedhip,
                            Scheme::kOracle, Scheme::kPartialTag};
  const InclusionPolicy inclusions[] = {InclusionPolicy::kInclusive,
                                        InclusionPolicy::kExclusive,
                                        InclusionPolicy::kHybrid};
  Xoshiro256 rng(20260809);
  for (int i = 0; i < 10; ++i) {
    RunSpec spec;
    spec.bench = benches[rng.below(std::size(benches))];
    spec.scheme = schemes[rng.below(std::size(schemes))];
    spec.inclusion = inclusions[rng.below(std::size(inclusions))];
    spec.scale = 8;
    spec.refs_per_core = 10'000;
    spec.seed = rng.next();
    const std::uint64_t mask = rng.below(8);
    // Repair the sample into a legal combination (src/sim/config.cc):
    // the exclusive hierarchy supports Base/ReDHiP/Oracle without
    // auto-disable or the fault auditor, prefetching is inclusive-only,
    // and PT fault sites require ReDHiP on a non-exclusive hierarchy.
    const bool exclusive = spec.inclusion == InclusionPolicy::kExclusive;
    if (exclusive && spec.scheme != Scheme::kBase &&
        spec.scheme != Scheme::kRedhip && spec.scheme != Scheme::kOracle) {
      spec.scheme = Scheme::kRedhip;
    }
    spec.prefetch =
        (mask & 2) != 0 && spec.inclusion == InclusionPolicy::kInclusive;
    const bool fault =
        (mask & 1) != 0 && spec.scheme == Scheme::kRedhip && !exclusive;
    const bool auto_disable = (mask & 4) != 0 && !exclusive;
    spec.tweak = [fault, auto_disable](HierarchyConfig& config) {
      if (fault) {
        config.fault.enabled = true;
        config.fault.rate_per_mref = 4'000;
        config.audit.enabled = true;
      }
      if (auto_disable) {
        config.auto_disable.enabled = true;
        config.auto_disable.epoch_refs = 2'500;
      }
    };
    const std::string what =
        "combo " + std::to_string(i) + ": " + to_string(spec.bench) + "/" +
        to_string(spec.scheme) + "/" + to_string(spec.inclusion) + "/mask" +
        std::to_string(mask);
    spec.engine = SimEngine::kFast;
    const SimResult fast = run_spec(spec);
    spec.engine = SimEngine::kReference;
    const SimResult ref = run_spec(spec);
    EXPECT_TRUE(stats_identical(fast, ref)) << what;
    EXPECT_EQ(fast.exec_cycles, ref.exec_cycles) << what;
    EXPECT_GT(fast.total_refs, 0u) << what;
  }
}

}  // namespace
}  // namespace redhip
