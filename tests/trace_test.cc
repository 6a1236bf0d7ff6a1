// Tests for src/trace: kernels' address discipline, workload determinism,
// trace file round-tripping.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/kernels.h"
#include "trace/mem_ref.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

// ------------------------------------------------------------------ kernels

TEST(StreamKernel, StaysInRegionAndAdvancesSequentially) {
  Region r{0x1000, 64_KiB};
  StreamKernel k(r, /*streams=*/2, /*stride=*/8, /*write_ppm=*/0, 0x100, 1);
  MemRef m;
  Addr prev[2] = {0, 0};
  for (int i = 0; i < 10'000; ++i) {
    k.next(m);
    ASSERT_GE(m.addr, r.base);
    ASSERT_LT(m.addr, r.base + r.bytes);
    const int s = i % 2;
    if (prev[s] != 0 && m.addr > prev[s]) {
      ASSERT_EQ(m.addr - prev[s], 8u) << "stride must be constant";
    }
    prev[s] = m.addr;
    EXPECT_FALSE(m.is_write);
  }
}

TEST(StreamKernel, WriteFractionApproximatesPpm) {
  Region r{0, 64_KiB};
  StreamKernel k(r, 1, 8, /*write_ppm=*/300'000, 0, 3);
  MemRef m;
  int writes = 0;
  const int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    k.next(m);
    writes += m.is_write;
  }
  EXPECT_NEAR(static_cast<double>(writes) / kN, 0.3, 0.02);
}

TEST(StreamKernel, DistinctPcPerStream) {
  Region r{0, 64_KiB};
  StreamKernel k(r, 4, 8, 0, 0x500, 9);
  MemRef m;
  std::set<std::uint32_t> pcs;
  for (int i = 0; i < 16; ++i) {
    k.next(m);
    pcs.insert(m.pc);
  }
  EXPECT_EQ(pcs.size(), 4u);
}

TEST(StencilKernel, EmitsSevenReadsThenOneWritePerCell) {
  Region r{0x4000, 1_MiB};
  StencilKernel k(r, 16, 16, 16, 0x200);
  MemRef m;
  for (int cell = 0; cell < 50; ++cell) {
    for (int p = 0; p < 7; ++p) {
      k.next(m);
      ASSERT_FALSE(m.is_write) << "point " << p;
      ASSERT_GE(m.addr, r.base);
      ASSERT_LT(m.addr, r.base + r.bytes);
    }
    k.next(m);
    ASSERT_TRUE(m.is_write);
  }
}

TEST(StencilKernel, NeighbourOffsetsMatchGrid) {
  Region r{0, 1_MiB};
  const std::uint64_t nx = 16, ny = 16;
  StencilKernel k(r, nx, ny, 16, 0);
  MemRef m;
  // Advance into the interior so no wrapping occurs (cell 1000).
  for (int i = 0; i < 1000 * 8; ++i) k.next(m);
  Addr addrs[8];
  for (int p = 0; p < 8; ++p) {
    k.next(m);
    addrs[p] = m.addr;
  }
  const Addr center = addrs[3];
  EXPECT_EQ(addrs[2], center - 8);                 // -x
  EXPECT_EQ(addrs[4], center + 8);                 // +x
  EXPECT_EQ(addrs[1], center - nx * 8);            // -y
  EXPECT_EQ(addrs[5], center + nx * 8);            // +y
  EXPECT_EQ(addrs[0], center - nx * ny * 8);       // -z
  EXPECT_EQ(addrs[6], center + nx * ny * 8);       // +z
  EXPECT_EQ(addrs[7], center);                     // write-back
}

TEST(PointerChase, VisitsManyDistinctLinesWithoutQuickRepeats) {
  Region r{0x10000, 1_MiB};
  PointerChaseKernel k(r, /*payload_lines=*/0, 0, 0x300, 5);
  MemRef m;
  std::set<Addr> seen;
  for (int i = 0; i < 4096; ++i) {
    k.next(m);
    ASSERT_GE(m.addr, r.base);
    ASSERT_LT(m.addr, r.base + r.bytes);
    seen.insert(m.addr);
  }
  // Full-period LCG: the first `lines` steps are all distinct.
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(PointerChase, PayloadFollowsNodeSequentially) {
  Region r{0, 1_MiB};
  PointerChaseKernel k(r, /*payload_lines=*/2, 0, 0x300, 5);
  MemRef node, p1, p2;
  k.next(node);
  k.next(p1);
  k.next(p2);
  EXPECT_EQ(p1.pc, node.pc + 1);
  EXPECT_EQ(p1.addr - node.addr, 8u) << "payload reads are element-granular";
  EXPECT_EQ(p2.addr - p1.addr, 8u);
  // Two payload lines = 16 element reads before the next pointer hop.
  MemRef m;
  for (int i = 0; i < 14; ++i) {
    k.next(m);
    ASSERT_EQ(m.pc, node.pc + 1);
  }
  k.next(m);
  EXPECT_EQ(m.pc, node.pc);
}

TEST(SparseGather, CyclesThroughIndexGatherResultPhases) {
  SparseGatherKernel k(Region{0x100000, 64_KiB}, Region{0x200000, 1_MiB},
                       Region{0x300000, 64_KiB}, /*gathers=*/2, 100'000,
                       500'000, 0x400, 11);
  MemRef m;
  for (int rep = 0; rep < 100; ++rep) {
    k.next(m);  // index read
    ASSERT_GE(m.addr, 0x100000u);
    ASSERT_LT(m.addr, 0x100000u + 64_KiB);
    ASSERT_FALSE(m.is_write);
    for (int g = 0; g < 2; ++g) {
      k.next(m);  // gather
      ASSERT_GE(m.addr, 0x200000u);
      ASSERT_LT(m.addr, 0x200000u + 1_MiB);
      ASSERT_FALSE(m.is_write);
    }
    k.next(m);  // result write
    ASSERT_GE(m.addr, 0x300000u);
    ASSERT_TRUE(m.is_write);
  }
}

TEST(BfsKernel, AllAddressesLandInOwnedRegions) {
  const Region f{0x1000000, 64_KiB}, e{0x2000000, 1_MiB}, v{0x3000000, 64_KiB};
  BfsKernel k(f, e, v, 8, /*visited_zipf_k=*/3, 0x600, 13);
  MemRef m;
  for (int i = 0; i < 20'000; ++i) {
    k.next(m);
    const bool in_f = m.addr >= f.base && m.addr < f.base + f.bytes;
    const bool in_e = m.addr >= e.base && m.addr < e.base + e.bytes;
    const bool in_v = m.addr >= v.base && m.addr < v.base + v.bytes;
    ASSERT_TRUE(in_f || in_e || in_v);
    if (m.is_write) {
      ASSERT_TRUE(in_v) << "only visited-map accesses write";
    }
  }
}

TEST(SgdKernel, ReadsRowsThenWritesThemBack) {
  const Region u{0x1000000, 1_MiB}, it{0x2000000, 1_MiB};
  SgdKernel k(u, it, /*row_bytes=*/64, 0x700, 17);
  MemRef m;
  // Phase structure: 8 user reads, 8 item reads, 8 user writes, 8 item
  // writes per (user,item) sample (64-byte rows of 8-byte elements).
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_FALSE(m.is_write);
    ASSERT_GE(m.addr, u.base);
    ASSERT_LT(m.addr, u.base + u.bytes);
  }
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_FALSE(m.is_write);
    ASSERT_GE(m.addr, it.base);
  }
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_TRUE(m.is_write);
    ASSERT_GE(m.addr, u.base);
    ASSERT_LT(m.addr, u.base + u.bytes);
  }
  for (int i = 0; i < 8; ++i) {
    k.next(m);
    ASSERT_TRUE(m.is_write);
    ASSERT_GE(m.addr, it.base);
  }
}

TEST(HotCold, MostAccessesHitTheHotPrefix) {
  Region r{0x5000000, 4_MiB};
  HotColdKernel k(r, /*hot_fraction_ppm=*/10'000, /*hot_access_ppm=*/900'000,
                  /*burst_mean=*/1, /*write_ppm=*/0, 0x800, 19);
  MemRef m;
  const Addr hot_end = r.base + (4_MiB / 100) ;  // hot = 1% of region
  int hot = 0;
  const int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    k.next(m);
    ASSERT_GE(m.addr, r.base);
    ASSERT_LT(m.addr, r.base + r.bytes);
    if (m.addr < hot_end + 64) ++hot;
  }
  EXPECT_GT(static_cast<double>(hot) / kN, 0.7);
}

// ---------------------------------------------------------------- workloads

TEST(Workloads, AllBenchmarksProduceRefs) {
  for (BenchmarkId id : all_benchmarks()) {
    auto src = make_workload(id, /*core=*/0, /*scale=*/32, /*seed=*/1);
    MemRef m;
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(src->next(m)) << to_string(id);
      ASSERT_NE(m.addr, 0u) << to_string(id);
    }
  }
}

TEST(Workloads, DeterministicAcrossInstances) {
  for (BenchmarkId id : {BenchmarkId::kMcf, BenchmarkId::kBlas,
                         BenchmarkId::kMix}) {
    auto a = make_workload(id, 2, 16, 99);
    auto b = make_workload(id, 2, 16, 99);
    MemRef ma, mb;
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(a->next(ma));
      ASSERT_TRUE(b->next(mb));
      ASSERT_EQ(ma, mb) << to_string(id) << " diverged at ref " << i;
    }
  }
}

TEST(Workloads, SeedChangesTheStream) {
  auto a = make_workload(BenchmarkId::kMcf, 0, 16, 1);
  auto b = make_workload(BenchmarkId::kMcf, 0, 16, 2);
  MemRef ma, mb;
  int diff = 0;
  for (int i = 0; i < 1000; ++i) {
    a->next(ma);
    b->next(mb);
    diff += (ma.addr != mb.addr);
  }
  EXPECT_GT(diff, 0);
}

TEST(Workloads, CoresUseDisjointAddressSpaces) {
  auto a = make_workload(BenchmarkId::kLbm, 0, 16, 1);
  auto b = make_workload(BenchmarkId::kLbm, 5, 16, 1);
  MemRef m;
  std::set<Addr> space_a, space_b;
  for (int i = 0; i < 2000; ++i) {
    a->next(m);
    space_a.insert(m.addr >> 40);
    b->next(m);
    space_b.insert(m.addr >> 40);
  }
  for (Addr tag : space_a) EXPECT_EQ(space_b.count(tag), 0u);
}

TEST(Workloads, MixAssignsDifferentProfilesPerCore) {
  // Core c of kMix runs the c-th SPEC profile; its CPI must match.
  for (CoreId c = 0; c < 8; ++c) {
    EXPECT_EQ(workload_cpi_centi(BenchmarkId::kMix, c),
              traits_of(spec_benchmarks()[c]).cpi_centi);
  }
}

TEST(Workloads, GapsAreBoundedAroundTheMean) {
  auto src = make_workload(BenchmarkId::kAstar, 0, 16, 7);
  const std::uint32_t mean = traits_of(BenchmarkId::kAstar).gap_mean;
  MemRef m;
  double sum = 0;
  const int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    src->next(m);
    ASSERT_GE(m.gap, mean - mean / 2);
    ASSERT_LE(m.gap, mean + mean / 2);
    sum += m.gap;
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(mean), 0.25);
}

TEST(Workloads, AllBenchmarksListedOnce) {
  EXPECT_EQ(all_benchmarks().size(), 11u);
  EXPECT_EQ(spec_benchmarks().size(), 8u);
  std::set<std::string> names;
  for (BenchmarkId id : all_benchmarks()) names.insert(to_string(id));
  EXPECT_EQ(names.size(), 11u);
}

TEST(Workloads, ParseBenchmarkRoundTripsEveryName) {
  for (BenchmarkId id : all_benchmarks()) {
    Result<BenchmarkId> parsed = parse_benchmark(to_string(id));
    ASSERT_TRUE(parsed.ok()) << to_string(id);
    EXPECT_EQ(parsed.value(), id);
  }
  const Result<BenchmarkId> bad = parse_benchmark("MCF");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("'MCF'"), std::string::npos)
      << bad.status().message();
  EXPECT_FALSE(parse_benchmark("").ok());
}

// ----------------------------------------------------------------- trace IO

TEST(TraceIo, RoundTripsRecords) {
  const std::string path = ::testing::TempDir() + "/roundtrip.trace";
  std::vector<MemRef> refs;
  Xoshiro256 rng(23);
  for (int i = 0; i < 1000; ++i) {
    refs.push_back(MemRef{rng.next(), static_cast<std::uint32_t>(rng.next()),
                          static_cast<std::uint16_t>(rng.below(100)),
                          rng.chance_ppm(500'000)});
  }
  {
    TraceWriter w(path);
    for (const auto& r : refs) w.append(r);
    w.finish();
    EXPECT_EQ(w.records_written(), refs.size());
  }
  FileTraceSource src(path);
  EXPECT_EQ(src.record_count(), refs.size());
  MemRef m;
  for (const auto& expected : refs) {
    ASSERT_TRUE(src.next(m));
    ASSERT_EQ(m, expected);
  }
  EXPECT_FALSE(src.next(m));
  std::remove(path.c_str());
}

// Writes `bytes` raw bytes to a fresh file and returns its path.
std::string write_raw(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return path;
}

// A syntactically valid header claiming `count` records.
std::string header_bytes(std::uint64_t count) {
  std::string h(24, '\0');
  std::memcpy(h.data(), kTraceMagic, 8);
  std::memcpy(h.data() + 8, &count, 8);
  return h;
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path =
      write_raw("bad.trace", "NOTATRACE-HEADER-24bytes");
  EXPECT_THROW(FileTraceSource{path}, std::runtime_error);
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(FileTraceSource{"/nonexistent/path.trace"}, std::runtime_error);
  auto r = FileTraceSource::open("/nonexistent/path.trace");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TraceIo, RejectsTruncatedHeader) {
  const std::string path = write_raw("shorthdr.trace", "REDHIPT1\x02");
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("truncated header (9 of 24 bytes)"),
            std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsRecordCountLargerThanFile) {
  // Header promises 100 records, body holds 2 complete ones.
  const std::string path = write_raw(
      "overcount.trace", header_bytes(100) + std::string(32, '\x41'));
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  const std::string& msg = r.status().message();
  EXPECT_NE(msg.find("header claims 100 records"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(truncated)"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMidRecordTruncation) {
  // Header promises 2 records but the body stops 8 bytes into the second.
  const std::string path = write_raw(
      "midrec.trace", header_bytes(2) + std::string(24, '\x42'));
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("truncated mid-record"),
            std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTrailingGarbage) {
  const std::string path = write_raw(
      "garbage.trace", header_bytes(1) + std::string(16, '\x43') + "oops");
  auto r = FileTraceSource::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing garbage"), std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(TraceIo, SecondFinishIsANoOp) {
  const std::string path = ::testing::TempDir() + "/refinish.trace";
  TraceWriter w(path);
  w.append(MemRef{0x40, 1, 0, false});
  w.finish();
  w.finish();  // must not touch the (closed) file or throw
  FileTraceSource src(path);
  EXPECT_EQ(src.record_count(), 1u);
  std::remove(path.c_str());
}

TEST(TraceIo, AppendAfterFinishFails) {
  const std::string path = ::testing::TempDir() + "/closed.trace";
  TraceWriter w(path);
  w.finish();
  EXPECT_THROW(w.append(MemRef{0x40, 1, 0, false}), std::logic_error);
  std::remove(path.c_str());
}

TEST(TraceIo, SimulatorConsumesFileTrace) {
  // End-to-end: a synthetic workload serialized to disk replays identically.
  const std::string path = ::testing::TempDir() + "/replay.trace";
  auto live = make_workload(BenchmarkId::kSoplex, 0, 32, 5);
  {
    TraceWriter w(path);
    MemRef m;
    for (int i = 0; i < 5000; ++i) {
      live->next(m);
      w.append(m);
    }
    w.finish();
  }
  auto live2 = make_workload(BenchmarkId::kSoplex, 0, 32, 5);
  FileTraceSource replay(path);
  MemRef a, b;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(live2->next(a));
    ASSERT_TRUE(replay.next(b));
    ASSERT_EQ(a, b);
  }
  std::remove(path.c_str());
}

TEST(VectorTrace, EndsAndRewinds) {
  VectorTraceSource src({MemRef{1, 0, 0, false}, MemRef{2, 0, 0, true}});
  MemRef m;
  EXPECT_TRUE(src.next(m));
  EXPECT_EQ(m.addr, 1u);
  EXPECT_TRUE(src.next(m));
  EXPECT_TRUE(m.is_write);
  EXPECT_FALSE(src.next(m));
  src.rewind();
  EXPECT_TRUE(src.next(m));
  EXPECT_EQ(m.addr, 1u);
}

}  // namespace
}  // namespace redhip
