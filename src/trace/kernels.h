// Access-pattern kernels — the building blocks of the synthetic workloads.
//
// Each kernel is a deterministic state machine over a private address region
// that emits one memory reference per call.  A workload (workloads.h) mixes
// several kernels with burst scheduling to model one benchmark.  Kernels
// set addr/pc/is_write; the workload layer fills in the instruction gap.
//
// The kernels are chosen to span the locality behaviours that drive the
// paper's per-benchmark differences (Fig. 9): pure streaming, stencil plane
// reuse, uniform pointer chasing, indexed sparse gathers, frontier-driven
// graph traversal, SGD row updates, and hot/cold skewed sets.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytestream.h"
#include "common/rng.h"
#include "common/types.h"
#include "trace/mem_ref.h"

namespace redhip {

// Xoshiro256 state round-trip for kernel/scheduler checkpointing: a
// restored stream continues the exact output sequence (rng.h contract).
inline void ckpt_save_rng(ByteWriter& w, const Xoshiro256& rng) {
  for (std::uint64_t word : rng.state().s) w.u64(word);
}
inline void ckpt_load_rng(ByteReader& r, Xoshiro256& rng) {
  Xoshiro256::State st;
  for (std::uint64_t& word : st.s) word = r.u64();
  rng.set_state(st);
}

// A contiguous address region owned by one kernel.
struct Region {
  Addr base = 0;
  std::uint64_t bytes = 0;

  Addr at(std::uint64_t offset) const { return base + offset % bytes; }
};

class Kernel {
 public:
  virtual ~Kernel() = default;
  // Produce the next reference (addr, pc, is_write).
  virtual void next(MemRef& out) = 0;
  // Produce `n` references — exactly the sequence `n` next() calls emit.
  // Every concrete kernel overrides this with a loop whose per-reference
  // call is qualified (and therefore devirtualized and inlined), so a burst
  // costs one virtual dispatch instead of one per reference.
  virtual void next_n(MemRef* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) next(out[i]);
  }
  // Fast-forward for sampled runs: advance past `n` references without
  // delivering them, and make the `n` gap draws `gap_rng.below(gap_bound)`
  // the caller's scheduler would make alongside them.  Afterwards the kernel
  // emits exactly what it would have after n next() calls, and gap_rng is
  // where n draws leave it.  RNG-driven kernels derive this from the same
  // step() their next() runs (kernels.cc), so there is no second copy of
  // the reference stream to drift; the counter-only StencilKernel jumps in
  // closed form.
  virtual void skip(std::uint64_t n, Xoshiro256& gap_rng,
                    std::uint64_t gap_bound) = 0;
  // Serialize / restore the kernel's mutable state (cursors, counters, RNG
  // stream) — construction parameters are not written; restore applies to
  // a kernel freshly built from the same recipe (guarded upstream by the
  // checkpoint's config-digest key).  After ckpt_load the kernel emits
  // bit-identically what it emitted after ckpt_save.  Pure virtual so a
  // new kernel cannot silently opt out of checkpointability.
  virtual void ckpt_save(ByteWriter& w) const = 0;
  virtual bool ckpt_load(ByteReader& r) = 0;
  virtual const char* name() const = 0;
};

// ----------------------------------------------------------------- Streaming
// `streams` concurrent sequential cursors over equal slices of the region
// (modeling the multiple arrays of a streaming loop), each advancing by
// `stride_bytes`, interleaved round-robin.  Models lbm / bwaves.
class StreamKernel final : public Kernel {
 public:
  // `repeats`: how many times each element is touched before the cursor
  // advances (real loops often read-modify-write or reuse operands; this is
  // the temporal-locality knob that separates a 87.5% L1 hit rate from
  // 93.75% at an 8-byte stride).
  StreamKernel(Region region, std::uint32_t streams, std::uint32_t stride_bytes,
               std::uint32_t write_ppm, std::uint32_t pc_base,
               std::uint64_t seed, std::uint32_t repeats = 1);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "stream"; }

 private:
  [[gnu::always_inline]] inline void step(MemRef& out, Xoshiro256& rng);

  Region region_;
  std::uint32_t streams_;
  std::uint32_t stride_;
  std::uint32_t write_ppm_;
  std::uint32_t pc_base_;
  std::uint32_t repeats_;
  std::uint32_t repeat_left_;
  std::uint64_t slice_;
  std::vector<std::uint64_t> cursor_;
  std::uint32_t turn_ = 0;
  Xoshiro256 rng_;
};

// ------------------------------------------------------------------- Stencil
// 7-point stencil sweep over an nx*ny*nz grid of 8-byte elements: per cell,
// reads of center and the +-x/+-y/+-z neighbours followed by a write of the
// center.  The +-y neighbours reuse lines within a plane row and the +-z
// neighbours reuse the previous plane, giving the L2/L3 reuse signature of
// cactusADM / GemsFDTD.
class StencilKernel final : public Kernel {
 public:
  StencilKernel(Region region, std::uint64_t nx, std::uint64_t ny,
                std::uint64_t nz, std::uint32_t pc_base);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "stencil"; }

 private:
  Region region_;
  std::uint64_t nx_, ny_, nz_;
  std::uint32_t pc_base_;
  std::uint64_t cell_ = 0;
  std::uint32_t point_ = 0;  // 0..6: -z,-y,-x,center,+x,+y,+z ; 7: write
};

// -------------------------------------------------------------- PointerChase
// Full-period LCG walk over the lines of the region (Hull–Dobell), visiting
// every line exactly once per period in a pseudo-random order; each node
// visit optionally reads `payload_lines` sequential lines of node payload.
// Models mcf's pointer-heavy network simplex.
class PointerChaseKernel final : public Kernel {
 public:
  PointerChaseKernel(Region region, std::uint32_t payload_lines,
                     std::uint32_t write_ppm, std::uint32_t pc_base,
                     std::uint64_t seed);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "chase"; }

 private:
  [[gnu::always_inline]] inline void step(MemRef& out, Xoshiro256& rng);

  Region region_;
  std::uint64_t lines_;       // power of two
  std::uint64_t state_;
  std::uint64_t mul_, add_;   // LCG constants (full period mod lines_)
  std::uint32_t payload_lines_;
  std::uint32_t payload_left_ = 0;
  LineAddr payload_cursor_ = 0;
  std::uint32_t write_ppm_;
  std::uint32_t pc_base_;
  Xoshiro256 rng_;
};

// ------------------------------------------------------------------ ZipfWalk
// Power-law line accesses over the region with short element bursts: the
// workhorse for "hot spectrum" structures (open lists, node attributes,
// score tables) whose reuse distances span every cache tier.
class ZipfWalkKernel final : public Kernel {
 public:
  ZipfWalkKernel(Region region, std::uint32_t zipf_k, std::uint32_t burst_mean,
                 std::uint32_t write_ppm, std::uint32_t pc_base,
                 std::uint64_t seed);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "zipf"; }

 private:
  [[gnu::always_inline]] inline void step(MemRef& out, Xoshiro256& rng);

  Region region_;
  ZipfSampler sampler_;
  std::uint32_t burst_mean_;
  std::uint32_t write_ppm_;
  std::uint32_t pc_base_;
  Xoshiro256 rng_;
  std::uint32_t burst_left_ = 0;
  Addr burst_cursor_ = 0;
};

// ------------------------------------------------------------- SparseGather
// CSR-style sparse kernel: sequential reads from an index region, gathers
// from a large vector region at skewed (hot/cold) random positions, and
// periodic sequential writes to a result region.  Models soplex / milc.
class SparseGatherKernel final : public Kernel {
 public:
  // Gather targets are drawn from a power-law over the vector when
  // zipf_k >= 1 (column popularity), or from the two-tier hot/cold sampler
  // when zipf_k == 0.
  // Each gather target is read as `gather_elems` consecutive elements
  // (complex numbers, coordinate pairs, ... — the source of gathers'
  // residual spatial locality).
  SparseGatherKernel(Region index_region, Region vector_region,
                     Region result_region, std::uint32_t gathers_per_index,
                     std::uint32_t hot_fraction_ppm,
                     std::uint32_t hot_access_ppm, std::uint32_t pc_base,
                     std::uint64_t seed, std::uint32_t zipf_k = 0,
                     std::uint32_t gather_elems = 1);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "sparse"; }

 private:
  [[gnu::always_inline]] inline void step(MemRef& out, Xoshiro256& rng);

  Region index_region_, vector_region_, result_region_;
  std::uint32_t gathers_per_index_;
  std::uint32_t gather_elems_;
  std::uint32_t pc_base_;
  HotColdSampler sampler_;
  ZipfSampler zipf_;
  std::uint32_t zipf_k_;
  Xoshiro256 rng_;
  std::uint64_t index_cursor_ = 0;
  std::uint64_t result_cursor_ = 0;
  Addr gather_target_ = 0;
  std::uint32_t phase_ = 0;  // 0: index; then g groups of gather_elems; write
};

// ---------------------------------------------------------------------- BFS
// Frontier-driven traversal: sequential frontier reads, then a burst of
// sequential edge-list reads at a random offset, with a random visited-map
// access (read, sometimes write) per edge.  Models Graph500/CombBLAS.
class BfsKernel final : public Kernel {
 public:
  // The visited-map accesses follow a power law (`visited_zipf_k`): BFS
  // frontiers have community structure, so recently discovered vertices are
  // re-checked at every reuse distance.
  BfsKernel(Region frontier_region, Region edge_region, Region visited_region,
            std::uint32_t mean_degree, std::uint32_t visited_zipf_k,
            std::uint32_t pc_base, std::uint64_t seed);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "bfs"; }

 private:
  [[gnu::always_inline]] inline void step(MemRef& out, Xoshiro256& rng);

  Region frontier_region_, edge_region_, visited_region_;
  std::uint32_t mean_degree_;
  std::uint32_t pc_base_;
  ZipfSampler visited_sampler_;
  Xoshiro256 rng_;
  std::uint64_t frontier_cursor_ = 0;
  std::uint64_t edge_cursor_ = 0;
  std::uint32_t edges_left_ = 0;
  std::uint32_t visited_after_ = 0;  // emit a visited check every N edges
};

// ---------------------------------------------------------------------- SGD
// Stochastic gradient descent on a factor model: per step, pick a random
// (user, item) pair, stream both factor rows (reads), then write both back.
// Models the GraphLab probabilistic matrix factorization ("pmf").
class SgdKernel final : public Kernel {
 public:
  // Ratings follow item/user popularity: rows are drawn from a power law
  // of skew `zipf_k` (1 = uniform).
  SgdKernel(Region user_region, Region item_region, std::uint32_t row_bytes,
            std::uint32_t pc_base, std::uint64_t seed,
            std::uint32_t zipf_k = 1);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "sgd"; }

 private:
  [[gnu::always_inline]] inline void step(MemRef& out, Xoshiro256& rng);

  Region user_region_, item_region_;
  std::uint32_t row_bytes_;
  std::uint32_t pc_base_;
  ZipfSampler user_sampler_, item_sampler_;
  Xoshiro256 rng_;
  Addr user_row_ = 0, item_row_ = 0;
  std::uint32_t offset_ = 0;
  std::uint32_t phase_ = 0;  // 0: read user, 1: read item, 2: write user, 3: write item
};

// ------------------------------------------------------------------ HotCold
// Skewed random line accesses: a small hot set absorbs most accesses, the
// rest fall uniformly over the region; occasional short sequential bursts.
// Models astar's open list + grid mixture.
class HotColdKernel final : public Kernel {
 public:
  HotColdKernel(Region region, std::uint32_t hot_fraction_ppm,
                std::uint32_t hot_access_ppm, std::uint32_t burst_mean,
                std::uint32_t write_ppm, std::uint32_t pc_base,
                std::uint64_t seed);
  void next(MemRef& out) override;
  void next_n(MemRef* out, std::size_t n) override;
  void skip(std::uint64_t n, Xoshiro256& gap_rng,
            std::uint64_t gap_bound) override;
  void ckpt_save(ByteWriter& w) const override;
  bool ckpt_load(ByteReader& r) override;
  const char* name() const override { return "hotcold"; }

 private:
  [[gnu::always_inline]] inline void step(MemRef& out, Xoshiro256& rng);

  Region region_;
  HotColdSampler sampler_;
  std::uint32_t burst_mean_;
  std::uint32_t write_ppm_;
  std::uint32_t pc_base_;
  Xoshiro256 rng_;
  std::uint32_t burst_left_ = 0;
  LineAddr burst_cursor_ = 0;
};

}  // namespace redhip
