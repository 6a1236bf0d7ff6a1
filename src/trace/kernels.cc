#include "trace/kernels.h"

#include "common/bitops.h"
#include "common/check.h"

namespace redhip {

// ---------------------------------------------------------------- Streaming

StreamKernel::StreamKernel(Region region, std::uint32_t streams,
                           std::uint32_t stride_bytes, std::uint32_t write_ppm,
                           std::uint32_t pc_base, std::uint64_t seed,
                           std::uint32_t repeats)
    : region_(region),
      streams_(streams),
      stride_(stride_bytes),
      write_ppm_(write_ppm),
      pc_base_(pc_base),
      repeats_(repeats),
      repeat_left_(repeats),
      rng_(seed) {
  REDHIP_CHECK(streams >= 1 && stride_bytes >= 1 && repeats >= 1);
  slice_ = region.bytes / streams;
  REDHIP_CHECK_MSG(slice_ >= stride_bytes, "stream slice smaller than stride");
  cursor_.resize(streams);
  // Start cursors at deterministic, distinct phases so streams do not start
  // line-aligned with each other.
  for (std::uint32_t s = 0; s < streams; ++s) {
    cursor_[s] = (slice_ / streams) * s;
  }
}

void StreamKernel::step(MemRef& out, Xoshiro256& rng) {
  const std::uint32_t s = turn_;
  out.addr = region_.base + slice_ * s + cursor_[s];
  out.pc = pc_base_ + s;
  out.is_write = rng.chance_ppm(write_ppm_);
  if (--repeat_left_ > 0) return;  // touch the same element again next call
  repeat_left_ = repeats_;
  turn_ = (turn_ + 1) % streams_;
  cursor_[s] += stride_;
  if (cursor_[s] + stride_ > slice_) cursor_[s] = 0;
}

// ------------------------------------------------------------------ Stencil

StencilKernel::StencilKernel(Region region, std::uint64_t nx, std::uint64_t ny,
                             std::uint64_t nz, std::uint32_t pc_base)
    : region_(region), nx_(nx), ny_(ny), nz_(nz), pc_base_(pc_base) {
  REDHIP_CHECK(nx >= 2 && ny >= 2 && nz >= 2);
  REDHIP_CHECK_MSG(nx * ny * nz * 8 <= region.bytes,
                   "stencil grid does not fit its region");
}

void StencilKernel::next(MemRef& out) {
  constexpr std::uint32_t kElem = 8;
  const std::uint64_t cells = nx_ * ny_ * nz_;
  const std::uint64_t c = cell_ % cells;
  // Neighbour offsets in elements, clamped at the grid edge by wrapping
  // (edge effects are irrelevant at these grid sizes).
  const std::int64_t offsets[7] = {
      -static_cast<std::int64_t>(nx_ * ny_),  // -z
      -static_cast<std::int64_t>(nx_),        // -y
      -1,                                     // -x
      0,                                      // center
      1,                                      // +x
      static_cast<std::int64_t>(nx_),         // +y
      static_cast<std::int64_t>(nx_ * ny_),   // +z
  };
  std::uint64_t elem;
  if (point_ < 7) {
    elem = static_cast<std::uint64_t>(
               (static_cast<std::int64_t>(c) + offsets[point_] +
                static_cast<std::int64_t>(cells)))
           % cells;
    out.is_write = false;
    out.pc = pc_base_ + point_;
  } else {
    elem = c;  // write-back of the center
    out.is_write = true;
    out.pc = pc_base_ + 7;
  }
  out.addr = region_.base + elem * kElem;
  if (++point_ > 7) {
    point_ = 0;
    ++cell_;
  }
}

void StencilKernel::skip(std::uint64_t n, Xoshiro256& gap_rng,
                         std::uint64_t gap_bound) {
  Xoshiro256 grng = gap_rng;
  for (std::uint64_t i = 0; i < n; ++i) grng.below(gap_bound);
  gap_rng = grng;
  // No RNG, pure counters: the kernel's own fast-forward is one division.
  const std::uint64_t idx = cell_ * 8 + point_ + n;
  cell_ = idx / 8;
  point_ = static_cast<std::uint32_t>(idx % 8);
}

// ------------------------------------------------------------- PointerChase

PointerChaseKernel::PointerChaseKernel(Region region,
                                       std::uint32_t payload_lines,
                                       std::uint32_t write_ppm,
                                       std::uint32_t pc_base,
                                       std::uint64_t seed)
    : region_(region),
      payload_lines_(payload_lines),
      write_ppm_(write_ppm),
      pc_base_(pc_base),
      rng_(seed) {
  lines_ = round_up_pow2(region.bytes / kDefaultLineBytes) / 2;
  if (lines_ < 16) lines_ = 16;
  REDHIP_CHECK_MSG(lines_ * kDefaultLineBytes <= region.bytes,
                   "pointer-chase region too small");
  // Hull–Dobell: modulus 2^m, add odd, mul ≡ 1 (mod 4) → full period.
  state_ = rng_.below(lines_);
  mul_ = 0xd1342543de82ef95ull % lines_ | 5;  // ...01 in binary, ≡1 mod 4
  mul_ = (mul_ & ~std::uint64_t{3}) | 1;
  add_ = rng_.next() | 1;
}

void PointerChaseKernel::step(MemRef& out, Xoshiro256& rng) {
  if (payload_left_ > 0) {
    // Node payload: element-granular sequential reads following the node
    // line (this is where mcf's limited spatial locality comes from).
    --payload_left_;
    payload_cursor_ += 8;
    out.addr = region_.base +
               (payload_cursor_ % (lines_ * kDefaultLineBytes));
    out.pc = pc_base_ + 1;
    out.is_write = rng.chance_ppm(write_ppm_);
    return;
  }
  state_ = (mul_ * state_ + add_) & (lines_ - 1);
  out.addr = region_.base + state_ * kDefaultLineBytes;
  out.pc = pc_base_;
  out.is_write = false;
  if (payload_lines_ > 0) {
    payload_left_ = payload_lines_ * (kDefaultLineBytes / 8);
    payload_cursor_ = state_ * kDefaultLineBytes;
  }
}

// ------------------------------------------------------------------ ZipfWalk

ZipfWalkKernel::ZipfWalkKernel(Region region, std::uint32_t zipf_k,
                               std::uint32_t burst_mean,
                               std::uint32_t write_ppm, std::uint32_t pc_base,
                               std::uint64_t seed)
    : region_(region),
      sampler_(region.bytes / kDefaultLineBytes, zipf_k),
      burst_mean_(burst_mean),
      write_ppm_(write_ppm),
      pc_base_(pc_base),
      rng_(seed) {}

void ZipfWalkKernel::step(MemRef& out, Xoshiro256& rng) {
  if (burst_left_ == 0) {
    burst_cursor_ = sampler_.sample(rng) * kDefaultLineBytes;
    burst_left_ = static_cast<std::uint32_t>(rng.burst(burst_mean_, 256));
  }
  --burst_left_;
  out.addr = region_.base + (burst_cursor_ % region_.bytes);
  burst_cursor_ += 8;
  out.pc = pc_base_ + (burst_left_ == 0 ? 0 : 1);
  out.is_write = rng.chance_ppm(write_ppm_);
}

// ------------------------------------------------------------- SparseGather

SparseGatherKernel::SparseGatherKernel(
    Region index_region, Region vector_region, Region result_region,
    std::uint32_t gathers_per_index, std::uint32_t hot_fraction_ppm,
    std::uint32_t hot_access_ppm, std::uint32_t pc_base, std::uint64_t seed,
    std::uint32_t zipf_k, std::uint32_t gather_elems)
    : index_region_(index_region),
      vector_region_(vector_region),
      result_region_(result_region),
      gathers_per_index_(gathers_per_index),
      gather_elems_(gather_elems),
      pc_base_(pc_base),
      sampler_(vector_region.bytes / kDefaultLineBytes, hot_fraction_ppm,
               hot_access_ppm),
      zipf_(vector_region.bytes / kDefaultLineBytes,
            zipf_k == 0 ? 1 : zipf_k),
      zipf_k_(zipf_k),
      rng_(seed) {
  REDHIP_CHECK(gathers_per_index >= 1);
  REDHIP_CHECK(gather_elems >= 1 && gather_elems <= 16);
}

void SparseGatherKernel::step(MemRef& out, Xoshiro256& rng) {
  const std::uint32_t gather_refs = gathers_per_index_ * gather_elems_;
  if (phase_ == 0) {
    out.addr = index_region_.at(index_cursor_);
    index_cursor_ += 8;  // one 64-bit index per step
    out.pc = pc_base_;
    out.is_write = false;
  } else if (phase_ <= gather_refs) {
    const std::uint32_t within = (phase_ - 1) % gather_elems_;
    if (within == 0) {
      const std::uint64_t line =
          zipf_k_ > 0 ? zipf_.sample(rng) : sampler_.sample(rng);
      gather_target_ = vector_region_.base + line * kDefaultLineBytes;
    }
    out.addr = gather_target_ + within * 8;
    out.pc = pc_base_ + 1;
    out.is_write = false;
  } else {
    out.addr = result_region_.at(result_cursor_);
    result_cursor_ += 8;
    out.pc = pc_base_ + 2;
    out.is_write = true;
  }
  phase_ = (phase_ + 1) % (gather_refs + 2);
}

// ---------------------------------------------------------------------- BFS

BfsKernel::BfsKernel(Region frontier_region, Region edge_region,
                     Region visited_region, std::uint32_t mean_degree,
                     std::uint32_t visited_zipf_k, std::uint32_t pc_base,
                     std::uint64_t seed)
    : frontier_region_(frontier_region),
      edge_region_(edge_region),
      visited_region_(visited_region),
      mean_degree_(mean_degree),
      pc_base_(pc_base),
      visited_sampler_(visited_region.bytes / kDefaultLineBytes,
                       visited_zipf_k),
      rng_(seed) {
  REDHIP_CHECK(mean_degree >= 1);
}

void BfsKernel::step(MemRef& out, Xoshiro256& rng) {
  if (edges_left_ > 0 && visited_after_ == 0) {
    // Visited-map check: skewed random access, writes when the vertex is
    // newly discovered (~1/4 of checks).
    visited_after_ = 3;  // three edge reads per visited check (word-packed map)
    out.addr = visited_region_.base +
               visited_sampler_.sample(rng) * kDefaultLineBytes;
    out.pc = pc_base_ + 2;
    out.is_write = rng.chance_ppm(250'000);
    return;
  }
  if (edges_left_ > 0) {
    --edges_left_;
    --visited_after_;
    out.addr = edge_region_.at(edge_cursor_);
    edge_cursor_ += 8;
    out.pc = pc_base_ + 1;
    out.is_write = false;
    return;
  }
  // Pop the next frontier vertex and start its (random-length) edge run at
  // a random offset in the edge array.
  out.addr = frontier_region_.at(frontier_cursor_);
  frontier_cursor_ += 8;
  out.pc = pc_base_;
  out.is_write = false;
  edges_left_ = static_cast<std::uint32_t>(rng.burst(mean_degree_, 512));
  edge_cursor_ = rng.below(edge_region_.bytes / 8) * 8;
  visited_after_ = 3;
}

// ---------------------------------------------------------------------- SGD

SgdKernel::SgdKernel(Region user_region, Region item_region,
                     std::uint32_t row_bytes, std::uint32_t pc_base,
                     std::uint64_t seed, std::uint32_t zipf_k)
    : user_region_(user_region),
      item_region_(item_region),
      row_bytes_(row_bytes),
      pc_base_(pc_base),
      user_sampler_(user_region.bytes / row_bytes, zipf_k),
      item_sampler_(item_region.bytes / row_bytes, zipf_k),
      rng_(seed) {
  REDHIP_CHECK(row_bytes >= 8 && row_bytes % 8 == 0);
  user_row_ = user_region_.base;
  item_row_ = item_region_.base;
}

void SgdKernel::step(MemRef& out, Xoshiro256& rng) {
  if (offset_ == 0 && phase_ == 0) {
    // New (user, item) sample: popularity-weighted row in each matrix.
    user_row_ = user_region_.base + user_sampler_.sample(rng) * row_bytes_;
    item_row_ = item_region_.base + item_sampler_.sample(rng) * row_bytes_;
  }
  switch (phase_) {
    case 0:
      out.addr = user_row_ + offset_;
      out.is_write = false;
      break;
    case 1:
      out.addr = item_row_ + offset_;
      out.is_write = false;
      break;
    case 2:
      out.addr = user_row_ + offset_;
      out.is_write = true;
      break;
    default:
      out.addr = item_row_ + offset_;
      out.is_write = true;
      break;
  }
  out.pc = pc_base_ + phase_;
  offset_ += 8;
  if (offset_ >= row_bytes_) {
    offset_ = 0;
    phase_ = (phase_ + 1) % 4;
  }
}

// ------------------------------------------------------------------ HotCold

HotColdKernel::HotColdKernel(Region region, std::uint32_t hot_fraction_ppm,
                             std::uint32_t hot_access_ppm,
                             std::uint32_t burst_mean, std::uint32_t write_ppm,
                             std::uint32_t pc_base, std::uint64_t seed)
    : region_(region),
      sampler_(region.bytes / kDefaultLineBytes, hot_fraction_ppm,
               hot_access_ppm),
      burst_mean_(burst_mean),
      write_ppm_(write_ppm),
      pc_base_(pc_base),
      rng_(seed) {}

void HotColdKernel::step(MemRef& out, Xoshiro256& rng) {
  if (burst_left_ == 0) {
    // Sample a line, then walk it (and its successors) element by element —
    // the burst models touching the fields of a small record.
    burst_cursor_ = sampler_.sample(rng) * kDefaultLineBytes;
    burst_left_ = static_cast<std::uint32_t>(rng.burst(burst_mean_, 256));
  }
  --burst_left_;
  out.addr = region_.base + (burst_cursor_ % region_.bytes);
  burst_cursor_ += 8;
  out.pc = pc_base_ + (burst_left_ == 0 ? 0 : 1);
  out.is_write = rng.chance_ppm(write_ppm_);
}

// -------------------------------------------------------- next and skip
// Each RNG-driven kernel has one state machine, step().  next() runs it on
// rng_; skip() runs it into a discarded MemRef, so after skip(n) the kernel
// emits exactly what it would have after n next() calls, by construction.
// skip() also makes the caller's n gap draws.  The kernel RNG and the gap
// RNG are independent streams, so one draw on each per reference leaves
// both end states where the sequential order leaves them, while the two
// serial xoshiro chains overlap in the pipeline.  Both generators are
// copied into locals so their state stays in registers across the loop.
// step() is declared always_inline so this does not rest on inlining
// heuristics: a call left in the skip loop costs about a tenth of skip
// throughput (DESIGN.md, "Functional warming contract").
#define REDHIP_KERNEL_STEP_PATHS(K)                                       \
  void K::next(MemRef& out) { step(out, rng_); }                          \
  void K::skip(std::uint64_t n, Xoshiro256& gap_rng,                      \
               std::uint64_t gap_bound) {                                 \
    Xoshiro256 krng = rng_;                                               \
    Xoshiro256 grng = gap_rng;                                            \
    MemRef discard;                                                       \
    for (std::uint64_t i = 0; i < n; ++i) {                               \
      grng.below(gap_bound);                                              \
      step(discard, krng);                                                \
    }                                                                     \
    rng_ = krng;                                                          \
    gap_rng = grng;                                                       \
  }
REDHIP_KERNEL_STEP_PATHS(StreamKernel)
REDHIP_KERNEL_STEP_PATHS(PointerChaseKernel)
REDHIP_KERNEL_STEP_PATHS(ZipfWalkKernel)
REDHIP_KERNEL_STEP_PATHS(SparseGatherKernel)
REDHIP_KERNEL_STEP_PATHS(BfsKernel)
REDHIP_KERNEL_STEP_PATHS(SgdKernel)
REDHIP_KERNEL_STEP_PATHS(HotColdKernel)
#undef REDHIP_KERNEL_STEP_PATHS

// --------------------------------------------------------------- batch loops
// One monomorphic loop per kernel: the qualified call resolves statically
// inside the final class, so the per-reference kernel body inlines and a
// burst of n references costs one virtual dispatch instead of n.
#define REDHIP_KERNEL_NEXT_N(K)                          \
  void K::next_n(MemRef* out, std::size_t n) {           \
    for (std::size_t i = 0; i < n; ++i) K::next(out[i]); \
  }
REDHIP_KERNEL_NEXT_N(StreamKernel)
REDHIP_KERNEL_NEXT_N(StencilKernel)
REDHIP_KERNEL_NEXT_N(PointerChaseKernel)
REDHIP_KERNEL_NEXT_N(ZipfWalkKernel)
REDHIP_KERNEL_NEXT_N(SparseGatherKernel)
REDHIP_KERNEL_NEXT_N(BfsKernel)
REDHIP_KERNEL_NEXT_N(SgdKernel)
REDHIP_KERNEL_NEXT_N(HotColdKernel)
#undef REDHIP_KERNEL_NEXT_N

// ------------------------------------------------------------- checkpointing
// Mutable state only: regions, weights, LCG constants and sampler tables
// are construction-time values the restored kernel was rebuilt with (the
// checkpoint key's config digest guarantees the same recipe).  Field order
// is load order; the reader fail-latches, so loads run to completion and
// report r.ok() once.

void StreamKernel::ckpt_save(ByteWriter& w) const {
  ckpt_save_rng(w, rng_);
  w.u32(turn_);
  w.u32(repeat_left_);
  for (std::uint64_t c : cursor_) w.u64(c);
}

bool StreamKernel::ckpt_load(ByteReader& r) {
  ckpt_load_rng(r, rng_);
  turn_ = r.u32();
  repeat_left_ = r.u32();
  for (std::uint64_t& c : cursor_) c = r.u64();
  return r.ok() && turn_ < streams_ && repeat_left_ >= 1 &&
         repeat_left_ <= repeats_;
}

void StencilKernel::ckpt_save(ByteWriter& w) const {
  w.u64(cell_);
  w.u32(point_);
}

bool StencilKernel::ckpt_load(ByteReader& r) {
  cell_ = r.u64();
  point_ = r.u32();
  return r.ok() && point_ <= 7;
}

void PointerChaseKernel::ckpt_save(ByteWriter& w) const {
  ckpt_save_rng(w, rng_);
  w.u64(state_);
  w.u32(payload_left_);
  w.u64(payload_cursor_);
}

bool PointerChaseKernel::ckpt_load(ByteReader& r) {
  ckpt_load_rng(r, rng_);
  state_ = r.u64();
  payload_left_ = r.u32();
  payload_cursor_ = r.u64();
  return r.ok() && state_ < lines_;
}

void ZipfWalkKernel::ckpt_save(ByteWriter& w) const {
  ckpt_save_rng(w, rng_);
  w.u32(burst_left_);
  w.u64(burst_cursor_);
}

bool ZipfWalkKernel::ckpt_load(ByteReader& r) {
  ckpt_load_rng(r, rng_);
  burst_left_ = r.u32();
  burst_cursor_ = r.u64();
  return r.ok();
}

void SparseGatherKernel::ckpt_save(ByteWriter& w) const {
  ckpt_save_rng(w, rng_);
  w.u64(index_cursor_);
  w.u64(result_cursor_);
  w.u64(gather_target_);
  w.u32(phase_);
}

bool SparseGatherKernel::ckpt_load(ByteReader& r) {
  ckpt_load_rng(r, rng_);
  index_cursor_ = r.u64();
  result_cursor_ = r.u64();
  gather_target_ = r.u64();
  phase_ = r.u32();
  return r.ok() && phase_ < gathers_per_index_ * gather_elems_ + 2;
}

void BfsKernel::ckpt_save(ByteWriter& w) const {
  ckpt_save_rng(w, rng_);
  w.u64(frontier_cursor_);
  w.u64(edge_cursor_);
  w.u32(edges_left_);
  w.u32(visited_after_);
}

bool BfsKernel::ckpt_load(ByteReader& r) {
  ckpt_load_rng(r, rng_);
  frontier_cursor_ = r.u64();
  edge_cursor_ = r.u64();
  edges_left_ = r.u32();
  visited_after_ = r.u32();
  return r.ok();
}

void SgdKernel::ckpt_save(ByteWriter& w) const {
  ckpt_save_rng(w, rng_);
  w.u64(user_row_);
  w.u64(item_row_);
  w.u32(offset_);
  w.u32(phase_);
}

bool SgdKernel::ckpt_load(ByteReader& r) {
  ckpt_load_rng(r, rng_);
  user_row_ = r.u64();
  item_row_ = r.u64();
  offset_ = r.u32();
  phase_ = r.u32();
  return r.ok() && offset_ < row_bytes_ && phase_ < 4;
}

void HotColdKernel::ckpt_save(ByteWriter& w) const {
  ckpt_save_rng(w, rng_);
  w.u32(burst_left_);
  w.u64(burst_cursor_);
}

bool HotColdKernel::ckpt_load(ByteReader& r) {
  ckpt_load_rng(r, rng_);
  burst_left_ = r.u32();
  burst_cursor_ = r.u64();
  return r.ok();
}

}  // namespace redhip
