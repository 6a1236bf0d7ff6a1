// Set-associative tag array — the structural model of one cache level.
//
// The array tracks only presence (tags + valid bits + a per-line
// "prefetched" mark used by the prefetcher accounting); data contents are
// never modeled, matching the paper's methodology where memory is a perfect
// data store.  All timing and energy accounting lives in the simulator — the
// TagArray reports *events*, it does not price them.
//
// Storage is structure-of-arrays (SoA).  The authoritative state is the
// packed 64-bit entry per way (tag + flags) plus, for LRU with <= 16 ways
// (the paper machine), a packed per-set *rank row*: one byte per way, so one
// word for <= 8 ways and two for <= 16.  Alongside them every way carries a
// 16-bit *partial tag* in a dense per-set lane, four lanes per 64-bit word.
// A set's lane words and rank row share one cache-line-aligned block, so a
// <= 16-way set's whole replacement and probe sideband is one host cache
// line.  A probe touches the 8-byte entry only of a lane whose partial tag
// matched, so the common deep-hierarchy *miss* (the exact case ReDHiP
// exists to skip in hardware) costs a few word compares instead of a
// 64-byte entry sweep.  The LRU promote and victim pick are word-wide bit
// tricks on the rank row (SWAR), with no per-way branch.  Lanes and rank
// bytes are addressed by shifts within a word, so the layout is the same
// on either host byte order.  The lane is derived state: every mutation
// that changes residency rewrites it, and checkpoint restore rebuilds it
// from the entries.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/geometry.h"
#include "common/types.h"

namespace redhip {

class TagArray {
 public:
  struct LookupResult {
    bool hit = false;
    std::uint32_t way = 0;
    bool was_prefetched = false;  // set on the first demand hit to a
                                  // prefetched line (the mark is consumed)
  };

  struct FillResult {
    bool evicted = false;
    std::uint32_t way = 0;               // way the new line landed in
    LineAddr victim = 0;
    bool victim_was_prefetched = false;  // victim evicted with mark intact
                                         // (i.e. a useless prefetch)
    bool victim_was_dirty = false;       // eviction requires a writeback
  };

  // `seed` only matters for ReplacementKind::kRandom.
  explicit TagArray(const CacheGeometry& geom, std::uint64_t seed = 0);

  // The per-access methods below are defined inline (bottom of this header):
  // they are the simulator's hottest instructions — every simulated
  // reference runs several of them — and out-of-line calls plus the virtual
  // replacement-policy dispatch cost more than the tag match itself.  LRU
  // (the paper machine's policy) is dispatched non-virtually.

  // Probe for `line`; on a hit, promotes it in the replacement order and
  // consumes its prefetched mark.  `is_write` marks the line dirty.
  LookupResult lookup(LineAddr line, bool is_write = false);

  // Probe without any state change (used by the Oracle predictor and by
  // invariant checks).
  bool contains(LineAddr line) const;

  // Way index of the resident copy of `line` (no state change); false if
  // absent.  Lets the simulator keep per-slot sideband state (the LLC
  // core-presence directory) without widening the packed entries.
  bool find_way(LineAddr line, std::uint32_t* way) const;

  // Insert `line`; evicts a victim if the set is full.  `prefetched` marks
  // lines installed by the prefetcher rather than a demand access; `dirty`
  // installs the line already modified (write-allocate of a write miss, or
  // a dirty victim cascading down an exclusive hierarchy).
  // Pre-condition: the line is not already present (checked in debug).
  FillResult fill(LineAddr line, bool prefetched = false, bool dirty = false);

  // Fused `contains` + `fill` in a single set scan (the simulator's fill
  // paths previously did both walks back to back).  If the line is already
  // present: optionally dirties it (mark_dirty semantics — no replacement
  // promotion, no prefetched mark) and returns false.  Otherwise fills
  // exactly like fill() and returns true with the eviction outcome in
  // `*out`.
  bool fill_if_absent(LineAddr line, bool prefetched, bool dirty,
                      FillResult* out);

  // Remove `line` if present; returns true when it was.  `was_dirty`, if
  // non-null, reports whether the removed copy needed a writeback.
  bool invalidate(LineAddr line, bool* was_dirty = nullptr);

  // Hint that `line`'s set is about to be probed: pull its lane and rank
  // block (what a miss touches) and entry words (what a hit or fill
  // touches) toward the host caches.  Pure performance hint — no simulated
  // state changes, so the fast engine's software pipeline may issue it
  // speculatively without affecting bit-identity with the reference engine.
  void prefetch_line(LineAddr line) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::uint64_t set = line & set_mask_;
    __builtin_prefetch(block(set), 0, 3);
    __builtin_prefetch(set_begin(set), 0, 2);
#else
    (void)line;
#endif
  }

  // --- Geometry and introspection -----------------------------------------
  const CacheGeometry& geometry() const { return geom_; }
  std::uint64_t sets() const { return sets_; }
  std::uint32_t ways() const { return geom_.ways; }
  std::uint64_t set_of(LineAddr line) const { return line & set_mask_; }
  std::uint64_t bank_of(std::uint64_t set) const { return set & bank_mask_; }

  // Iterate the valid lines of one set (used by ReDHiP recalibration, which
  // reads the tag array set-by-set).  The templated form avoids the
  // std::function indirection on the recalibration path.
  template <typename Fn>
  void visit_valid_in_set(std::uint64_t set, Fn&& fn) const {
    const Entry* e = set_begin(set);
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      if (e[w] & kValidBit) fn(line_of(set, tag_of_entry(e[w])));
    }
  }
  void for_each_valid_in_set(std::uint64_t set,
                             const std::function<void(LineAddr)>& fn) const;
  // Iterate every valid line in the array.
  void for_each_valid(const std::function<void(LineAddr)>& fn) const;

  std::uint64_t valid_count() const { return valid_count_; }
  std::uint64_t valid_count_in_set(std::uint64_t set) const;

  // Whether the resident copy of `line` is dirty (false if absent).
  bool is_dirty(LineAddr line) const;
  // Mark a resident line dirty without touching the replacement order
  // (receiving a writeback is not a use).  Returns false if absent.
  bool mark_dirty(LineAddr line);

  // Whether the entries plus rank rows are the whole per-set state (LRU
  // with <= 16 ways, the paper machine's configuration).  Policies with
  // side state (tree-PLRU, NRU, wide LRU, the random policy's RNG) are not
  // self-contained, so ckpt_entries() below is not their complete state.
  bool state_is_self_contained() const { return embedded_lru_; }

  // Whole-array snapshot for checkpoint/restore, one word per way: the
  // entry with the way's LRU rank in bits 60..63 (the checkpoint format
  // predates the rank rows and is kept byte for byte).  It is the
  // *complete* state only when state_is_self_contained() (src/ckpt refuses
  // to checkpoint otherwise).  Restore rejects a payload of the wrong size
  // or whose per-set ranks are not a permutation of 0..ways-1 (nonzero
  // ranks, for arrays without embedded LRU), recounts the valid lines from
  // the valid bits, and rebuilds the derived partial-tag lanes.
  std::vector<std::uint64_t> ckpt_entries() const;
  bool ckpt_restore_entries(const std::vector<std::uint64_t>& entries);

 private:
  // One way, packed into a single word: bit 0 valid, bit 1 prefetched,
  // bit 2 dirty, bits 3..59 the tag; bits 60..63 stay zero so the
  // checkpoint can carry the LRU rank there.  A tag fits 57 bits: with
  // >= 64B lines that covers byte addresses past 2^63, so the shift never
  // overflows in practice.
  using Entry = std::uint64_t;
  static constexpr Entry kValidBit = 1;
  static constexpr Entry kPrefetchedBit = 2;
  static constexpr Entry kDirtyBit = 4;
  static constexpr std::uint32_t kRankShift = 60;
  // Clearing the don't-care flags leaves `(tag << 3) | valid` — one mask +
  // compare decides "valid match" for the whole entry.
  static constexpr Entry kMatchMask = ~(kPrefetchedBit | kDirtyBit);

  // The dense per-way sideband: bit 15 is the valid bit (a lane is zero
  // exactly when the way is invalid), bits 0..14 an xor-fold of the full
  // tag.  The fold covers every tag bit, so two tags that collide in the
  // lane are rare regardless of the access stride — and a collision only
  // costs one extra entry-word verify, never correctness.  Way w's lane is
  // bits [16 * (w % 4), +16) of lane word w / 4; lanes past the last way
  // hold kPTagPad, which is neither zero (so never an invalid way) nor
  // valid (so never a match).
  using PTag = std::uint16_t;
  static constexpr PTag kPTagValidBit = PTag{1} << 15;
  static constexpr PTag kPTagPad = 1;
  static constexpr std::uint32_t kNoWay = ~0u;

  static PTag ptag_of(std::uint64_t tag) {
    const std::uint64_t h = tag ^ (tag >> 15) ^ (tag >> 30) ^ (tag >> 45);
    return static_cast<PTag>((h & 0x7FFF) | kPTagValidBit);
  }

  // --- Word-wide (SWAR) helpers -------------------------------------------
  // Per-byte and per-halfword ones, and the per-byte top bits.
  static constexpr std::uint64_t kBytes1 = 0x0101010101010101ull;
  static constexpr std::uint64_t kBytesTop = 0x8080808080808080ull;
  static constexpr std::uint64_t kLanes1 = 0x0001000100010001ull;
  static constexpr std::uint64_t kLanesLow = 0x7FFF7FFF7FFF7FFFull;
  // Exact zero-field detection: with `low` the mask of every field's bits
  // but its top one, the top bit of each field of the result is set iff
  // that field of `x` is zero.  Adding within `low` never carries out of a
  // field, so every flag is exact, not only the lowest.
  static std::uint64_t zero_fields(std::uint64_t x, std::uint64_t low) {
    return ~(((x & low) + low) | x | low);
  }

  // Way index of the valid resident copy of the line with partial tag
  // `pwant` and masked entry `want`, or kNoWay; also, when `inv` is
  // non-null, the set's first invalid way (lane zero) or kNoWay in `*inv`
  // (meaningful only when the line is absent).  Each lane word yields its
  // candidate ways at once; each candidate is verified against its packed
  // entry in way order.  Tags are unique within a set (fills check absence
  // first), so at most one candidate verifies and the result equals a
  // full-entry scan's lowest-way match.  A definite miss (no lane match)
  // never touches the entries at all.
  std::uint32_t probe(const Entry* e, const std::uint64_t* lanes, Entry want,
                      PTag pwant, std::uint32_t* inv) const {
    const std::uint64_t bcast = pwant * kLanes1;
    std::uint32_t inv_w = kNoWay;
    for (std::uint32_t i = 0; i < lane_words_; ++i) {
      for (std::uint64_t m = zero_fields(lanes[i] ^ bcast, kLanesLow);
           m != 0; m &= m - 1) {
        const std::uint32_t w = 4 * i + std::countr_zero(m) / 16;
        if ((e[w] & kMatchMask) == want) return w;
      }
      if (inv != nullptr && inv_w == kNoWay) {
        const std::uint64_t z = zero_fields(lanes[i], kLanesLow);
        if (z != 0) inv_w = 4 * i + std::countr_zero(z) / 16;
      }
    }
    if (inv != nullptr) *inv = inv_w;
    return kNoWay;
  }
  std::uint32_t match_way(const Entry* e, const std::uint64_t* lanes,
                          Entry want, PTag pwant) const {
    return probe(e, lanes, want, pwant, nullptr);
  }
  std::uint32_t first_invalid_way(const std::uint64_t* lanes) const {
    for (std::uint32_t i = 0; i < lane_words_; ++i) {
      const std::uint64_t z = zero_fields(lanes[i], kLanesLow);
      if (z != 0) return 4 * i + std::countr_zero(z) / 16;
    }
    return kNoWay;
  }
  static void set_lane(std::uint64_t* lanes, std::uint32_t way, PTag ptag) {
    std::uint64_t& word = lanes[way / 4];
    const std::uint32_t shift = 16 * (way % 4);
    word = (word & ~(std::uint64_t{0xFFFF} << shift)) |
           (std::uint64_t{ptag} << shift);
  }

  static Entry pack(std::uint64_t tag, bool prefetched, bool dirty) {
    return (tag << 3) | (prefetched ? kPrefetchedBit : 0) |
           (dirty ? kDirtyBit : 0) | kValidBit;
  }
  static std::uint64_t tag_of_entry(Entry e) { return e >> 3; }

  std::uint64_t tag_of(LineAddr line) const { return line >> set_bits_; }
  LineAddr line_of(std::uint64_t set, std::uint64_t tag) const {
    return (tag << set_bits_) | set;
  }
  Entry* set_begin(std::uint64_t set) { return &entries_[set * geom_.ways]; }
  const Entry* set_begin(std::uint64_t set) const {
    return &entries_[set * geom_.ways];
  }
  // A set's sideband block: lane_words_ lane words, then rank_words_
  // rank-row words (see the constructor for its size and alignment).
  std::uint64_t* block(std::uint64_t set) {
    return &blocks_[block_off_ + set * block_words_];
  }
  const std::uint64_t* block(std::uint64_t set) const {
    return &blocks_[block_off_ + set * block_words_];
  }

  // Recompute one set's partial-tag lanes from its entries (the restore
  // paths' half of the lane-mirrors-entries invariant).
  void rebuild_lane(std::uint64_t set) {
    const Entry* e = set_begin(set);
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      set_lane(block(set), w,
               (e[w] & kValidBit) ? ptag_of(tag_of_entry(e[w])) : PTag{0});
    }
  }

  // Embedded LRU: byte w of a set's rank row is way w's rank (0 = MRU);
  // bytes past the last way hold 0xFF, which no promote ages and no victim
  // pick matches.  Behaviour is exactly LruPolicy's touch_inline /
  // victim_inline (same promotions, same way-index initial ranks); only
  // the storage moved.
  std::uint64_t* rank_row(std::uint64_t set) {
    return block(set) + lane_words_;
  }
  std::uint64_t rank_of(std::uint64_t set, std::uint32_t way) const {
    return (block(set)[lane_words_ + way / 8] >> (8 * (way % 8))) & 0xFF;
  }
  void set_rank(std::uint64_t set, std::uint32_t way, std::uint64_t rank) {
    std::uint64_t& word = rank_row(set)[way / 8];
    const std::uint32_t shift = 8 * (way % 8);
    word = (word & ~(std::uint64_t{0xFF} << shift)) | (rank << shift);
  }
  // Promote `way` to MRU: every rank below its old rank ages by one.  Per
  // byte, (rank | 0x80) - old keeps its top bit iff rank >= old; ranks and
  // `old` are <= 15, so no byte borrows from its neighbour and the inverted
  // top bits, shifted down, are the +1s.  Re-touching the MRU way (old 0)
  // ages nothing.  A fill into the victim way is the same promote: the
  // victim holds rank ways-1, so every other way ages.
  void touch_embedded(std::uint64_t* row, std::uint32_t way) {
    const std::uint32_t shift = 8 * (way % 8);
    const std::uint64_t old = ((row[way / 8] >> shift) & 0xFF) * kBytes1;
    for (std::uint32_t k = 0; k < rank_words_; ++k) {
      row[k] += (~((row[k] | kBytesTop) - old) & kBytesTop) >> 7;
    }
    row[way / 8] &= ~(std::uint64_t{0xFF} << shift);
  }
  // The ranks of a set are a permutation of 0..ways-1 (initialized that
  // way, preserved by every promote, kept by invalidation, checked by
  // checkpoint restore), so the LRU victim is the unique way whose rank
  // equals ways-1 — an exact zero-byte search of row ^ (ways-1 per byte).
  std::uint32_t victim_embedded(const std::uint64_t* row) const {
    const std::uint64_t lru = (geom_.ways - 1) * kBytes1;
    std::uint32_t w = 0;
    for (std::uint32_t k = 0; k < rank_words_; ++k) {
      const std::uint64_t m = zero_fields(row[k] ^ lru, ~kBytesTop);
      if (m != 0) w = 8 * k + std::countr_zero(m) / 8;
    }
    return w;
  }

  // Promote (set, way) in the replacement order.  The paper machine is LRU
  // at every level, so the rank-row path is the common case; wide-LRU
  // (> 16 ways) still uses LruPolicy's side array non-virtually, everything
  // else pays the virtual dispatch.
  void repl_touch(std::uint64_t set, std::uint32_t way) {
    if (embedded_lru_) {
      touch_embedded(rank_row(set), way);
    } else if (lru_ != nullptr) {
      lru_->touch_inline(set, way);
    } else {
      repl_->touch(set, way);
    }
  }
  std::uint32_t repl_victim(std::uint64_t set) {
    if (embedded_lru_) return victim_embedded(rank_row(set));
    if (lru_ != nullptr) return lru_->victim_inline(set);
    return repl_->victim(set);
  }

  // Install `tag` into a set probed absent: into way `inv` if it is an
  // invalid way, else over the replacement victim (reported in `*out`).
  // Overwrites leave the way's rank where it was — replacement state
  // belongs to the way, not to the line occupying it — then promote it.
  void install(std::uint64_t set, std::uint32_t inv, std::uint64_t tag,
               PTag ptag, bool prefetched, bool dirty, FillResult* out) {
    Entry* e = set_begin(set);
    *out = {};
    std::uint32_t w = inv;
    if (w != kNoWay) {
      ++valid_count_;
    } else {
      w = repl_victim(set);
      out->evicted = true;
      out->victim = line_of(set, tag_of_entry(e[w]));
      out->victim_was_prefetched = (e[w] & kPrefetchedBit) != 0;
      out->victim_was_dirty = (e[w] & kDirtyBit) != 0;
    }
    out->way = w;
    e[w] = pack(tag, prefetched, dirty);
    set_lane(block(set), w, ptag);
    repl_touch(set, w);
  }

  CacheGeometry geom_;
  std::uint64_t sets_;
  std::uint32_t set_bits_;
  std::uint64_t set_mask_;
  std::uint64_t bank_mask_;
  std::uint32_t lane_words_;   // lane words per set: ceil(ways / 4)
  std::uint32_t rank_words_;   // rank-row words per set (embedded LRU only)
  std::uint32_t block_words_;  // sideband block stride, see block()
  std::uint64_t block_off_;    // words to the first line-aligned block
  std::vector<Entry> entries_;
  // Per-set sideband blocks: derived partial-tag lanes (see rebuild_lane)
  // and embedded-LRU rank rows.
  std::vector<std::uint64_t> blocks_;
  std::unique_ptr<ReplacementPolicy> repl_;  // null with embedded LRU
  LruPolicy* lru_ = nullptr;  // repl_ downcast when the policy is wide LRU
  bool embedded_lru_ = false;  // LRU with <= 16 ways: ranks in rank rows
  std::uint64_t valid_count_ = 0;
};

// --------------------------------------------------------------------------
// Inline hot path.
// --------------------------------------------------------------------------

inline TagArray::LookupResult TagArray::lookup(LineAddr line, bool is_write) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  Entry* e = set_begin(set);
  const std::uint32_t w = match_way(e, block(set), want, ptag_of(tag));
  if (w == kNoWay) return {};
  LookupResult r{true, w, (e[w] & kPrefetchedBit) != 0};
  e[w] &= ~kPrefetchedBit;
  if (is_write) e[w] |= kDirtyBit;
  repl_touch(set, w);
  return r;
}

inline bool TagArray::contains(LineAddr line) const {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  return match_way(set_begin(set), block(set), want, ptag_of(tag)) !=
         kNoWay;
}

inline bool TagArray::find_way(LineAddr line, std::uint32_t* way) const {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  const std::uint32_t w =
      match_way(set_begin(set), block(set), want, ptag_of(tag));
  if (w == kNoWay) return false;
  *way = w;
  return true;
}

inline TagArray::FillResult TagArray::fill(LineAddr line, bool prefetched,
                                           bool dirty) {
  REDHIP_DCHECK(!contains(line));
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  FillResult r;
  install(set, first_invalid_way(block(set)), tag, ptag_of(tag),
          prefetched, dirty, &r);
  return r;
}

inline bool TagArray::fill_if_absent(LineAddr line, bool prefetched,
                                     bool dirty, FillResult* out) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  const PTag pwant = ptag_of(tag);
  Entry* e = set_begin(set);
  std::uint32_t inv = kNoWay;
  const std::uint32_t resident = probe(e, block(set), want, pwant, &inv);
  if (resident != kNoWay) {
    // Already present: receiving a duplicate fill is not a use, so the
    // replacement order is untouched (mark_dirty semantics).
    if (dirty) e[resident] |= kDirtyBit;
    return false;
  }
  install(set, inv, tag, pwant, prefetched, dirty, out);
  return true;
}

inline bool TagArray::invalidate(LineAddr line, bool* was_dirty) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  Entry* e = set_begin(set);
  std::uint64_t* lanes = block(set);
  const std::uint32_t w = match_way(e, lanes, want, ptag_of(tag));
  if (w == kNoWay) return false;
  if (was_dirty != nullptr) *was_dirty = (e[w] & kDirtyBit) != 0;
  // The rank row is untouched: LruPolicy never learns about invalidations
  // either, so the way keeps its place in the LRU order.
  e[w] = 0;
  set_lane(lanes, w, 0);
  --valid_count_;
  return true;
}

inline bool TagArray::mark_dirty(LineAddr line) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  Entry* e = set_begin(set);
  const std::uint32_t w = match_way(e, block(set), want, ptag_of(tag));
  if (w == kNoWay) return false;
  e[w] |= kDirtyBit;
  return true;
}

inline bool TagArray::is_dirty(LineAddr line) const {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  const Entry* e = set_begin(set);
  const std::uint32_t w = match_way(e, block(set), want, ptag_of(tag));
  return w != kNoWay && (e[w] & kDirtyBit) != 0;
}

}  // namespace redhip
