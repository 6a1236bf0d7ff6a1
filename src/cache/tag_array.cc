#include "cache/tag_array.h"

#include <algorithm>
#include <bit>

#include "common/bitops.h"
#include "common/check.h"

namespace redhip {

TagArray::TagArray(const CacheGeometry& geom, std::uint64_t seed)
    : geom_(geom) {
  geom_.validate();
  sets_ = geom_.sets();
  set_bits_ = geom_.set_bits();
  set_mask_ = sets_ - 1;
  bank_mask_ = geom_.banks - 1;
  lane_words_ = (geom_.ways + 3) / 4;
  embedded_lru_ =
      geom_.replacement == ReplacementKind::kLru && geom_.ways <= 16;
  rank_words_ = embedded_lru_ ? (geom_.ways + 7) / 8 : 0;
  // Blocks of up to 64 bytes are a power of two, and wider ones a whole
  // number of 64-byte lines; with the first block line-aligned, no block
  // of a <= 16-way set straddles two host cache lines.
  const std::uint32_t used = lane_words_ + rank_words_;
  block_words_ = used <= 8 ? std::bit_ceil(used) : (used + 7) / 8 * 8;
  entries_.resize(sets_ * geom_.ways);
  blocks_.resize(sets_ * block_words_ + 7);
  block_off_ = (64 - reinterpret_cast<std::uintptr_t>(blocks_.data()) % 64) %
               64 / sizeof(std::uint64_t);
  // Every set starts from the same block: all ways invalid (lane zero),
  // padding lanes kPTagPad, and LruPolicy's initial order (rank == way
  // index, way 0 MRU) with padding rank bytes 0xFF.
  std::uint64_t* first = block(0);
  for (std::uint32_t w = geom_.ways; w < 4 * lane_words_; ++w) {
    set_lane(first, w, kPTagPad);
  }
  if (embedded_lru_) {
    std::fill(rank_row(0), rank_row(0) + rank_words_, ~std::uint64_t{0});
    for (std::uint32_t w = 0; w < geom_.ways; ++w) set_rank(0, w, w);
  }
  for (std::uint64_t s = 1; s < sets_; ++s) {
    std::copy(first, first + block_words_, block(s));
  }
  if (!embedded_lru_) {
    repl_ =
        ReplacementPolicy::create(geom_.replacement, sets_, geom_.ways, seed);
    lru_ = dynamic_cast<LruPolicy*>(repl_.get());
  }
}

void TagArray::for_each_valid_in_set(
    std::uint64_t set, const std::function<void(LineAddr)>& fn) const {
  visit_valid_in_set(set, fn);
}

void TagArray::for_each_valid(const std::function<void(LineAddr)>& fn) const {
  for (std::uint64_t s = 0; s < sets_; ++s) for_each_valid_in_set(s, fn);
}

std::uint64_t TagArray::valid_count_in_set(std::uint64_t set) const {
  const Entry* e = set_begin(set);
  std::uint64_t n = 0;
  for (std::uint32_t w = 0; w < geom_.ways; ++w) n += e[w] & kValidBit;
  return n;
}

std::vector<std::uint64_t> TagArray::ckpt_entries() const {
  std::vector<std::uint64_t> out = entries_;
  if (embedded_lru_) {
    for (std::uint64_t s = 0; s < sets_; ++s) {
      for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        out[s * geom_.ways + w] |= rank_of(s, w) << kRankShift;
      }
    }
  }
  return out;
}

bool TagArray::ckpt_restore_entries(const std::vector<std::uint64_t>& entries) {
  if (entries.size() != entries_.size()) return false;
  // Validate before touching any state, so a rejected payload leaves the
  // array as it was.  Without embedded LRU every rank field is zero.
  const std::uint64_t full = embedded_lru_ ? low_mask(geom_.ways) : 1;
  for (std::uint64_t s = 0; s < sets_; ++s) {
    std::uint64_t seen = 0;
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      seen |= std::uint64_t{1} << (entries[s * geom_.ways + w] >> kRankShift);
    }
    if (seen != full) return false;
  }
  valid_count_ = 0;
  for (std::uint64_t s = 0; s < sets_; ++s) {
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      const std::uint64_t packed = entries[s * geom_.ways + w];
      if (embedded_lru_) set_rank(s, w, packed >> kRankShift);
      set_begin(s)[w] = packed & low_mask(kRankShift);
      valid_count_ += packed & kValidBit;
    }
    rebuild_lane(s);
  }
  return true;
}

}  // namespace redhip
