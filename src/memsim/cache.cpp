#include "memsim/cache.hpp"

#include <algorithm>
#include <bit>

#include "memsim/trace_gen.hpp"

namespace fpr::memsim {

namespace {

constexpr std::uint64_t kNibbleLow = 0x1111111111111111ull;

/// Identity recency word for an empty set: way j at rank j (rank 0 =
/// low nibble = LRU end, rank A-1 = MRU end).
std::uint64_t identity_order(std::uint32_t assoc) {
  std::uint64_t w = 0;
  for (std::uint32_t j = 0; j < assoc; ++j) {
    w |= static_cast<std::uint64_t>(j) << (4 * j);
  }
  return w;
}

/// Rank of `way` inside `order` (`ways` nibbles). SWAR zero-nibble
/// search: XOR against the way replicated per nibble, OR-reduce each
/// nibble to its low bit, and the lowest clear nibble marks the match.
/// The compiled walker instances pass a constant `ways`, which folds.
inline std::uint32_t find_rank(std::uint64_t order, std::uint32_t way,
                               std::uint32_t ways) {
  const std::uint64_t mask =
      ways == 16 ? ~std::uint64_t{0} : (std::uint64_t{1} << (4 * ways)) - 1;
  std::uint64_t x = (order ^ (way * kNibbleLow)) | ~mask;
  x |= x >> 2;
  x |= x >> 1;
  const std::uint64_t nonzero = x & kNibbleLow;  // 1 per non-matching nibble
  return static_cast<std::uint32_t>(
             std::countr_zero(~nonzero & kNibbleLow)) >>
         2;
}

/// Move the way at `rank` to the MRU end, keeping all other ways in
/// relative order. rank == ways-1 (already MRU) must be handled by the
/// caller or is a structural no-op via the early return.
inline std::uint64_t move_to_front(std::uint64_t order, std::uint32_t rank,
                                   std::uint32_t way, std::uint32_t ways) {
  if (rank == ways - 1) return order;
  const std::uint64_t low =
      order & ((std::uint64_t{1} << (4 * rank)) - 1);
  const std::uint64_t high = (order >> (4 * (rank + 1))) << (4 * rank);
  return low | high | (static_cast<std::uint64_t>(way) << (4 * (ways - 1)));
}

}  // namespace

void CacheConfig::validate() const {
  // One-byte lines would make the tag the full address, which can reach
  // the invalid-way sentinel; no modelled cache has lines that small.
  if (line_bytes < 2 || !std::has_single_bit(line_bytes)) {
    throw std::invalid_argument(
        "cache line size must be a power of two of at least 2 bytes");
  }
  if (size_bytes == 0 || size_bytes % line_bytes != 0) {
    throw std::invalid_argument("cache size must be a multiple of the line");
  }
  if (associativity == 0 || num_lines() % associativity != 0) {
    throw std::invalid_argument("cache lines must split evenly into ways");
  }
  // Any positive set count is allowed (modulo indexing); scaled-down
  // shared-cache shares are rarely power-of-two capacities.
}

Cache::Cache(CacheConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  num_sets_ = cfg_.num_sets();
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.line_bytes));
  if (std::has_single_bit(num_sets_)) {
    set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
  } else {
    set_div_ = MagicDiv(num_sets_);
  }
  order_mode_ = cfg_.associativity <= kMaxOrderWays;
  walk_ = pick_walker();
  tags_.assign(cfg_.num_lines(), kInvalidTag);
  flags_.assign(cfg_.num_lines(), 0);
  if (order_mode_) {
    order_.assign(num_sets_, identity_order(cfg_.associativity));
    valid_count_.assign(num_sets_, 0);
  } else {
    stamps_.assign(cfg_.num_lines(), 0);
  }
}

bool Cache::access(std::uint64_t addr, bool write) {
  MemRef ref{.addr = addr, .write = write};
  return access_many(&ref, 1) == 0;
}

/// The LRU walk over a block. A > 0 fixes the associativity at compile
/// time; A == 0 reads it from the config. Stamps picks access-stamp LRU
/// (above kMaxOrderWays ways) over the packed order word. The two set
/// forms differ only in where a reference's set lives: OneSet copies the
/// single set into locals for the whole block (no split, and no way
/// state the stores into `refs` could alias); the many-set form splits
/// each address and works on the member arrays. Only the compiled
/// packed-order instances have a one-set form (the scaled-down L1s).
template <std::uint32_t A, bool OneSet, bool Stamps>
std::size_t Cache::walk(MemRef* refs, std::size_t n) {
  static_assert(A == 0 || Stamps == (A > kMaxOrderWays),
                "a compiled instance's width decides its LRU state");
  static_assert(!OneSet || (A != 0 && !Stamps),
                "one-set walkers are compiled packed-order instances");
  const std::uint32_t ways = A != 0 ? A : cfg_.associativity;
  const std::uint32_t line_shift = line_shift_;
  const std::uint64_t num_sets = num_sets_;
  const std::uint32_t set_shift = set_shift_;
  std::uint64_t hits = 0, misses = 0, writebacks = 0;
  std::uint64_t stamp = Stamps ? stamp_ : 0;

  std::uint64_t one_tags[OneSet ? A : 1];
  std::uint8_t one_flags[OneSet ? A : 1];
  std::uint64_t one_order = 0;
  std::uint8_t one_valid = 0;
  if constexpr (OneSet) {
    std::copy_n(tags_.data(), A, one_tags);
    std::copy_n(flags_.data(), A, one_flags);
    one_order = order_[0];
    one_valid = valid_count_[0];
  }

  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool write = refs[i].write;
    const std::uint64_t line = refs[i].addr >> line_shift;
    std::uint64_t set = 0;
    std::uint64_t tag = line;  // one set: the tag is the whole line
    if constexpr (!OneSet) {
      if (set_shift != kNoShift) {
        set = line & (num_sets - 1);
        tag = line >> set_shift;
      } else {
        tag = set_div_.div(line);
        set = line - tag * num_sets;
      }
    }
    const std::size_t base = static_cast<std::size_t>(set) * ways;
    std::uint64_t* const tags = OneSet ? one_tags : tags_.data() + base;
    std::uint8_t* const flags = OneSet ? one_flags : flags_.data() + base;

    std::uint32_t victim;
    if constexpr (Stamps) {
      std::uint64_t* const stamps = stamps_.data() + base;
      ++stamp;
      std::uint32_t hit = ways;
      for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == tag) hit = w;
      }
      if (hit != ways) {
        stamps[hit] = stamp;
        if (write) flags[hit] |= kDirty;
        ++hits;
        continue;
      }
      // The last minimum stamp. Invalid ways hold 0 and valid stamps are
      // unique and at least 1, so this is the seed replica's rule: the
      // last invalid way while the set fills, the LRU way after.
      victim = 0;
      std::uint64_t oldest = stamps[0];
      for (std::uint32_t w = 1; w < ways; ++w) {
        if (stamps[w] <= oldest) {
          oldest = stamps[w];
          victim = w;
        }
      }
      stamps[victim] = stamp;
    } else {
      std::uint64_t* const order_slot = OneSet ? &one_order : &order_[set];
      std::uint8_t* const valid_slot = OneSet ? &one_valid : &valid_count_[set];
      std::uint64_t order = *order_slot;

      // MRU-first probe: a repeat of the most recent way needs no reorder.
      const auto mru =
          static_cast<std::uint32_t>(order >> (4 * (ways - 1))) & 0xF;
      if (tags[mru] == tag) {
        if (write) flags[mru] |= kDirty;
        ++hits;
        continue;
      }

      std::uint32_t hit = ways;
      for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == tag) hit = w;
      }
      if (hit != ways) {
        *order_slot =
            move_to_front(order, find_rank(order, hit, ways), hit, ways);
        if (write) flags[hit] |= kDirty;
        ++hits;
        continue;
      }

      const std::uint8_t valid = *valid_slot;
      if (valid < ways) {
        victim = ways - 1 - valid;  // last invalid way (prefix invariant)
        *valid_slot = static_cast<std::uint8_t>(valid + 1);
        order =
            move_to_front(order, find_rank(order, victim, ways), victim, ways);
      } else {
        victim = static_cast<std::uint32_t>(order & 0xF);
        order = (order >> 4) |
                (static_cast<std::uint64_t>(victim) << (4 * (ways - 1)));
      }
      *order_slot = order;
    }

    ++misses;
    if ((flags[victim] & (kValid | kDirty)) == (kValid | kDirty)) {
      ++writebacks;
    }
    tags[victim] = tag;
    flags[victim] = static_cast<std::uint8_t>(kValid | (write ? kDirty : 0));
    refs[out++] = refs[i];
  }

  if constexpr (OneSet) {
    std::copy_n(one_tags, A, tags_.data());
    std::copy_n(one_flags, A, flags_.data());
    order_[0] = one_order;
    valid_count_[0] = one_valid;
  }
  if constexpr (Stamps) stamp_ = stamp;
  stats_.hits += hits;
  stats_.misses += misses;
  stats_.writebacks += writebacks;
  return out;
}

Cache::Walker Cache::pick_walker() const {
  struct Instance {
    std::uint32_t assoc;
    bool one_set;
    Walker walk;
  };
  static constexpr Instance kCatalogue[] = {
      {8, true, &Cache::walk<8, true, false>},
      {8, false, &Cache::walk<8, false, false>},
      {16, true, &Cache::walk<16, true, false>},
      {16, false, &Cache::walk<16, false, false>},
      {20, false, &Cache::walk<20, false, true>},
  };
  for (const Instance& inst : kCatalogue) {
    if (inst.assoc == cfg_.associativity && inst.one_set == (num_sets_ == 1)) {
      return inst.walk;
    }
  }
  return order_mode_ ? &Cache::walk<0, false, false>
                     : &Cache::walk<0, false, true>;
}

void Cache::clear() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(flags_.begin(), flags_.end(), 0);
  if (order_mode_) {
    std::fill(order_.begin(), order_.end(),
              identity_order(cfg_.associativity));
    std::fill(valid_count_.begin(), valid_count_.end(), 0);
  } else {
    std::fill(stamps_.begin(), stamps_.end(), 0);
    stamp_ = 0;
  }
  stats_ = CacheStats{};
}

}  // namespace fpr::memsim
