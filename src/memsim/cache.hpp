// Set-associative, write-back/write-allocate cache with true-LRU
// replacement. One instance models one level of one core's view of the
// hierarchy; Hierarchy stacks them (memsim/hierarchy.hpp).
//
// The replay loop is the study pipeline's hot path, so the lookup is
// engineered for throughput while staying bit-identical to the seed's
// one-struct-per-way stamp-LRU cache (tests/memsim_test's BaselineCache
// replica is the oracle every walker is compared with):
//
//  - ways live in compact per-set arrays (tags/flags), with invalid
//    ways holding a sentinel tag so the hit scan is a pure compare;
//  - set indexing is shift/mask for power-of-two set counts and an
//    exact multiply-shift reciprocal (common/magic_div.hpp) otherwise —
//    never a hardware divide per reference;
//  - recency is a packed order word per set (4-bit way ids, MRU in the
//    top nibble) for associativity <= 16: the LRU victim is the bottom
//    nibble (O(1) instead of a stamp scan per miss) and a repeat access
//    to the most recent way is recognized with a single compare. Wider
//    caches fall back to classic LRU stamps;
//  - one LRU walker filters whole reference blocks (the miss stream the
//    next level consumes). access_many() runs the instance picked once
//    at construction: 8, 16 and 20 ways have compile-time instances
//    (every level the Table I machines and their variants build; 20 is
//    BDW's stamp-LRU LLC), each in a many-set form, and 8 and 16 ways
//    also in a one-set form that keeps the whole set in locals (the
//    scaled-down L1s collapse to one set). Every other geometry runs the
//    many-set walker with the associativity read at run time. access()
//    is a one-reference access_many().
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/magic_div.hpp"

namespace fpr::memsim {

struct MemRef;  // memsim/trace_gen.hpp

struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = 64;
  std::uint32_t associativity = 8;

  [[nodiscard]] std::uint64_t num_lines() const {
    return size_bytes / line_bytes;
  }
  [[nodiscard]] std::uint64_t num_sets() const {
    return num_lines() / associativity;
  }
  void validate() const;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;  ///< dirty lines evicted

  friend bool operator==(const CacheStats&, const CacheStats&) = default;

  [[nodiscard]] std::uint64_t accesses() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    const auto a = accesses();
    return a != 0 ? static_cast<double>(hits) / static_cast<double>(a) : 0.0;
  }
};

class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  /// Access one address. Returns true on hit. On miss the line is
  /// allocated (write-allocate) and the LRU victim evicted.
  bool access(std::uint64_t addr, bool write);

  /// Access refs[0..n): misses are compacted to the front of `refs` in
  /// order (they are the reference stream the next-lower level sees)
  /// and their count returned. State and stats evolve exactly as n
  /// access() calls would.
  std::size_t access_many(MemRef* refs, std::size_t n) {
    return (this->*walk_)(refs, n);
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  /// Drop all contents and statistics.
  void clear();

  /// Zero the statistics but keep the cached contents (used to exclude
  /// the cold-fill phase from measurements).
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  using Walker = std::size_t (Cache::*)(MemRef*, std::size_t);

  static constexpr std::uint8_t kValid = 1;
  static constexpr std::uint8_t kDirty = 2;
  /// Tag stored in invalid ways. No real tag reaches it: lines are at
  /// least 2 bytes (CacheConfig::validate), so a tag is below 2^63.
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoShift = ~0u;
  /// Widest associativity a packed order word holds (4-bit way ids in
  /// 64 bits); wider caches keep access stamps. Decides both which state
  /// a Cache allocates and which state a walker reads.
  static constexpr std::uint32_t kMaxOrderWays = 16;

  /// The block walker: an instance for A ways (A == 0: the config's),
  /// with access stamps or a packed order word, OneSet when the cache is
  /// a single packed-order set.
  template <std::uint32_t A, bool OneSet, bool Stamps>
  std::size_t walk(MemRef* refs, std::size_t n);
  [[nodiscard]] Walker pick_walker() const;

  CacheConfig cfg_;
  std::uint64_t num_sets_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_shift_ = kNoShift;  ///< valid when num_sets is pow2
  MagicDiv set_div_;                    ///< used when num_sets is not pow2
  bool order_mode_ = false;  ///< packed-order LRU (<= kMaxOrderWays ways)
  Walker walk_ = nullptr;
  // Way state as parallel per-set arrays (index = set * assoc + way).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> flags_;  ///< kValid | kDirty
  // order_mode_: per-set recency word + valid-way count. Invalid ways
  // always form a prefix [0, assoc - valid_count) because insertion
  // fills the highest-indexed invalid way first (the scan-order rule
  // the stamp formulation implements), making "last invalid way" O(1).
  std::vector<std::uint64_t> order_;
  std::vector<std::uint8_t> valid_count_;
  // !order_mode_ (associativity > kMaxOrderWays): classic access-stamp
  // LRU.
  std::vector<std::uint64_t> stamps_;
  std::uint64_t stamp_ = 0;
  CacheStats stats_;
};

}  // namespace fpr::memsim
