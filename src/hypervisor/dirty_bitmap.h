// Log-dirty bitmap, one bit per guest pseudo-physical page.
//
// The memory-event monitor reuses it for its per-page watch and CoW
// protection sets (hypervisor/events.h); dirty_count() is then the live
// number of armed pages.
//
// This is the data structure behind the paper's Optimization 3: Remus scans
// the bitmap bit by bit, CRIMES scans it a machine word at a time and only
// decomposes nonzero words. Both algorithms are implemented for real (and
// raced against each other in bench/fig6b_bitmap_scan); the checkpointer
// additionally charges virtual time for whichever it used.
#pragma once

#include "common/types.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crimes {

class ThreadPool;

class DirtyBitmap {
 public:
  static constexpr std::size_t kBitsPerWord = 64;

  explicit DirtyBitmap(std::size_t page_count);

  void mark(Pfn pfn);
  void clear(Pfn pfn);
  [[nodiscard]] bool test(Pfn pfn) const;
  void clear_all();

  [[nodiscard]] std::size_t page_count() const { return page_count_; }
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }
  [[nodiscard]] std::size_t dirty_count() const { return dirty_count_; }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }
  [[nodiscard]] std::vector<std::uint64_t>& mutable_words() { return words_; }

  // Remus-style scan: test every bit individually.
  [[nodiscard]] std::vector<Pfn> scan_naive() const;

  // CRIMES-style scan: skip zero words, decompose nonzero ones with ctz.
  [[nodiscard]] std::vector<Pfn> scan_chunked() const;

  // SIMD fast path over the chunked scan: tests four words at a time with
  // a single OR (the scalar spelling of a 256-bit vector compare, which
  // the autovectorizer lowers to one), so clean blocks -- the common case
  // at realistic dirty rates -- cost one load+test per four words. Nonzero
  // blocks fall back to the ctz decomposition; output is identical to
  // scan_chunked() (PFN-ascending).
  [[nodiscard]] std::vector<Pfn> scan_simd() const;

  // Parallel checkpoint engine: the chunked scan sharded across the pool.
  // Each worker ctz-decomposes a contiguous slice of the word array into a
  // shard-local vector; shards are concatenated in slice order, so the
  // result is identical to scan_chunked() (PFN-ascending). When
  // `shard_set_bits` is non-null it receives the number of dirty bits each
  // shard decomposed, which is exactly what
  // CostModel::bitscan_parallel_cost needs to charge max-shard time.
  [[nodiscard]] std::vector<Pfn> scan_parallel(
      ThreadPool& pool, std::size_t shards,
      std::vector<std::size_t>* shard_set_bits = nullptr) const;

 private:
  std::size_t page_count_;
  std::size_t dirty_count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace crimes
