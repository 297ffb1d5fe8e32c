#include "hypervisor/dirty_bitmap.h"

#include "common/thread_pool.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace crimes {

DirtyBitmap::DirtyBitmap(std::size_t page_count)
    : page_count_(page_count),
      words_((page_count + kBitsPerWord - 1) / kBitsPerWord, 0) {}

void DirtyBitmap::mark(Pfn pfn) {
  if (pfn.value() >= page_count_) {
    throw std::out_of_range("DirtyBitmap::mark: PFN out of range");
  }
  std::uint64_t& word = words_[pfn.value() / kBitsPerWord];
  const std::uint64_t bit = std::uint64_t{1} << (pfn.value() % kBitsPerWord);
  if ((word & bit) == 0) {
    word |= bit;
    ++dirty_count_;
  }
}

void DirtyBitmap::clear(Pfn pfn) {
  if (pfn.value() >= page_count_) {
    throw std::out_of_range("DirtyBitmap::clear: PFN out of range");
  }
  std::uint64_t& word = words_[pfn.value() / kBitsPerWord];
  const std::uint64_t bit = std::uint64_t{1} << (pfn.value() % kBitsPerWord);
  if ((word & bit) != 0) {
    word &= ~bit;
    --dirty_count_;
  }
}

bool DirtyBitmap::test(Pfn pfn) const {
  if (pfn.value() >= page_count_) {
    throw std::out_of_range("DirtyBitmap::test: PFN out of range");
  }
  const std::uint64_t word = words_[pfn.value() / kBitsPerWord];
  return (word >> (pfn.value() % kBitsPerWord)) & 1;
}

void DirtyBitmap::clear_all() {
  for (auto& w : words_) w = 0;
  dirty_count_ = 0;
}

std::vector<Pfn> DirtyBitmap::scan_naive() const {
  std::vector<Pfn> dirty;
  dirty.reserve(dirty_count_);
  for (std::size_t i = 0; i < page_count_; ++i) {
    const std::uint64_t word = words_[i / kBitsPerWord];
    if ((word >> (i % kBitsPerWord)) & 1) dirty.push_back(Pfn{i});
  }
  return dirty;
}

std::vector<Pfn> DirtyBitmap::scan_chunked() const {
  std::vector<Pfn> dirty;
  dirty.reserve(dirty_count_);
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t word = words_[wi];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      const std::size_t pfn = wi * kBitsPerWord + static_cast<std::size_t>(bit);
      if (pfn < page_count_) dirty.push_back(Pfn{pfn});
      word &= word - 1;  // clear lowest set bit
    }
  }
  return dirty;
}

std::vector<Pfn> DirtyBitmap::scan_simd() const {
  std::vector<Pfn> dirty;
  dirty.reserve(dirty_count_);
  constexpr std::size_t kBlock = 4;  // 4 x u64 = one 256-bit lane
  const std::size_t words = words_.size();
  const std::size_t blocked = words - words % kBlock;
  std::size_t wi = 0;
  auto decompose = [this, &dirty](std::size_t index, std::uint64_t word) {
    while (word != 0) {
      const int bit = std::countr_zero(word);
      const std::size_t pfn =
          index * kBitsPerWord + static_cast<std::size_t>(bit);
      if (pfn < page_count_) dirty.push_back(Pfn{pfn});
      word &= word - 1;
    }
  };
  for (; wi < blocked; wi += kBlock) {
    const std::uint64_t w0 = words_[wi];
    const std::uint64_t w1 = words_[wi + 1];
    const std::uint64_t w2 = words_[wi + 2];
    const std::uint64_t w3 = words_[wi + 3];
    if ((w0 | w1 | w2 | w3) == 0) continue;
    decompose(wi, w0);
    decompose(wi + 1, w1);
    decompose(wi + 2, w2);
    decompose(wi + 3, w3);
  }
  for (; wi < words; ++wi) decompose(wi, words_[wi]);
  return dirty;
}

std::vector<Pfn> DirtyBitmap::scan_parallel(
    ThreadPool& pool, std::size_t shards,
    std::vector<std::size_t>* shard_set_bits) const {
  shards = std::clamp<std::size_t>(shards, 1,
                                   std::max<std::size_t>(1, words_.size()));
  if (shards == 1) {
    if (shard_set_bits != nullptr) *shard_set_bits = {dirty_count_};
    return scan_chunked();
  }

  std::vector<std::vector<Pfn>> local(shards);
  pool.parallel_for_shards(
      words_.size(), shards,
      [this, &local](std::size_t shard, std::size_t begin, std::size_t end) {
        std::vector<Pfn>& out = local[shard];
        std::size_t count = 0;
        for (std::size_t wi = begin; wi < end; ++wi) {
          count += static_cast<std::size_t>(std::popcount(words_[wi]));
        }
        out.reserve(count);
        for (std::size_t wi = begin; wi < end; ++wi) {
          std::uint64_t word = words_[wi];
          while (word != 0) {
            const int bit = std::countr_zero(word);
            const std::size_t pfn =
                wi * kBitsPerWord + static_cast<std::size_t>(bit);
            if (pfn < page_count_) out.push_back(Pfn{pfn});
            word &= word - 1;
          }
        }
      });

  std::vector<Pfn> dirty;
  dirty.reserve(dirty_count_);
  if (shard_set_bits != nullptr) {
    shard_set_bits->clear();
    shard_set_bits->reserve(shards);
  }
  for (const auto& part : local) {
    if (shard_set_bits != nullptr) shard_set_bits->push_back(part.size());
    dirty.insert(dirty.end(), part.begin(), part.end());
  }
  return dirty;
}

}  // namespace crimes
