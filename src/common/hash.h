// The repo's two digests: a word-wide page hash and FNV-1a.
//
// page_hash is XXH64 (four 64-bit lanes over 32-byte stripes, then the
// word / half-word / byte tail, then a length-folding avalanche). It is
// the digest for everything page-sized on a hot path: the store's content
// key (store::page_digest) and its collision check (same function, other
// seed), the CoW drain's fused copy+digest, the checkpointer's backup
// verification sweep, and the body of the sealer's MAC. A 4 KiB page
// costs a few hundred nanoseconds this way; the byte-serial FNV-1a fold
// it replaced cost ~7 us, some 40x the 180 ns CostModel::store_hash_per_page
// charge, so host time, not the model, was paying for it.
//
// FNV-1a stays where inputs are short or the value is a format: string
// salts (fault sites, module names), attestation POD digests, the journal's
// framing checksum (on disk), and the kernel-text scan.
//
// Neither is a cryptographic hash. Every digest here indexes or
// cross-checks data the same process wrote; the sealer's keyed MAC is a
// simulator-grade construction (crypto/page_sealer.h). Words are loaded
// in host byte order, which the rest of the repo (common/bytes.h) also
// assumes is little-endian. Reference vectors are pinned by
// tests/test_common.cpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace crimes {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;

// Folds `bytes` into `seed`. Passing a previous digest as the seed chains
// blocks: fnv1a(b, fnv1a(a)) == fnv1a(a + b).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::byte> bytes,
    std::uint64_t seed = kFnv1aOffsetBasis) {
  std::uint64_t hash = seed;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint8_t>(b);
    hash *= kFnv1aPrime;
  }
  return hash;
}

// String flavor (fault-site salts, module names).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view text, std::uint64_t seed = kFnv1aOffsetBasis) {
  std::uint64_t hash = seed;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

// Fused copy+digest over FNV-1a: bit-identical to memcpy(dst, src)
// followed by fnv1a(src). The fold is byte-serial, so this is hash-bound;
// page-sized copies use copy_and_page_hash below.
[[nodiscard]] inline std::uint64_t copy_and_fnv1a(
    std::byte* dst, const std::byte* src, std::size_t len,
    std::uint64_t seed = kFnv1aOffsetBasis) {
  std::uint64_t hash = seed;
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= len; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    __builtin_memcpy(&word, src + i, sizeof(word));
    __builtin_memcpy(dst + i, &word, sizeof(word));
    for (std::size_t b = 0; b < sizeof(word); ++b) {
      hash ^= (word >> (b * 8)) & 0xFFU;
      hash *= kFnv1aPrime;
    }
  }
  for (; i < len; ++i) {
    dst[i] = src[i];
    hash ^= static_cast<std::uint8_t>(src[i]);
    hash *= kFnv1aPrime;
  }
  return hash;
}

namespace page_hash_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;
inline constexpr std::size_t kStripe = 32;

[[nodiscard]] inline std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[nodiscard]] inline std::uint32_t load32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[nodiscard]] constexpr std::uint64_t lane_round(std::uint64_t acc,
                                                 std::uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

[[nodiscard]] constexpr std::uint64_t merge(std::uint64_t acc,
                                            std::uint64_t lane) {
  acc ^= lane_round(0, lane);
  return acc * kPrime1 + kPrime4;
}

// The four stripe lanes: each consumes one word of every 32-byte stripe.
struct Lanes {
  std::uint64_t v[4];

  explicit constexpr Lanes(std::uint64_t seed)
      : v{seed + kPrime1 + kPrime2, seed + kPrime2, seed, seed - kPrime1} {}

  void stripe(const std::byte* p) {
    for (std::size_t l = 0; l < 4; ++l) {
      v[l] = lane_round(v[l], load64(p + 8 * l));
    }
  }

  [[nodiscard]] std::uint64_t fold() const {
    std::uint64_t h = std::rotl(v[0], 1) + std::rotl(v[1], 7) +
                      std::rotl(v[2], 12) + std::rotl(v[3], 18);
    for (const std::uint64_t lane : v) h = merge(h, lane);
    return h;
  }
};

// Folds the sub-stripe tail (< 32 bytes at `p`) into `h`, then avalanches.
[[nodiscard]] inline std::uint64_t finish(std::uint64_t h, const std::byte* p,
                                          std::size_t len) {
  for (; len >= 8; p += 8, len -= 8) {
    h ^= lane_round(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (len >= 4) {
    h ^= static_cast<std::uint64_t>(load32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    len -= 4;
  }
  for (; len > 0; ++p, --len) {
    h ^= static_cast<std::uint8_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
}

}  // namespace page_hash_detail

// XXH64 of `bytes` under `seed`. Unlike fnv1a the seed does not chain
// blocks; it selects an independent hash function (the store's content
// key and collision check are two seeds of this one function).
[[nodiscard]] inline std::uint64_t page_hash(std::span<const std::byte> bytes,
                                             std::uint64_t seed = 0) {
  using namespace page_hash_detail;
  const std::byte* p = bytes.data();
  const std::size_t len = bytes.size();
  std::size_t i = 0;
  std::uint64_t h = seed + kPrime5;
  if (len >= kStripe) {
    Lanes lanes(seed);
    for (; i + kStripe <= len; i += kStripe) lanes.stripe(p + i);
    h = lanes.fold();
  }
  return finish(h + len, p + i, len - i);
}

// Fused copy+digest: copies `src` into `dst` and hashes the same loaded
// stripes, so the CoW drain sweeps each page once instead of
// memcpy-then-hash. Bit-identical to memcpy(dst, src) followed by
// page_hash(src). The ranges must not overlap.
[[nodiscard]] inline std::uint64_t copy_and_page_hash(
    std::byte* dst, const std::byte* src, std::size_t len,
    std::uint64_t seed = 0) {
  using namespace page_hash_detail;
  std::size_t i = 0;
  std::uint64_t h = seed + kPrime5;
  if (len >= kStripe) {
    Lanes lanes(seed);
    for (; i + kStripe <= len; i += kStripe) {
      std::memcpy(dst + i, src + i, kStripe);
      lanes.stripe(src + i);
    }
    h = lanes.fold();
  }
  if (i < len) std::memcpy(dst + i, src + i, len - i);
  return finish(h + len, src + i, len - i);
}

}  // namespace crimes
