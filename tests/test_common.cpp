// Unit tests: common substrate (strong types, clock, RNG, byte helpers,
// cost model).
#include "common/bytes.h"
#include "common/cost_model.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

namespace crimes {
namespace {

TEST(Types, VaddrArithmeticAndDecomposition) {
  const Vaddr va{0xFFFF880000003ABCULL};
  EXPECT_EQ(va.page_offset(), 0xABCu);
  EXPECT_EQ((va + 0x544).page_offset(), 0x000u);
  EXPECT_EQ((va + 0x544).page_number(), va.page_number() + 1);
  EXPECT_EQ((va - 0xABC).page_offset(), 0u);
  Vaddr w = va;
  w += 4;
  EXPECT_EQ(w.value(), va.value() + 4);
}

TEST(Types, PaddrPfnRoundTrip) {
  const Paddr pa = Paddr::from(Pfn{42}, 0x123);
  EXPECT_EQ(pa.pfn(), Pfn{42});
  EXPECT_EQ(pa.page_offset(), 0x123u);
  EXPECT_EQ(pa.value(), (42u << 12) | 0x123u);
}

TEST(Types, StrongIdsCompareAndHash) {
  EXPECT_LT(Pfn{1}, Pfn{2});
  EXPECT_EQ(Mfn{7}, Mfn{7});
  EXPECT_NE(Mfn::invalid(), Mfn{0});
  EXPECT_FALSE(Mfn::invalid().is_valid());
  std::unordered_set<Pfn> set{Pfn{1}, Pfn{2}, Pfn{1}};
  EXPECT_EQ(set.size(), 2u);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), Nanos::zero());
  clock.advance(millis(1.5));
  EXPECT_EQ(clock.now(), Nanos{1'500'000});
  clock.advance(Nanos{-5});  // negative durations are ignored
  EXPECT_EQ(clock.now(), Nanos{1'500'000});
  clock.reset();
  EXPECT_EQ(clock.now(), Nanos::zero());
}

TEST(SimClock, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(to_ms(millis(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_us(micros(3.0)), 3.0);
  EXPECT_DOUBLE_EQ(to_sec(millis(1500)), 1.5);
  EXPECT_EQ(nanos(7), Nanos{7});
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(99);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.next_below(10)];
  for (const int b : buckets) {
    EXPECT_GT(b, kDraws / 10 - kDraws / 50);
    EXPECT_LT(b, kDraws / 10 + kDraws / 50);
  }
}

TEST(Bytes, LoadStoreRoundTrip) {
  std::vector<std::byte> buf(64);
  store_le<std::uint64_t>(buf, 8, 0xDEADBEEFCAFEF00DULL);
  store_le<std::uint32_t>(buf, 0, 0x12345678u);
  EXPECT_EQ(load_le<std::uint64_t>(buf, 8), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(load_le<std::uint32_t>(buf, 0), 0x12345678u);
}

TEST(Bytes, OutOfRangeThrows) {
  std::vector<std::byte> buf(8);
  EXPECT_THROW((void)load_le<std::uint64_t>(buf, 1), std::out_of_range);
  EXPECT_THROW(store_le<std::uint64_t>(buf, 4, 0ULL), std::out_of_range);
}

TEST(Bytes, CstrRoundTripAndTruncation) {
  std::vector<std::byte> buf(32);
  store_cstr(buf, 4, "hello", 16);
  EXPECT_EQ(load_cstr(buf, 4, 16), "hello");
  store_cstr(buf, 4, "a-very-long-process-name", 8);
  EXPECT_EQ(load_cstr(buf, 4, 8), "a-very-");  // truncated, NUL-terminated
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo reference set).
  EXPECT_EQ(fnv1a(std::string_view{}), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a(std::string_view{"a"}), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a(std::string_view{"foobar"}), 0x85944171F73967E8ULL);
}

TEST(Fnv1a, ByteAndStringOverloadsAgree) {
  const char text[] = "checkpoint";
  const auto* bytes = reinterpret_cast<const std::byte*>(text);
  EXPECT_EQ(fnv1a(std::span<const std::byte>(bytes, sizeof(text) - 1)),
            fnv1a(std::string_view{text}));
}

TEST(Fnv1a, SeedChainsBlocks) {
  // fnv1a(b, fnv1a(a)) == fnv1a(a + b): the seed parameter continues the
  // fold, which is how multi-block callers compose digests.
  EXPECT_EQ(fnv1a(std::string_view{"bar"}, fnv1a(std::string_view{"foo"})),
            fnv1a(std::string_view{"foobar"}));
}

// Pattern bytes for the page_hash vectors: byte i is (31 * i + 7) mod 256.
std::vector<std::byte> hash_pattern(std::size_t len) {
  std::vector<std::byte> bytes(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::byte>(i * 31 + 7);
  }
  return bytes;
}

std::span<const std::byte> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::byte*>(text.data()), text.size()};
}

TEST(PageHash, MatchesPublishedXxh64Vectors) {
  // page_hash is XXH64; these are the reference implementation's outputs
  // (seed 0), covering the short path, the 4-byte tail and the stripes.
  EXPECT_EQ(page_hash(as_bytes("")), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(page_hash(as_bytes("abc")), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(page_hash(as_bytes("Nobody inspects the spammish repetition")),
            0xFBCEA83C8A378BF1ULL);
}

TEST(PageHash, PinnedReferenceVectors) {
  // Lengths straddle the 32-byte stripe: short path, one stripe, one
  // stripe plus a byte, and a whole page. Store digests (and so the
  // tamper hook's victim order) depend on these exact values.
  const std::vector<std::byte> bytes = hash_pattern(kPageSize);
  const std::pair<std::size_t, std::uint64_t> vectors[] = {
      {0, 0xEF46DB3751D8E999ULL},  {1, 0xA96C7F0CE858BBB7ULL},
      {31, 0x4A74F3A1A39AD4A1ULL}, {32, 0x8D57D6A4671CC43DULL},
      {33, 0x62C9FD21ED857664ULL}, {kPageSize, 0xE21174BE82DC78D9ULL},
  };
  for (const auto& [len, expected] : vectors) {
    EXPECT_EQ(page_hash({bytes.data(), len}), expected) << "len " << len;
  }
  const std::vector<std::byte> zero_page(kPageSize);
  EXPECT_EQ(page_hash(zero_page), 0xAC869B6F32D8BBDBULL);
  EXPECT_EQ(page_hash(zero_page, 0x9E3779B97F4A7C15ULL),
            0x3BC3E304234F9E0EULL);
}

TEST(PageHash, SeedSelectsAnIndependentFunction) {
  // The store's content key and collision check are two seeds of the same
  // function; they must disagree on every length class.
  const std::vector<std::byte> bytes = hash_pattern(kPageSize);
  for (const std::size_t len : {std::size_t{0}, std::size_t{5},
                                std::size_t{32}, std::size_t{100},
                                kPageSize}) {
    const std::span<const std::byte> view(bytes.data(), len);
    EXPECT_NE(page_hash(view, 0), page_hash(view, 1)) << "len " << len;
    EXPECT_NE(page_hash(view, 0), page_hash(view, 0x9E3779B97F4A7C15ULL))
        << "len " << len;
  }
  // One flipped bit anywhere in a page moves the digest.
  std::vector<std::byte> flipped = bytes;
  flipped[kPageSize - 1] ^= std::byte{1};
  EXPECT_NE(page_hash(flipped), page_hash(bytes));
}

TEST(PageHash, CopyAndPageHashMatchesSeparatePasses) {
  Rng rng(43);
  std::vector<std::byte> src(kPageSize);
  for (auto& b : src) b = std::byte{static_cast<unsigned char>(rng.next_u64())};
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  lengths.push_back(kPageSize);
  for (const std::size_t len : lengths) {
    std::vector<std::byte> dst(len, std::byte{0xFF});
    for (const std::uint64_t seed : {0ULL, 0x9E3779B97F4A7C15ULL}) {
      EXPECT_EQ(copy_and_page_hash(dst.data(), src.data(), len, seed),
                page_hash({src.data(), len}, seed))
          << "len " << len << " seed " << seed;
    }
    EXPECT_TRUE(std::equal(dst.begin(), dst.end(), src.begin()))
        << "len " << len;
  }
}

TEST(CostModel, DerivedCostsScaleWithLoad) {
  const CostModel& m = CostModel::defaults();
  EXPECT_GT(m.suspend_cost(2000), m.suspend_cost(0));
  EXPECT_EQ(m.suspend_cost(0), m.suspend_base);
  EXPECT_GT(m.resume_cost(5000), m.resume_base);
  // Chunked scanning of a sparse bitmap must beat naive bit-by-bit.
  const std::size_t pages = 262144;  // 1 GiB guest
  EXPECT_LT(m.bitscan_chunked_cost(pages / 64, 2000),
            m.bitscan_naive_cost(pages));
}

TEST(CostModel, Table1CalibrationAnchors) {
  // The defaults must stay near the paper's Table 1 anchors; these bounds
  // catch accidental recalibration.
  const CostModel& m = CostModel::defaults();
  const double bitscan_1g = to_ms(m.bitscan_naive_cost(262144));
  EXPECT_NEAR(bitscan_1g, 2.6, 0.5);  // paper: 1.8-2.8 ms
  const double copy_1463 = to_ms(m.copy_socket_per_page * 1463);
  EXPECT_NEAR(copy_1463, 14.6, 2.0);  // paper: 14.63 ms (medium web)
  const double map_1463 = to_ms(m.map_per_page * 1463);
  EXPECT_NEAR(map_1463, 1.9, 0.5);  // paper: 1.88 ms
}

}  // namespace
}  // namespace crimes
