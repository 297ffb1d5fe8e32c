// Tests: checkpoint transports, including the Remus-style compressed
// (XOR-delta + RLE) path and its codec, and the fault paths of the two
// socket transports (retry/backoff accounting under a transport storm).
#include "checkpoint/checkpointer.h"
#include "checkpoint/transport.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/crimes.h"
#include "fault/fault_plan.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

namespace crimes {
namespace {

using testing::TestGuest;

TEST(Rle, RoundTripsVariousPatterns) {
  const auto round_trip = [](std::vector<std::byte> data) {
    const auto encoded = rle::encode(data);
    std::vector<std::byte> decoded(data.size());
    ASSERT_TRUE(rle::decode(encoded, decoded));
    EXPECT_EQ(decoded, data);
  };
  round_trip({});
  round_trip(std::vector<std::byte>(4096, std::byte{0}));         // all zero
  round_trip(std::vector<std::byte>(4096, std::byte{0xAB}));      // all lits
  {
    std::vector<std::byte> sparse(4096, std::byte{0});
    sparse[17] = std::byte{1};
    sparse[4000] = std::byte{2};
    round_trip(sparse);
  }
  {
    Rng rng(3);
    std::vector<std::byte> random(4096);
    for (auto& b : random) b = static_cast<std::byte>(rng.next_u64());
    round_trip(random);
  }
  {
    // Runs longer than the u16 field can express in one record.
    std::vector<std::byte> long_runs(200000, std::byte{0});
    for (std::size_t i = 100000; i < 180000; ++i) {
      long_runs[i] = std::byte{0x55};
    }
    round_trip(long_runs);
  }
}

TEST(Rle, CompressesSparseDataAndRejectsGarbage) {
  std::vector<std::byte> sparse(4096, std::byte{0});
  sparse[100] = std::byte{7};
  const auto encoded = rle::encode(sparse);
  EXPECT_LT(encoded.size(), 64u);

  std::vector<std::byte> out(4096);
  std::vector<std::byte> truncated(encoded.begin(), encoded.begin() + 2);
  EXPECT_FALSE(rle::decode(truncated, out));
  // A record claiming more literals than remain.
  std::vector<std::byte> lying(4);
  lying[2] = std::byte{0xFF};
  lying[3] = std::byte{0xFF};
  EXPECT_FALSE(rle::decode(lying, out));
}

// The byte-serial encoder rle::encode replaced: one byte per step, each
// run capped at the u16 field. The word-wide encoder must reproduce its
// output byte for byte (the store's payload sizes, and so its accounting
// and journal bytes, depend on it).
std::vector<std::byte> reference_encode(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  std::size_t i = 0;
  while (i < data.size()) {
    std::size_t zeros = 0;
    while (i + zeros < data.size() && data[i + zeros] == std::byte{0} &&
           zeros < 0xFFFF) {
      ++zeros;
    }
    const std::size_t lit_start = i + zeros;
    std::size_t lits = 0;
    while (lit_start + lits < data.size() &&
           data[lit_start + lits] != std::byte{0} && lits < 0xFFFF) {
      ++lits;
    }
    const std::size_t base = out.size();
    out.resize(base + 4 + lits);
    store_le<std::uint16_t>(out, base, static_cast<std::uint16_t>(zeros));
    store_le<std::uint16_t>(out, base + 2, static_cast<std::uint16_t>(lits));
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(lit_start), lits,
                out.begin() + static_cast<std::ptrdiff_t>(base + 4));
    i = lit_start + lits;
  }
  return out;
}

void expect_matches_reference(std::span<const std::byte> data,
                              const std::string& what) {
  const std::vector<std::byte> encoded = rle::encode(data);
  ASSERT_EQ(encoded, reference_encode(data)) << what;
  std::vector<std::byte> decoded(data.size());
  ASSERT_TRUE(rle::decode(encoded, decoded)) << what;
  ASSERT_TRUE(std::equal(decoded.begin(), decoded.end(), data.begin()))
      << what;
}

TEST(Rle, WordWideEncoderMatchesByteSerialReference) {
  Rng rng(77);
  // Densities from nearly all zero to nearly all literal; lengths are
  // random (mostly not multiples of 8), and the view starts at a random
  // offset so word loads are unaligned.
  for (const double density : {0.0, 0.02, 0.3, 0.5, 0.9, 0.995, 1.0}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t len = rng.next_below(5000);
      const std::size_t offset = rng.next_below(8);
      std::vector<std::byte> buf(len + offset);
      for (auto& b : buf) {
        b = rng.next_bool(density)
                ? static_cast<std::byte>(rng.next_in(1, 255))
                : std::byte{0};
      }
      expect_matches_reference(
          std::span<const std::byte>(buf).subspan(offset),
          "density " + std::to_string(density) + " len " +
              std::to_string(len) + " offset " + std::to_string(offset));
    }
  }
  // Page-sized run structure: alternating zero and literal runs of random
  // lengths, the shape of real XOR deltas.
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::byte> page(kPageSize, std::byte{0});
    std::size_t at = rng.next_below(64);
    while (at < page.size()) {
      const std::size_t lits = std::min<std::size_t>(rng.next_in(1, 40),
                                                     page.size() - at);
      for (std::size_t i = 0; i < lits; ++i) {
        page[at + i] = static_cast<std::byte>(rng.next_in(1, 255));
      }
      at += lits + rng.next_in(1, 300);
    }
    expect_matches_reference(page, "runs trial " + std::to_string(trial));
  }
}

TEST(Rle, WordWideEncoderMatchesReferenceAcrossRunCaps) {
  // Zero and literal runs just under, at and over the 0xFFFF cap, with
  // ragged ends so the word loop hands over to the byte loop mid-run.
  for (const std::size_t run : {std::size_t{0xFFF8}, std::size_t{0xFFFE},
                                std::size_t{0xFFFF}, std::size_t{0x10000},
                                std::size_t{0x10007}, std::size_t{0x1FFFE},
                                std::size_t{0x20005}}) {
    for (const std::size_t tail : {std::size_t{0}, std::size_t{3},
                                   std::size_t{9}}) {
      std::vector<std::byte> zeros_first(run + tail, std::byte{0});
      for (std::size_t i = run; i < zeros_first.size(); ++i) {
        zeros_first[i] = std::byte{0x11};
      }
      expect_matches_reference(zeros_first, "zero run " + std::to_string(run) +
                                                " tail " +
                                                std::to_string(tail));
      std::vector<std::byte> lits_first(run + tail, std::byte{0x22});
      for (std::size_t i = run; i < lits_first.size(); ++i) {
        lits_first[i] = std::byte{0};
      }
      expect_matches_reference(lits_first, "literal run " +
                                               std::to_string(run) + " tail " +
                                               std::to_string(tail));
    }
  }
}

TEST(CompressedTransport, ProducesIdenticalBackupImage) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::no_opt();
  config.compress = true;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();

  Rng rng(31);
  const GuestLayout& layout = guest.kernel->layout();
  const Vaddr heap = layout.va_of(layout.heap_base);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 150; ++i) {
      const std::uint64_t off =
          rng.next_below(layout.heap_pages * kPageSize / 8 - 1) * 8;
      guest.kernel->write_value<std::uint64_t>(heap + off, rng.next_u64());
    }
    (void)cp.run_checkpoint({});
    for (std::size_t i = 0; i < guest.vm->page_count(); ++i) {
      ASSERT_EQ(std::as_const(*guest.vm).page(Pfn{i}),
                std::as_const(cp.backup()).page(Pfn{i}))
          << "epoch " << epoch << " page " << i;
    }
  }
}

TEST(CompressedTransport, SparseDirtyingCompressesAndCostsLess) {
  // Two identical guests, one plain socket, one compressed. Each epoch
  // writes 8 bytes into each of many pages: deltas are tiny.
  TestGuest plain_guest, comp_guest;
  SimClock c1, c2;
  Checkpointer plain(plain_guest.hypervisor, *plain_guest.vm, c1,
                     CostModel::defaults(), CheckpointConfig::no_opt());
  CheckpointConfig comp_config = CheckpointConfig::no_opt();
  comp_config.compress = true;
  Checkpointer comp(comp_guest.hypervisor, *comp_guest.vm, c2,
                    CostModel::defaults(), comp_config);
  plain.initialize();
  comp.initialize();

  const auto sparse_writes = [](GuestKernel& kernel) {
    const GuestLayout& layout = kernel.layout();
    const Vaddr heap = layout.va_of(layout.heap_base);
    for (std::size_t page = 0; page < 200; ++page) {
      kernel.write_value<std::uint64_t>(heap + page * kPageSize + 64,
                                        0xABCDEF ^ page);
    }
  };
  sparse_writes(*plain_guest.kernel);
  sparse_writes(*comp_guest.kernel);
  // First checkpoint after boot carries cold pages; commit it, then
  // measure a steady-state epoch.
  (void)plain.run_checkpoint({});
  (void)comp.run_checkpoint({});
  sparse_writes(*plain_guest.kernel);
  sparse_writes(*comp_guest.kernel);
  const EpochResult plain_result = plain.run_checkpoint({});
  const EpochResult comp_result = comp.run_checkpoint({});

  ASSERT_EQ(plain_result.dirty.size(), comp_result.dirty.size());
  EXPECT_LT(comp_result.costs.copy, plain_result.costs.copy / 2);

  const auto& transport =
      dynamic_cast<const CompressedSocketTransport&>(comp.transport());
  EXPECT_GT(transport.compression_ratio(), 10.0);
}

TEST(CompressedTransport, IncompressibleDataCostsAboutTheSame) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::no_opt();
  config.compress = true;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();

  // Fill whole pages with random bytes: zero-free deltas.
  Rng rng(77);
  const GuestLayout& layout = guest.kernel->layout();
  const Vaddr heap = layout.va_of(layout.heap_base);
  std::vector<std::byte> junk(kPageSize);
  for (std::size_t page = 0; page < 50; ++page) {
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.next_u64() | 1);  // never zero
    }
    guest.kernel->write_virt(heap + page * kPageSize, junk);
  }
  const EpochResult result = cp.run_checkpoint({});
  const Nanos plain_cost =
      CostModel::defaults().copy_socket_per_page * result.dirty.size();
  // Within ~2x of the plain socket cost (RLE adds a little framing).
  EXPECT_LT(result.costs.copy, plain_cost * 2);
  EXPECT_GT(result.costs.copy, plain_cost / 2);
}

TEST(CompressedTransport, RejectedWithMemcpyOptimization) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::full();
  config.compress = true;
  EXPECT_THROW(Checkpointer(guest.hypervisor, *guest.vm, clock,
                            CostModel::defaults(), config),
               std::invalid_argument);
}

TEST(Transports, NamesAreDistinct) {
  const CostModel& costs = CostModel::defaults();
  MemcpyTransport a(costs);
  SocketTransport b(costs);
  CompressedSocketTransport c(costs);
  EXPECT_STRNE(a.name(), b.name());
  EXPECT_STRNE(b.name(), c.name());
}

// ---------------------------------------------------------------------------
// Socket-transport fault paths: the retry/backoff machinery was only ever
// exercised end-to-end on MemcpyTransport; drive both socket transports
// through a transport storm and hold them to the same contract.
// ---------------------------------------------------------------------------

std::uint64_t backup_fingerprint(Crimes& crimes) {
  Vm& backup = crimes.checkpointer().backup();
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::size_t i = 0; i < backup.page_count(); ++i) {
    const Pfn pfn{i};
    if (!backup.is_backed(pfn)) {
      mix(0x9E);
      continue;
    }
    for (const std::byte b : backup.page(pfn).bytes()) {
      mix(std::to_integer<std::uint64_t>(b));
    }
  }
  return h;
}

struct SocketRun {
  RunSummary summary;
  std::uint64_t backup_hash = 0;
};

SocketRun run_socket_parsec(bool compress, fault::FaultPlan plan) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::no_opt(millis(50));
  config.checkpoint.compress = compress;
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.faults = std::move(plan);

  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = 500.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();
  SocketRun out;
  out.summary = crimes.run(millis(10000));
  out.backup_hash = backup_fingerprint(crimes);
  return out;
}

TEST(SocketTransportFaults, StormRetriesWithBackoffAndConverges) {
  // Faults confined to the first four epochs: the socket path must retry,
  // charge exponential backoff to the virtual clock, and still converge on
  // the fault-free backup image once the storm passes.
  const fault::FaultPlan plan = fault::FaultPlan::transport_storm(0.6, 0, 4, 11);
  const SocketRun faulty = run_socket_parsec(/*compress=*/false, plan);
  const SocketRun clean =
      run_socket_parsec(/*compress=*/false, fault::FaultPlan{});

  EXPECT_EQ(faulty.summary.epochs, clean.summary.epochs);
  EXPECT_EQ(faulty.backup_hash, clean.backup_hash)
      << "socket backup must converge on the clean image after the storm";
  EXPECT_GT(faulty.summary.faults_injected, 0u);
  EXPECT_GT(faulty.summary.copy_retries, 0u);
  EXPECT_EQ(clean.summary.copy_retries, 0u);
  // Backoff accounting: every retry charges at least the base backoff
  // (retry k waits base << k), all of it booked as recovery time.
  const Nanos floor =
      CostModel::defaults().retry_backoff_base * faulty.summary.copy_retries;
  EXPECT_GE(faulty.summary.recovery_time, floor);
  EXPECT_GT(faulty.summary.total_pause, clean.summary.total_pause);
}

TEST(SocketTransportFaults, CompressedStormRetriesAndStaysDeterministic) {
  const fault::FaultPlan plan = fault::FaultPlan::transport_storm(0.6, 0, 4, 5);
  const SocketRun a = run_socket_parsec(/*compress=*/true, plan);
  const SocketRun b = run_socket_parsec(/*compress=*/true, plan);
  const SocketRun clean =
      run_socket_parsec(/*compress=*/true, fault::FaultPlan{});

  // Same seed, same run: fault decisions and backoff charges replay.
  EXPECT_EQ(a.summary.faults_injected, b.summary.faults_injected);
  EXPECT_EQ(a.summary.copy_retries, b.summary.copy_retries);
  EXPECT_EQ(a.summary.checkpoint_failures, b.summary.checkpoint_failures);
  EXPECT_EQ(a.summary.recovery_time, b.summary.recovery_time);
  EXPECT_EQ(a.summary.total_pause, b.summary.total_pause);
  EXPECT_EQ(a.backup_hash, b.backup_hash);

  // The compressed path heals exactly like the plain one.
  EXPECT_EQ(a.summary.epochs, clean.summary.epochs);
  EXPECT_EQ(a.backup_hash, clean.backup_hash);
  EXPECT_GT(a.summary.copy_retries, 0u);
  EXPECT_GE(a.summary.recovery_time,
            CostModel::defaults().retry_backoff_base * a.summary.copy_retries);
}

}  // namespace
}  // namespace crimes
