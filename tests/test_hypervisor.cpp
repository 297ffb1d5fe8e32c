// Unit tests: VM lifecycle, guest-physical access, log-dirty tracking,
// memory events, foreign mappings, domain registry.
#include "common/rng.h"
#include "hypervisor/hypervisor.h"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <set>
#include <utility>

namespace crimes {
namespace {

TEST(VmLifecycle, SuspendResumeCycle) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  EXPECT_EQ(vm.state(), VmState::Running);
  vm.suspend();
  EXPECT_EQ(vm.state(), VmState::Suspended);
  vm.resume();
  EXPECT_EQ(vm.state(), VmState::Running);
}

TEST(VmLifecycle, IllegalTransitionsThrow) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  EXPECT_THROW(vm.resume(), std::logic_error);   // not suspended
  EXPECT_THROW(vm.unpause(), std::logic_error);  // not paused
  vm.suspend();
  EXPECT_THROW(vm.suspend(), std::logic_error);  // already suspended
}

TEST(VmLifecycle, PauseFromAnyLiveState) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.suspend();
  vm.pause();  // Suspended -> Paused (the audit-failure path)
  EXPECT_EQ(vm.state(), VmState::Paused);
  vm.unpause();
  EXPECT_EQ(vm.state(), VmState::Running);
}

TEST(VmLifecycle, GuestCannotWriteUnlessRunning) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.suspend();
  EXPECT_THROW(vm.write_phys_value<std::uint64_t>(Paddr{0}, 1ULL),
               std::logic_error);
  // Reads are allowed (dom0 tooling path).
  EXPECT_NO_THROW((void)vm.read_phys_value<std::uint64_t>(Paddr{0}));
}

TEST(VmMemory, WriteReadRoundTripAcrossPageBoundary) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i);
  }
  const Paddr addr{kPageSize - 50};  // straddles pages 0 and 1
  vm.write_phys(addr, data);
  std::vector<std::byte> readback(100);
  vm.read_phys(addr, readback);
  EXPECT_EQ(data, readback);
}

TEST(VmMemory, LogDirtyTracksExactPages) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.enable_log_dirty();
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{3}, 0), 1ULL);
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{9}, 100), 2ULL);
  // Straddling write dirties both pages.
  std::vector<std::byte> two(16, std::byte{0xFF});
  vm.write_phys(Paddr::from(Pfn{5}, kPageSize - 8), two);

  const auto dirty = vm.dirty_bitmap().scan_chunked();
  EXPECT_EQ(dirty, (std::vector<Pfn>{Pfn{3}, Pfn{5}, Pfn{6}, Pfn{9}}));
}

TEST(VmMemory, NoDirtyTrackingWhenDisabled) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.write_phys_value<std::uint64_t>(Paddr{0}, 1ULL);
  EXPECT_EQ(vm.dirty_bitmap().dirty_count(), 0u);
  vm.enable_log_dirty();
  vm.disable_log_dirty();
  vm.write_phys_value<std::uint64_t>(Paddr{0}, 2ULL);
  EXPECT_EQ(vm.dirty_bitmap().dirty_count(), 0u);
}

TEST(VmMemory, WritePastPageCountThrowsWithCowArmed) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  std::vector<Pfn> fired;
  const std::array<Pfn, 1> last = {Pfn{15}};
  vm.monitor().cow_protect(last, [&fired](Pfn pfn) { fired.push_back(pfn); });
  EXPECT_THROW(vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{16}, 0), 1),
               std::out_of_range);
  EXPECT_TRUE(fired.empty());
  // A write straddling the end traps the last page, then hits the range
  // check on the next one.
  EXPECT_THROW(vm.write_phys_value<std::uint64_t>(
                   Paddr::from(Pfn{15}, kPageSize - 4), 2),
               std::out_of_range);
  EXPECT_EQ(fired, std::vector<Pfn>{Pfn{15}});
  EXPECT_THROW(vm.monitor().cow_protect(std::array<Pfn, 1>{Pfn{16}}, nullptr),
               std::out_of_range);
}

TEST(MemoryEvents, OnlyWatchedPagesTrapAndOnlyWhenEnabled) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.monitor().watch_page(Pfn{2});

  // Disabled: no trap.
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{2}, 8), 1ULL);
  EXPECT_EQ(vm.monitor().pending(), 0u);

  vm.monitor().enable();
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{2}, 8), 2ULL);
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{3}, 8), 3ULL);
  ASSERT_EQ(vm.monitor().pending(), 1u);
  const auto ev = vm.monitor().poll();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->pfn, Pfn{2});
  EXPECT_EQ(ev->offset, 8u);
  EXPECT_EQ(ev->length, 8u);
  EXPECT_EQ(ev->type, MemAccess::Write);
}

TEST(MemoryEvents, RingOverflowDropsAndCounts) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.monitor().watch_page(Pfn{0});
  vm.monitor().enable();
  for (std::size_t i = 0; i < MemoryEventMonitor::kRingCapacity + 10; ++i) {
    vm.write_phys_value<std::uint64_t>(Paddr{0}, i);
  }
  EXPECT_EQ(vm.monitor().pending(), MemoryEventMonitor::kRingCapacity);
  EXPECT_EQ(vm.monitor().dropped(), 10u);
  vm.monitor().disable();
  EXPECT_EQ(vm.monitor().pending(), 0u);  // disable clears the ring
}

TEST(MemoryEvents, PageSetsAgreeWithReferenceSet) {
  // Both page sets are per-PFN bitmaps. Over random PFN sets -- always
  // including the word edges 63/64/65, the last PFN and a duplicate -- the
  // answers must match a std::set, a CoW fault must clear exactly its own
  // page and fire once, and a cleared set must trap again once re-armed.
  constexpr std::size_t kPages = 200;  // the last bitmap word is partial
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", kPages);
  MemoryEventMonitor& monitor = vm.monitor();
  std::vector<Pfn> fired;
  const auto record = [&fired](Pfn pfn) { fired.push_back(pfn); };
  const auto expect_sets = [&](const std::set<Pfn>& watched,
                               const std::set<Pfn>& cow, int round) {
    for (std::size_t i = 0; i < kPages; ++i) {
      const Pfn pfn{i};
      ASSERT_EQ(monitor.watches(pfn), watched.contains(pfn))
          << "round " << round << " pfn " << i;
      ASSERT_EQ(monitor.cow_protected(pfn), cow.contains(pfn))
          << "round " << round << " pfn " << i;
    }
    // Past the end reads as unarmed; Vm::page reports the range error.
    EXPECT_FALSE(monitor.watches(Pfn{kPages}));
    EXPECT_FALSE(monitor.cow_protected(Pfn{kPages}));
  };

  Rng rng(13);
  for (int round = 0; round < 40; ++round) {
    std::vector<Pfn> pfns = {Pfn{63}, Pfn{64}, Pfn{65}, Pfn{kPages - 1},
                             Pfn{64}};
    const std::size_t extra = rng.next_below(60);
    for (std::size_t i = 0; i < extra; ++i) {
      pfns.push_back(Pfn{rng.next_below(kPages)});
    }
    // Watch a prefix and CoW-protect a suffix; they overlap.
    const auto watched_end = pfns.begin() + 5 + extra / 2;
    const std::set<Pfn> watched(pfns.begin(), watched_end);
    std::set<Pfn> cow(pfns.begin() + 3, pfns.end());

    monitor.clear_watches();
    for (auto it = pfns.begin(); it != watched_end; ++it) {
      monitor.watch_page(*it);
    }
    monitor.cow_protect(std::span(pfns).subspan(3), record);
    monitor.enable();
    expect_sets(watched, cow, round);
    monitor.disable();
    for (std::size_t i = 0; i < kPages; ++i) {
      ASSERT_FALSE(monitor.watches(Pfn{i})) << "disabled, pfn " << i;
    }

    fired.clear();
    const Pfn victim = *std::next(cow.begin(), static_cast<std::ptrdiff_t>(
                                                   rng.next_below(cow.size())));
    monitor.cow_fault(victim);
    EXPECT_EQ(fired, std::vector<Pfn>{victim});
    cow.erase(victim);
    monitor.enable();
    expect_sets(watched, cow, round);
    monitor.disable();

    // Guest writes trap each still-protected page exactly once.
    fired.clear();
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < kPages; ++i) {
        vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{i}, 8), i);
      }
    }
    EXPECT_EQ(fired, std::vector<Pfn>(cow.begin(), cow.end()));
    expect_sets({}, {}, round);

    monitor.cow_unprotect_all();
    expect_sets({}, {}, round);
    fired.clear();
    monitor.cow_protect(std::span(&victim, 1), record);
    vm.write_phys_value<std::uint64_t>(Paddr::from(victim, 16), 1ULL);
    EXPECT_EQ(fired, std::vector<Pfn>{victim});
    monitor.cow_unprotect_all();
  }
}

TEST(MemoryEvents, StraddlingWriteHandsHandlerPreWriteBytesOfBothPages) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{4}, kPageSize - 8),
                                     0x1111111111111111ULL);
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{5}, 0),
                                     0x2222222222222222ULL);
  const Page before4 = vm.page(Pfn{4});
  const Page before5 = vm.page(Pfn{5});

  std::map<std::uint64_t, Page> seen;
  const std::array<Pfn, 2> pfns = {Pfn{4}, Pfn{5}};
  vm.monitor().cow_protect(pfns, [&](Pfn pfn) {
    EXPECT_FALSE(seen.contains(pfn.value())) << "trap fired twice";
    seen[pfn.value()] = std::as_const(vm).page(pfn);
  });
  const std::vector<std::byte> data(16, std::byte{0xEE});
  vm.write_phys(Paddr::from(Pfn{4}, kPageSize - 8), data);
  vm.monitor().cow_unprotect_all();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[4], before4);
  EXPECT_EQ(seen[5], before5);
  EXPECT_EQ(vm.read_phys_value<std::uint64_t>(
                Paddr::from(Pfn{4}, kPageSize - 8)),
            0xEEEEEEEEEEEEEEEEULL);
  EXPECT_EQ(vm.read_phys_value<std::uint64_t>(Paddr::from(Pfn{5}, 0)),
            0xEEEEEEEEEEEEEEEEULL);
}

TEST(ForeignMapping, BypassesLifecycleChecks) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.suspend();
  ForeignMapping map = hv.map_foreign(vm.id());
  map.page(Pfn{1}).data[0] = std::byte{0x77};  // dom0 writes while suspended
  EXPECT_EQ(vm.page(Pfn{1}).data[0], std::byte{0x77});
}

TEST(Hypervisor, DomainRegistry) {
  Hypervisor hv(1024);
  Vm& a = hv.create_domain("a", 16);
  Vm& b = hv.create_domain("b", 16);
  // destroy_domain frees the Vm object, so hold the id, not the reference.
  const DomainId a_id = a.id();
  EXPECT_NE(a_id, b.id());
  EXPECT_EQ(hv.domain_count(), 2u);
  EXPECT_TRUE(hv.has_domain(a_id));
  hv.destroy_domain(a_id);
  EXPECT_FALSE(hv.has_domain(a_id));
  EXPECT_THROW((void)hv.domain(a_id), std::out_of_range);
  EXPECT_THROW(hv.destroy_domain(a_id), std::out_of_range);
}

TEST(Hypervisor, DestroyReleasesFrames) {
  Hypervisor hv(32);
  Vm& a = hv.create_domain("a", 30);
  // Lazy allocation: frames materialize on first write only.
  EXPECT_EQ(hv.machine().allocated_frames(), 0u);
  for (std::size_t i = 0; i < 30; ++i) {
    a.write_phys_value<std::uint64_t>(Paddr::from(Pfn{i}, 0), i);
  }
  EXPECT_EQ(hv.machine().allocated_frames(), 30u);
  hv.destroy_domain(a.id());
  EXPECT_EQ(hv.machine().allocated_frames(), 0u);
  Vm& b = hv.create_domain("b", 30);  // frames were really recycled
  for (std::size_t i = 0; i < 30; ++i) {
    b.write_phys_value<std::uint64_t>(Paddr::from(Pfn{i}, 0), i);
  }
}

TEST(Hypervisor, LazyFramesReadAsZeroAndMaterializeOnWrite) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("lazy", 64);
  EXPECT_FALSE(vm.is_backed(Pfn{5}));
  EXPECT_EQ(vm.read_phys_value<std::uint64_t>(Paddr::from(Pfn{5}, 0)), 0u);
  EXPECT_FALSE(vm.is_backed(Pfn{5}));  // const read did not materialize
  vm.write_phys_value<std::uint64_t>(Paddr::from(Pfn{5}, 0), 7u);
  EXPECT_TRUE(vm.is_backed(Pfn{5}));
  EXPECT_EQ(hv.machine().allocated_frames(), 1u);
}

TEST(Vm, VcpuStateAndInstructionCounting) {
  Hypervisor hv(1024);
  Vm& vm = hv.create_domain("a", 16);
  vm.retire_instructions(5);
  vm.retire_instructions(3);
  EXPECT_EQ(vm.vcpu().instr_retired, 8u);
  vm.vcpu().gpr[0] = 0x1234;
  VcpuState copy = vm.vcpu();
  EXPECT_EQ(copy, vm.vcpu());
  copy.gpr[1] = 1;
  EXPECT_FALSE(copy == vm.vcpu());
}

}  // namespace
}  // namespace crimes
