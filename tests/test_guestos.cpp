// Unit tests: guest OS -- boot layout, page table, process/module/socket/
// file management, attacks' in-memory effects.
#include "common/bytes.h"
#include "guestos/guest_kernel.h"
#include "test_helpers.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace crimes {
namespace {

using testing::TestGuest;

TEST(GuestLayout, RegionsAreDisjointAndOrdered) {
  GuestConfig config;
  const GuestLayout layout = GuestLayout::compute(config);
  EXPECT_EQ(layout.null_guard, Pfn{0});
  EXPECT_GT(layout.page_table_base.value(), layout.null_guard.value());
  EXPECT_GT(layout.syscall_table.value(), layout.page_table_base.value());
  EXPECT_GT(layout.heap_base.value(), layout.canary_table.value());
  EXPECT_EQ(layout.heap_base.value() + layout.heap_pages, config.page_count);
  EXPECT_GT(layout.task_slots(), 100u);
  EXPECT_GT(layout.canary_slots(), 1000u);
}

TEST(GuestLayout, TooSmallGuestRejected) {
  GuestConfig config;
  config.page_count = 64;
  EXPECT_THROW((void)GuestLayout::compute(config), std::invalid_argument);
}

TEST(GuestPageTable, IdentityMapTranslatesAndNullGuardFaults) {
  TestGuest guest;
  GuestPageTable& pt = guest.kernel->page_table();
  const Vaddr va{kVaBase + 5 * kPageSize + 123};
  const auto pa = pt.translate(va);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(pa->pfn(), Pfn{5});
  EXPECT_EQ(pa->page_offset(), 123u);

  EXPECT_FALSE(pt.translate(Vaddr{kVaBase + 5}).has_value());  // null guard
  EXPECT_FALSE(pt.translate(Vaddr{0x1000}).has_value());       // below window
  EXPECT_FALSE(
      pt.translate(Vaddr{kVaBase + (guest.kernel->config().page_count + 1) *
                                       kPageSize})
          .has_value());  // beyond window
}

TEST(GuestPageTable, UnmappedEntryFaultsGuestWrites) {
  TestGuest guest;
  GuestPageTable& pt = guest.kernel->page_table();
  const std::uint64_t vpn = guest.kernel->layout().heap_base.value() + 3;
  pt.set_entry(vpn, Pfn{vpn}, 0);  // clear present bit
  const Vaddr va{kVaBase + vpn * kPageSize};
  EXPECT_THROW(guest.kernel->write_value<std::uint64_t>(va, 1ULL),
               GuestFault);
  pt.set_entry(vpn, Pfn{vpn},
               GuestPageTable::kPresent | GuestPageTable::kWritable);
  EXPECT_NO_THROW(guest.kernel->write_value<std::uint64_t>(va, 1ULL));
}

TEST(GuestKernel, BootPopulatesInitialProcessesAndModules) {
  TestGuest guest;
  const auto procs = guest.kernel->process_list_ground_truth();
  EXPECT_GE(procs.size(), 6u);
  const auto names = [&] {
    std::vector<std::string> v;
    for (const auto& p : procs) v.push_back(p.name);
    return v;
  }();
  EXPECT_NE(std::find(names.begin(), names.end(), "systemd"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "nginx"), names.end());

  const auto mods = guest.kernel->module_list_ground_truth();
  EXPECT_GE(mods.size(), 4u);
}

TEST(GuestKernel, WindowsFlavorUsesWindowsNames) {
  GuestConfig config = TestGuest::small_config();
  config.flavor = OsFlavor::Windows;
  TestGuest guest(config);
  EXPECT_TRUE(guest.kernel->symbols().contains("PsActiveProcessHead"));
  EXPECT_TRUE(guest.kernel->find_process_by_name("explorer.exe").has_value());
}

TEST(GuestKernel, SpawnExitMaintainsListAndRecycledSlots) {
  TestGuest guest;
  const std::size_t base = guest.kernel->process_list_ground_truth().size();
  const Pid a = guest.kernel->spawn_process("worker-a", 1000);
  const Pid b = guest.kernel->spawn_process("worker-b", 1000);
  EXPECT_EQ(guest.kernel->process_list_ground_truth().size(), base + 2);
  EXPECT_NE(a, b);

  guest.kernel->exit_process(a);
  EXPECT_EQ(guest.kernel->process_list_ground_truth().size(), base + 1);
  EXPECT_FALSE(guest.kernel->find_process(a).has_value());
  EXPECT_THROW(guest.kernel->exit_process(a), std::out_of_range);

  // The freed slab slot's magic is scrubbed (no psscan ghost).
  const Pid c = guest.kernel->spawn_process("worker-c", 1000);
  EXPECT_TRUE(guest.kernel->find_process(c).has_value());
}

TEST(GuestKernel, TaskRecordsAreRealGuestBytes) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("inspect-me", 777);
  const Vaddr task = guest.kernel->task_va(pid);
  EXPECT_EQ(guest.kernel->read_value<std::uint32_t>(
                task + TaskLayout::kMagicOff),
            TaskLayout::kMagic);
  EXPECT_EQ(
      guest.kernel->read_value<std::uint32_t>(task + TaskLayout::kPidOff),
      pid.value());
  EXPECT_EQ(
      guest.kernel->read_value<std::uint32_t>(task + TaskLayout::kUidOff),
      777u);
  std::vector<std::byte> comm(TaskLayout::kCommLen);
  guest.kernel->read_virt(task + TaskLayout::kCommOff, comm);
  EXPECT_EQ(load_cstr(comm, 0, TaskLayout::kCommLen), "inspect-me");
}

TEST(GuestKernel, TaskListIsCircularlyConsistent) {
  TestGuest guest;
  (void)guest.kernel->spawn_process("x", 1);
  (void)guest.kernel->spawn_process("y", 1);
  const Vaddr head = guest.kernel->symbols().lookup("init_task");
  // Walk forward and backward; both must visit the same count.
  std::size_t fwd = 0;
  for (Vaddr cur{guest.kernel->read_value<std::uint64_t>(
           head + TaskLayout::kNextOff)};
       cur != head; ++fwd) {
    cur = Vaddr{
        guest.kernel->read_value<std::uint64_t>(cur + TaskLayout::kNextOff)};
    ASSERT_LT(fwd, 1000u);
  }
  std::size_t bwd = 0;
  for (Vaddr cur{guest.kernel->read_value<std::uint64_t>(
           head + TaskLayout::kPrevOff)};
       cur != head; ++bwd) {
    cur = Vaddr{
        guest.kernel->read_value<std::uint64_t>(cur + TaskLayout::kPrevOff)};
    ASSERT_LT(bwd, 1000u);
  }
  EXPECT_EQ(fwd, bwd);
  EXPECT_EQ(fwd, guest.kernel->process_list_ground_truth().size());
}

TEST(GuestKernel, SyscallTableInstalledPristine) {
  TestGuest guest;
  for (const std::size_t i : {std::size_t{0}, std::size_t{17},
                              kSyscallCount - 1}) {
    EXPECT_EQ(guest.kernel->syscall_entry(i),
              guest.kernel->pristine_syscall_handler(i));
  }
  EXPECT_THROW((void)guest.kernel->syscall_entry(kSyscallCount),
               std::out_of_range);
}

TEST(GuestKernel, HijackAttackChangesOnlyTargetSlot) {
  TestGuest guest;
  const Vaddr rogue{kVaBase + 0xbeef000};
  guest.kernel->attack_hijack_syscall(9, rogue);
  EXPECT_EQ(guest.kernel->syscall_entry(9), rogue);
  EXPECT_EQ(guest.kernel->syscall_entry(8),
            guest.kernel->pristine_syscall_handler(8));
  EXPECT_EQ(guest.kernel->syscall_entry(10),
            guest.kernel->pristine_syscall_handler(10));
}

TEST(GuestKernel, HideProcessUnlinksButLeavesSlabRecord) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("stealth", 0);
  const Vaddr task = guest.kernel->task_va(pid);
  guest.kernel->attack_hide_process(pid);

  // Not reachable by a list walk...
  const Vaddr head = guest.kernel->symbols().lookup("init_task");
  bool found = false;
  for (Vaddr cur{guest.kernel->read_value<std::uint64_t>(
           head + TaskLayout::kNextOff)};
       cur != head;) {
    if (cur == task) found = true;
    cur = Vaddr{
        guest.kernel->read_value<std::uint64_t>(cur + TaskLayout::kNextOff)};
  }
  EXPECT_FALSE(found);
  // ...but the record itself is intact (evidence for psscan).
  EXPECT_EQ(guest.kernel->read_value<std::uint32_t>(
                task + TaskLayout::kMagicOff),
            TaskLayout::kMagic);
}

TEST(GuestKernel, SocketsAndFilesRoundTrip) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("app", 1);
  const Vaddr sock = guest.kernel->open_socket(SocketInfo{
      .pid = pid,
      .proto = 6,
      .state = 1,
      .local_ip = make_ipv4(10, 0, 0, 1),
      .local_port = 4444,
      .remote_ip = make_ipv4(1, 2, 3, 4),
      .remote_port = 80,
      .entry_va = Vaddr{0},
  });
  const Vaddr file = guest.kernel->open_file(pid, "/var/log/app.log");

  auto socks = guest.kernel->socket_ground_truth();
  auto files = guest.kernel->file_ground_truth();
  ASSERT_EQ(socks.size(), 1u);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(socks[0].remote_port, 80);
  EXPECT_EQ(files[0].path, "/var/log/app.log");

  guest.kernel->close_socket(sock);
  guest.kernel->close_file(file);
  EXPECT_TRUE(guest.kernel->socket_ground_truth().empty());
  EXPECT_TRUE(guest.kernel->file_ground_truth().empty());
  EXPECT_THROW(guest.kernel->close_socket(sock), std::out_of_range);
}

TEST(GuestKernel, Ipv4Formatting) {
  EXPECT_EQ(format_ipv4(make_ipv4(104, 28, 18, 89)), "104.28.18.89");
  EXPECT_EQ(format_ipv4(make_ipv4(0, 0, 0, 0)), "0.0.0.0");
  EXPECT_EQ(format_ipv4(make_ipv4(255, 255, 255, 255)), "255.255.255.255");
}

TEST(GuestKernel, DoubleBootRejected) {
  TestGuest guest;
  EXPECT_THROW(guest.kernel->boot(), std::logic_error);
}

TEST(GuestSyscall, DispatchReflectsHijack) {
  TestGuest guest;
  const auto clean = guest.kernel->invoke_syscall(5, 0xFEED);
  EXPECT_FALSE(clean.hijacked);
  EXPECT_EQ(clean.retval, 5u);
  EXPECT_EQ(clean.handler, guest.kernel->pristine_syscall_handler(5));

  // Hijack with a handler pointing into attacker-controlled heap.
  const Vaddr rogue = guest.kernel->heap().malloc(64);
  guest.kernel->attack_hijack_syscall(5, rogue);
  const auto owned = guest.kernel->invoke_syscall(5, 0xFEED);
  EXPECT_TRUE(owned.hijacked);
  EXPECT_EQ(owned.handler, rogue);
  // Behavioural evidence: the hook siphoned the argument.
  EXPECT_EQ(guest.kernel->read_value<std::uint64_t>(rogue), 0xFEEDu);
  // Other syscalls are unaffected.
  EXPECT_FALSE(guest.kernel->invoke_syscall(6, 1).hijacked);
}

}  // namespace
}  // namespace crimes
