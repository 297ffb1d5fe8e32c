// Tests for the extension features the paper sketches but did not build:
// remote backups (section 4.1), disk snapshots (section 3.1), asynchronous
// deep scans on the backup checkpoint (section 5.3 future work), and the
// honeypot response mode (section 6).
#include "core/crimes.h"
#include "detect/hidden_process_scan.h"
#include "detect/idt_integrity_scan.h"
#include "detect/malware_scan.h"
#include "test_helpers.h"
#include "workload/malware.h"

#include <gtest/gtest.h>

namespace crimes {
namespace {

using testing::TestGuest;

// --- Remote backup ----------------------------------------------------------

TEST(RemoteBackup, StillProducesIdenticalImageButCostsMore) {
  TestGuest local_guest, remote_guest;
  SimClock c1, c2;
  Checkpointer local(local_guest.hypervisor, *local_guest.vm, c1,
                     CostModel::defaults(), CheckpointConfig::no_opt());
  CheckpointConfig remote_config = CheckpointConfig::no_opt();
  remote_config.remote_backup = true;
  Checkpointer remote(remote_guest.hypervisor, *remote_guest.vm, c2,
                      CostModel::defaults(), remote_config);
  local.initialize();
  remote.initialize();

  const auto scribble = [](GuestKernel& kernel) {
    const Vaddr heap = kernel.layout().va_of(kernel.layout().heap_base);
    for (int i = 0; i < 50; ++i) {
      kernel.write_value<std::uint64_t>(heap + i * kPageSize, i);
    }
  };
  scribble(*local_guest.kernel);
  scribble(*remote_guest.kernel);

  const EpochResult local_result = local.run_checkpoint({});
  const EpochResult remote_result = remote.run_checkpoint({});
  EXPECT_EQ(local_result.dirty.size(), remote_result.dirty.size());
  EXPECT_GT(remote_result.costs.copy, local_result.costs.copy);
  // "Minimal overhead on top of the cost of Remus" (section 4.1).
  EXPECT_LT(remote_result.costs.copy,
            local_result.costs.copy + millis(1));

  for (std::size_t i = 0; i < remote_guest.vm->page_count(); ++i) {
    ASSERT_EQ(std::as_const(*remote_guest.vm).page(Pfn{i}),
              std::as_const(remote.backup()).page(Pfn{i}));
  }
}

TEST(RemoteBackup, IncompatibleWithLocalMappingOptimizations) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::full();
  config.remote_backup = true;
  EXPECT_THROW(Checkpointer(guest.hypervisor, *guest.vm, clock,
                            CostModel::defaults(), config),
               std::invalid_argument);
}

// --- Disk snapshot rollback --------------------------------------------------

TEST(DiskSnapshot, BestEffortAttackRevertsDiskToLastCheckpoint) {
  GuestConfig gc = TestGuest::small_config();
  gc.flavor = OsFlavor::Windows;
  TestGuest guest(gc);

  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.mode = SafetyMode::BestEffort;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));

  // A workload that writes one disk block per epoch and goes malicious
  // in its third epoch.
  class DiskWriter final : public Workload {
   public:
    DiskWriter(GuestKernel& kernel, VirtualDisk& disk)
        : kernel_(&kernel), disk_(&disk) {}
    [[nodiscard]] std::string name() const override { return "disk-writer"; }
    void run_epoch(Nanos, Nanos) override {
      ++epoch_;
      disk_->write_block(epoch_, std::vector<std::byte>(
                                     8, static_cast<std::byte>(epoch_)));
      if (epoch_ == 3) {
        (void)kernel_->spawn_process("reg_read.exe", 0);
      }
    }
    GuestKernel* kernel_;
    VirtualDisk* disk_;
    std::uint64_t epoch_ = 0;
  };

  DiskWriter app(*guest.kernel, crimes.disk());
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);
  EXPECT_EQ(summary.epochs, 3u);

  // Blocks from committed epochs survive; the poisoned epoch's write was
  // reverted even though Best-Effort writes through.
  EXPECT_EQ(crimes.disk().read_committed(1)[0], std::byte{1});
  EXPECT_EQ(crimes.disk().read_committed(2)[0], std::byte{2});
  EXPECT_EQ(crimes.disk().read_committed(3)[0], std::byte{0});
}

// --- Asynchronous deep scan ---------------------------------------------------

TEST(AsyncDeepScan, CatchesRootkitThatEvadesOnlineScans) {
  class ThoroughRootkit final : public Workload {
   public:
    explicit ThoroughRootkit(GuestKernel& kernel) : kernel_(&kernel) {}
    [[nodiscard]] std::string name() const override { return "rootkit"; }
    void run_epoch(Nanos, Nanos) override {
      ++epoch_;
      if (epoch_ == 1) {
        const Pid pid = kernel_->spawn_process("cryptominer", 0);
        kernel_->attack_hide_process(pid, /*scrub_pid_hash=*/true);
      }
    }
    GuestKernel* kernel_;
    int epoch_ = 0;
  };

  // Stop-copy settles each epoch at its checkpoint, speculative CoW at the
  // next barrier; the deep scan rides both, in one run() or in the
  // one-epoch run() slices a CloudHost drives its tenants with.
  for (const bool cow : {false, true}) {
    for (const bool sliced : {false, true}) {
      SCOPED_TRACE(std::string(cow ? "cow" : "stop-copy") +
                   (sliced ? ", one-epoch slices" : ", one run"));
      TestGuest guest;
      CrimesConfig config;
      config.checkpoint = cow ? CheckpointConfig::cow(millis(50))
                              : CheckpointConfig::full(millis(50));
      config.async_deep_scan_every = 2;
      Crimes crimes(guest.hypervisor, *guest.kernel, config);
      // Online module registered too: it must NOT fire (the rootkit
      // scrubs the pid hash), proving the async path found it.
      crimes.add_module(std::make_unique<HiddenProcessModule>());

      ThoroughRootkit app(*guest.kernel);
      crimes.set_workload(&app);
      crimes.initialize();
      RunSummary summary;
      if (sliced) {
        for (int slice = 0; slice < 100 && !summary.attack_detected;
             ++slice) {
          summary.merge(crimes.run(millis(50)));
        }
      } else {
        summary = crimes.run(millis(5000));
      }

      ASSERT_TRUE(summary.attack_detected);
      // An attack response, not a checkpoint-path failure.
      EXPECT_FALSE(summary.frozen_by_governor);
      ASSERT_FALSE(crimes.attack()->findings.empty());
      EXPECT_EQ(crimes.attack()->findings[0].module, "async-psxview");
      EXPECT_NE(crimes.attack()->findings[0].description.find("cryptominer"),
                std::string::npos);
      // Detection lag: the deep scan launched at epoch 2 and its result (a
      // ~500 ms Volatility pass) is consumed at a later epoch boundary.
      EXPECT_GT(summary.epochs, 2u);
    }
  }
}

TEST(AsyncDeepScan, CleanGuestNeverTriggers) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.async_deep_scan_every = 1;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  class Idle final : public Workload {
   public:
    [[nodiscard]] std::string name() const override { return "idle"; }
    void run_epoch(Nanos, Nanos duration) override { elapsed_ += duration; }
    [[nodiscard]] bool finished() const override {
      return elapsed_ >= millis(600);
    }
    Nanos elapsed_{0};
  };
  Idle app;
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(5000));
  EXPECT_FALSE(summary.attack_detected);
}

// --- Honeypot mode -------------------------------------------------------------

TEST(Honeypot, QuarantinesOngoingExfiltrationAndLogsActivity) {
  GuestConfig gc = TestGuest::small_config();
  gc.flavor = OsFlavor::Windows;
  TestGuest guest(gc);
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));

  MalwareWorkload app(*guest.kernel, crimes.nic(), millis(60));
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);

  const std::size_t delivered_before = crimes.network().delivered_count();
  const Crimes::HoneypotLog log = crimes.run_honeypot(millis(300));

  EXPECT_EQ(log.epochs, 6u);
  // The malware kept exfiltrating -- into the quarantine, not the wire.
  EXPECT_FALSE(log.quarantined_packets.empty());
  for (const auto& p : log.quarantined_packets) {
    EXPECT_EQ(p.kind, PacketKind::Data);
  }
  EXPECT_EQ(crimes.network().delivered_count(), delivered_before);
  EXPECT_EQ(guest.vm->state(), VmState::Paused);
}

TEST(Honeypot, RequiresDetectedAttack) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  EXPECT_THROW((void)crimes.run_honeypot(millis(100)), std::logic_error);
}


// --- IDT integrity + failover -------------------------------------------------

TEST(IdtIntegrity, HookDetectedOnlyWhenIdtPageDirty) {
  TestGuest guest;
  VmiSession vmi(guest.hypervisor, guest.vm->id(), guest.kernel->symbols(),
                 guest.kernel->flavor(), CostModel::defaults());
  vmi.init();
  vmi.preprocess();

  IdtIntegrityModule module;
  EXPECT_FALSE(module.has_baseline());
  module.capture_baseline(vmi);
  ASSERT_TRUE(module.has_baseline());

  // Clean table, IDT page dirty: passes.
  std::vector<Pfn> idt_dirty{guest.kernel->layout().idt};
  ScanContext ctx{.vmi = vmi,
                  .dirty = idt_dirty,
                  .costs = CostModel::defaults(),
                  .pending_packets = nullptr,
                  .plan = nullptr,
                  .now = Nanos{0}};
  EXPECT_TRUE(module.scan(ctx).clean());

  // Hook the keyboard vector (0x21).
  const Vaddr rogue{kVaBase + 0xBEEF000};
  guest.kernel->attack_hook_interrupt(0x21, rogue);

  // Dirty list without the IDT page: the (cheap) scan skips.
  std::vector<Pfn> unrelated{guest.kernel->layout().heap_base};
  ScanContext ctx2{.vmi = vmi,
                   .dirty = unrelated,
                   .costs = CostModel::defaults(),
                   .pending_packets = nullptr,
                   .plan = nullptr,
                   .now = Nanos{0}};
  EXPECT_TRUE(module.scan(ctx2).clean());
  EXPECT_GE(module.scans_skipped_clean(), 1u);

  // With the IDT page dirty, the hook is found and named.
  const ScanResult result = module.scan(ctx);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].description.find("vector 33"),
            std::string::npos);
}

TEST(IdtIntegrity, GateEncodingRoundTripsThroughVmi) {
  TestGuest guest;
  const Vaddr handler{kVaBase + 0x123456789ULL - (kVaBase & 0xFFF)};
  guest.kernel->write_idt_gate(7, handler);
  EXPECT_EQ(guest.kernel->read_idt_gate(7), handler);

  VmiSession vmi(guest.hypervisor, guest.vm->id(), guest.kernel->symbols(),
                 guest.kernel->flavor(), CostModel::defaults());
  vmi.init();
  const auto gates = vmi.read_idt();
  ASSERT_EQ(gates.size(), kIdtVectors);
  EXPECT_EQ(gates[7].handler, handler);
  EXPECT_EQ(gates[7].selector, IdtGateLayout::kKernelCs);
  EXPECT_EQ(gates[7].type_attr, IdtGateLayout::kInterruptGatePresent);
  // Untouched vectors decode to the pristine stubs.
  EXPECT_EQ(gates[8].handler, guest.kernel->pristine_interrupt_handler(8));
}

TEST(Failover, PromotedBackupIsTheLastCommittedCheckpoint) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();

  const Pid committed = guest.kernel->spawn_process("survives", 1);
  (void)cp.run_checkpoint({});
  (void)guest.kernel->spawn_process("speculative", 1);  // never checkpointed

  const DomainId old_primary = guest.vm->id();
  Vm& promoted = cp.failover();
  EXPECT_FALSE(guest.hypervisor.has_domain(old_primary));
  EXPECT_EQ(promoted.state(), VmState::Running);

  // Introspect the promoted VM: the committed process is there, the
  // speculative one is gone -- exactly Remus's failover guarantee.
  VmiSession vmi(guest.hypervisor, promoted.id(), guest.kernel->symbols(),
                 guest.kernel->flavor(), CostModel::defaults());
  vmi.init();
  bool sees_committed = false, sees_speculative = false;
  for (const auto& p : vmi.process_list()) {
    if (p.name == "survives" && p.pid == committed) sees_committed = true;
    if (p.name == "speculative") sees_speculative = true;
  }
  EXPECT_TRUE(sees_committed);
  EXPECT_FALSE(sees_speculative);

  // The checkpointer is defunct.
  EXPECT_THROW((void)cp.backup(), std::logic_error);
  EXPECT_THROW((void)cp.failover(), std::logic_error);
}

}  // namespace
}  // namespace crimes
