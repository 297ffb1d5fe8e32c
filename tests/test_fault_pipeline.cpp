// Resilience-layer tests (src/fault, DESIGN.md section 9): deterministic
// fault injection, the copy/verify/retry/undo discipline, scan-module
// quarantine, the SafetyGovernor's degradation ladder, and per-tenant
// fault isolation on the cloud host. The whole file is also part of the
// TSan tier (CRIMES_SANITIZE=thread): injection decisions are drawn on the
// epoch-driving thread, so a fault-heavy parallel run must be data-race
// free.
#include "cloud/cloud_host.h"
#include "core/crimes.h"
#include "detect/canary_scan.h"
#include "detect/malware_scan.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/safety_governor.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

namespace crimes {
namespace {

using testing::TestGuest;

// FNV-1a over every backed page of the backup VM (unbacked pages hash a
// marker so "never touched" and "touched to zeroes" differ).
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

ParsecProfile small_parsec(double duration_ms = 500.0) {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = duration_ms;
  return profile;
}

// ---------------------------------------------------------------------------
// FaultInjector units
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisions) {
  fault::FaultPlan plan = fault::FaultPlan::transport_storm(0.3, 0, 100, 7);
  plan.scan_crash = 0.2;
  plan.scan_timeout = 0.2;
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  for (std::size_t epoch = 0; epoch < 50; ++epoch) {
    a.begin_epoch(epoch);
    b.begin_epoch(epoch);
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(a.transport_copy_fails(), b.transport_copy_fails());
      EXPECT_EQ(a.tears_backup_write(), b.tears_backup_write());
    }
    EXPECT_EQ(a.scan_crashes("canary-scan"), b.scan_crashes("canary-scan"));
    EXPECT_EQ(a.scan_times_out("malware-scan"),
              b.scan_times_out("malware-scan"));
    EXPECT_EQ(a.bitmap_read_fails(), b.bitmap_read_fails());
    EXPECT_EQ(a.loses_worker(), b.loses_worker());
    EXPECT_EQ(a.torn_victim(17), b.torn_victim(17));
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
  EXPECT_GT(a.total_injected(), 0u);  // a 30% storm over 50 epochs fires
}

TEST(FaultInjector, DecisionsDependOnlyOnEpochAndSite) {
  // Drawing the sites in a different order must not change any outcome:
  // decisions are hashes of (seed, kind, epoch, site), not a shared
  // sequential RNG.
  fault::FaultPlan plan = fault::FaultPlan::transport_storm(0.4, 0, 100, 3);
  fault::FaultInjector fwd(plan);
  fault::FaultInjector rev(plan);
  for (std::size_t epoch = 0; epoch < 32; ++epoch) {
    fwd.begin_epoch(epoch);
    const bool copy = fwd.transport_copy_fails();
    const bool bitmap = fwd.bitmap_read_fails();

    rev.begin_epoch(epoch);
    const bool bitmap2 = rev.bitmap_read_fails();
    const bool copy2 = rev.transport_copy_fails();
    EXPECT_EQ(copy, copy2) << "epoch " << epoch;
    EXPECT_EQ(bitmap, bitmap2) << "epoch " << epoch;
  }
}

TEST(FaultInjector, WindowConfinesProbabilisticFaults) {
  fault::FaultPlan plan;
  plan.transport_copy_fail = 1.0;
  plan.bitmap_read_error = 1.0;
  plan.from_epoch = 5;
  plan.until_epoch = 8;
  fault::FaultInjector injector(plan);
  for (std::size_t epoch = 0; epoch < 12; ++epoch) {
    injector.begin_epoch(epoch);
    const bool inside = epoch >= 5 && epoch < 8;
    EXPECT_EQ(injector.transport_copy_fails(), inside) << "epoch " << epoch;
    EXPECT_EQ(injector.bitmap_read_fails(), inside) << "epoch " << epoch;
  }
}

TEST(FaultInjector, ScheduledFaultFiresOnceOutsideWindow) {
  fault::FaultPlan plan;
  plan.from_epoch = 100;  // window never reached
  plan.scheduled.push_back({.epoch = 3,
                            .kind = fault::FaultKind::ScanCrash,
                            .module = "canary-scan"});
  ASSERT_TRUE(plan.any());
  fault::FaultInjector injector(plan);
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    injector.begin_epoch(epoch);
    EXPECT_EQ(injector.scan_crashes("canary-scan"), epoch == 3);
    EXPECT_FALSE(injector.scan_crashes("malware-scan"));
  }
  EXPECT_EQ(injector.injected(fault::FaultKind::ScanCrash), 1u);
}

// ---------------------------------------------------------------------------
// SafetyGovernor units
// ---------------------------------------------------------------------------

TEST(SafetyGovernor, ClimbsTheDegradationLadder) {
  fault::GovernorConfig config;
  config.downgrade_after = 2;
  config.upgrade_after = 3;
  config.freeze_after = 5;
  fault::SafetyGovernor governor(config, /*can_degrade=*/true);
  using Action = fault::SafetyGovernor::Action;

  EXPECT_EQ(governor.on_epoch(true), Action::None);
  EXPECT_EQ(governor.on_epoch(false), Action::None);
  EXPECT_EQ(governor.on_epoch(false), Action::Downgrade);
  EXPECT_EQ(governor.state(), fault::GovernorState::Degraded);

  // Two clean epochs are not enough to upgrade...
  EXPECT_EQ(governor.on_epoch(true), Action::None);
  EXPECT_EQ(governor.on_epoch(true), Action::None);
  // ...the third is.
  EXPECT_EQ(governor.on_epoch(true), Action::Upgrade);
  EXPECT_EQ(governor.state(), fault::GovernorState::Normal);
  EXPECT_EQ(governor.downgrades(), 1u);
  EXPECT_EQ(governor.upgrades(), 1u);
}

TEST(SafetyGovernor, FreezesAfterSustainedFailureAcrossDowngrade) {
  fault::GovernorConfig config;
  config.downgrade_after = 2;
  config.freeze_after = 4;
  fault::SafetyGovernor governor(config, /*can_degrade=*/true);
  using Action = fault::SafetyGovernor::Action;

  EXPECT_EQ(governor.on_epoch(false), Action::None);
  EXPECT_EQ(governor.on_epoch(false), Action::Downgrade);
  EXPECT_EQ(governor.on_epoch(false), Action::None);
  // The failure streak carries across the downgrade: 4th failure freezes.
  EXPECT_EQ(governor.on_epoch(false), Action::Freeze);
  EXPECT_EQ(governor.state(), fault::GovernorState::Frozen);
  // A frozen governor is inert.
  EXPECT_EQ(governor.on_epoch(true), Action::None);
  EXPECT_EQ(governor.state(), fault::GovernorState::Frozen);
}

TEST(SafetyGovernor, BestEffortSkipsTheDowngradeRung) {
  fault::GovernorConfig config;
  config.downgrade_after = 2;
  config.freeze_after = 4;
  fault::SafetyGovernor governor(config, /*can_degrade=*/false);
  using Action = fault::SafetyGovernor::Action;
  EXPECT_EQ(governor.on_epoch(false), Action::None);
  EXPECT_EQ(governor.on_epoch(false), Action::None);  // no Downgrade rung
  EXPECT_EQ(governor.on_epoch(false), Action::None);
  EXPECT_EQ(governor.on_epoch(false), Action::Freeze);
}

// ---------------------------------------------------------------------------
// ThreadPool worker replacement
// ---------------------------------------------------------------------------

TEST(ThreadPoolResilience, ReplaceWorkerKeepsThePoolServing) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  for (int round = 0; round < 3; ++round) {
    pool.replace_worker();
    ASSERT_EQ(pool.size(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([i] { return i * i; }));
    }
    for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[i].get(), i * i);
  }
}

// ---------------------------------------------------------------------------
// End-to-end pipeline under faults
// ---------------------------------------------------------------------------

CrimesConfig resilient_config(fault::FaultPlan plan,
                              bool parallel = false) {
  CrimesConfig config;
  config.checkpoint = parallel ? CheckpointConfig::parallel(4, millis(50))
                               : CheckpointConfig::full(millis(50));
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.faults = std::move(plan);
  return config;
}

struct RunOutcome {
  RunSummary summary;
  std::uint64_t backup_hash = 0;
  std::uint64_t delivered = 0;
};

RunOutcome run_parsec(CrimesConfig config, double duration_ms = 500.0) {
  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecWorkload app(*guest.kernel, small_parsec(duration_ms));
  crimes.set_workload(&app);
  crimes.initialize();
  RunOutcome outcome;
  outcome.summary = crimes.run(millis(10000));
  outcome.backup_hash = backup_fingerprint(crimes);
  outcome.delivered = crimes.network().delivered_count();
  return outcome;
}

TEST(FaultPipeline, SameSeedSameRun) {
  // A parallel engine under a 20% transport storm: two runs with the same
  // seed must agree on every observable -- fault counts, retries, failed
  // epochs, virtual time, and the final backup image.
  const fault::FaultPlan plan = fault::FaultPlan::transport_storm(0.2, 0, 6);
  const RunOutcome a = run_parsec(resilient_config(plan, /*parallel=*/true));
  const RunOutcome b = run_parsec(resilient_config(plan, /*parallel=*/true));

  EXPECT_TRUE(a.summary == b.summary);
  EXPECT_EQ(a.backup_hash, b.backup_hash);
  EXPECT_GT(a.summary.faults_injected, 0u);
}

TEST(FaultPipeline, BackupConvergesToTheFaultFreeRun) {
  // Faults confined to the first four epochs: failed checkpoints retain
  // the dirty bitmap, so later fault-free epochs carry the backlog and the
  // final backup must be byte-identical to a run that never faulted.
  fault::FaultPlan plan;
  plan.transport_copy_fail = 0.6;
  plan.torn_write = 0.4;
  plan.until_epoch = 4;
  const RunOutcome faulty = run_parsec(resilient_config(plan));
  const RunOutcome clean = run_parsec(resilient_config(fault::FaultPlan{}));

  EXPECT_FALSE(faulty.summary.attack_detected);
  EXPECT_EQ(faulty.summary.epochs, clean.summary.epochs);
  EXPECT_EQ(faulty.backup_hash, clean.backup_hash)
      << "a retried/restored backup must converge on the clean image";
  // The faulty run really exercised the recovery path.
  EXPECT_GT(faulty.summary.copy_retries + faulty.summary.checkpoint_failures,
            0u);
  EXPECT_GT(faulty.summary.recovery_time.count(), 0);
  EXPECT_EQ(clean.summary.copy_retries, 0u);
}

TEST(FaultPipeline, GovernorDowngradesThenUpgrades) {
  // Every copy attempt in epochs [2, 6) fails: 4 checkpoint failures in a
  // row. downgrade_after=3 drops Synchronous to Best Effort mid-storm;
  // 5 clean epochs after the window upgrade it back.
  fault::FaultPlan plan;
  plan.transport_copy_fail = 1.0;
  plan.from_epoch = 2;
  plan.until_epoch = 6;
  CrimesConfig config = resilient_config(plan);

  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecWorkload app(*guest.kernel, small_parsec(750.0));  // 15 epochs
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(10000));

  EXPECT_EQ(summary.epochs, 15u);
  EXPECT_EQ(summary.checkpoint_failures, 4u);
  EXPECT_EQ(summary.checkpoints, 11u);
  EXPECT_EQ(summary.governor_downgrades, 1u);
  EXPECT_EQ(summary.governor_upgrades, 1u);
  EXPECT_GT(summary.degraded_epochs, 0u);
  EXPECT_FALSE(summary.frozen_by_governor);
  // The pipeline ended back in Synchronous mode.
  EXPECT_EQ(crimes.active_mode(), SafetyMode::Synchronous);
  EXPECT_EQ(crimes.governor_state(), fault::GovernorState::Normal);
}

TEST(FaultPipeline, GovernorFreezesWhenTheCheckpointPathIsLost) {
  fault::FaultPlan plan;
  plan.transport_copy_fail = 1.0;  // unbounded window: the path never heals
  CrimesConfig config = resilient_config(plan);
  config.governor.downgrade_after = 2;
  config.governor.freeze_after = 4;

  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecWorkload app(*guest.kernel, small_parsec(2000.0));
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(10000));

  EXPECT_TRUE(summary.frozen_by_governor);
  EXPECT_EQ(summary.checkpoint_failures, 4u);
  EXPECT_EQ(summary.epochs, 4u);  // froze long before the workload finished
  EXPECT_FALSE(app.finished());
  EXPECT_EQ(crimes.governor_state(), fault::GovernorState::Frozen);
  EXPECT_EQ(guest.kernel->vm().state(), VmState::Paused);

  // A frozen pipeline stays frozen: re-running makes no progress.
  const RunSummary again = crimes.run(millis(10000));
  EXPECT_EQ(again.epochs, 0u);
  EXPECT_TRUE(again.frozen_by_governor);
}

TEST(FaultPipeline, SynchronousHoldsOutputsWhileCheckpointsFail) {
  // The core resilience invariant: in Synchronous mode an output is
  // released only once a *committed* checkpoint covers its epoch. With the
  // governor off and every early copy failing, nothing may leave the host
  // until the first commit.
  fault::FaultPlan plan;
  plan.transport_copy_fail = 1.0;
  plan.until_epoch = 3;
  CrimesConfig config = resilient_config(plan);
  config.governor.enabled = false;

  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  // A workload that writes guest memory and sends one packet per epoch.
  class ChattyWorkload : public Workload {
   public:
    ChattyWorkload(GuestKernel& kernel, VirtualNic& nic, std::size_t epochs)
        : kernel_(&kernel), nic_(&nic), remaining_(epochs) {
      buffer_ = kernel_->heap().malloc(kPageSize);
    }
    [[nodiscard]] std::string name() const override { return "chatty"; }
    void run_epoch(Nanos start, Nanos /*duration*/) override {
      if (remaining_ == 0) return;
      --remaining_;
      kernel_->write_value<std::uint64_t>(
          buffer_, static_cast<std::uint64_t>(start.count()));
      Packet packet;
      packet.kind = PacketKind::Data;
      packet.size_bytes = 64;
      packet.payload = "epoch output";
      nic_->send(std::move(packet), start);
    }
    [[nodiscard]] bool finished() const override { return remaining_ == 0; }

   private:
    GuestKernel* kernel_;
    VirtualNic* nic_;
    Vaddr buffer_{0};
    std::size_t remaining_;
  };
  ChattyWorkload app(*guest.kernel, crimes.nic(), 6);
  crimes.set_workload(&app);
  crimes.initialize();

  // Drive epoch by epoch (CloudHost-style slices) and watch the wire.
  std::size_t released_after_failures = 0;
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    const RunSummary slice = crimes.run(millis(50));
    if (epoch < 3) {
      EXPECT_EQ(slice.checkpoint_failures, 1u) << "epoch " << epoch;
      EXPECT_EQ(crimes.network().delivered_count(), 0u)
          << "output escaped an uncommitted epoch " << epoch;
    }
    released_after_failures = crimes.network().delivered_count();
  }
  // Once checkpoints commit again, the backlog drains.
  EXPECT_EQ(released_after_failures, 6u);
}

TEST(FaultPipeline, QuarantinedModuleIsSkippedButReported) {
  fault::FaultPlan plan;
  plan.scheduled.push_back({.epoch = 1,
                            .kind = fault::FaultKind::ScanCrash,
                            .module = "canary-scan"});
  CrimesConfig config = resilient_config(plan);

  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.add_module(std::make_unique<CanaryScanModule>());
  crimes.add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));
  ParsecWorkload app(*guest.kernel, small_parsec());
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(10000));

  // The crash is a resilience event, not an attack: the run completes.
  EXPECT_FALSE(summary.attack_detected);
  EXPECT_EQ(summary.epochs, 10u);
  ASSERT_EQ(summary.quarantined_modules.size(), 1u);
  EXPECT_EQ(summary.quarantined_modules[0], "canary-scan");
  EXPECT_EQ(crimes.detector().module_count(), 2u);  // still registered
  EXPECT_EQ(crimes.detector().active_module_count(), 1u);  // skipped
}

TEST(FaultPipeline, AuditDeadlineQuarantinesAHungModule) {
  fault::FaultPlan plan;
  plan.scan_hang = millis(20);
  plan.scheduled.push_back({.epoch = 2,
                            .kind = fault::FaultKind::ScanTimeout,
                            .module = "malware-scan"});
  CrimesConfig config = resilient_config(plan);
  config.audit_policy.module_deadline = millis(5);

  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));
  crimes.add_module(std::make_unique<CanaryScanModule>());
  ParsecWorkload app(*guest.kernel, small_parsec());
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(10000));

  EXPECT_FALSE(summary.attack_detected);
  ASSERT_EQ(summary.quarantined_modules.size(), 1u);
  EXPECT_EQ(summary.quarantined_modules[0], "malware-scan");
  // The hung audit was cut off at the deadline, not charged the full hang:
  // no single pause may exceed interval + deadline + copy work by the full
  // 20 ms hang.
  EXPECT_LT(summary.max_pause, millis(20));
}

TEST(FaultPipeline, WorkerLossIsAbsorbedByThePool) {
  fault::FaultPlan plan;
  plan.worker_loss = 1.0;  // lose a worker every epoch
  plan.until_epoch = 5;
  const RunOutcome faulty =
      run_parsec(resilient_config(plan, /*parallel=*/true));
  const RunOutcome clean =
      run_parsec(resilient_config(fault::FaultPlan{}, /*parallel=*/true));

  EXPECT_FALSE(faulty.summary.attack_detected);
  EXPECT_EQ(faulty.summary.epochs, clean.summary.epochs);
  EXPECT_EQ(faulty.summary.checkpoints, clean.summary.checkpoints);
  EXPECT_EQ(faulty.backup_hash, clean.backup_hash);
  EXPECT_EQ(faulty.summary.faults_injected, 5u);
  EXPECT_GT(faulty.summary.recovery_time.count(), 0);
}

// ---------------------------------------------------------------------------
// Cloud-host fault isolation
// ---------------------------------------------------------------------------

TEST(CloudFaultIsolation, OneTenantsFaultsNeverFreezeNeighbours) {
  CloudHost host(1u << 20);

  GuestConfig guest = TestGuest::small_config();
  CrimesConfig faulty;
  faulty.checkpoint = CheckpointConfig::full(millis(50));
  faulty.record_execution = false;
  faulty.faults.transport_copy_fail = 1.0;  // checkpoint path never heals
  faulty.governor.downgrade_after = 2;
  faulty.governor.freeze_after = 3;

  CrimesConfig healthy;
  healthy.checkpoint = CheckpointConfig::full(millis(50));
  healthy.record_execution = false;

  Tenant& doomed = host.admit({"doomed", guest, faulty});
  Tenant& fine = host.admit({"fine", guest, healthy});

  ParsecWorkload doomed_app(doomed.kernel(), small_parsec());
  ParsecWorkload fine_app(fine.kernel(), small_parsec());
  doomed.set_workload(&doomed_app);
  fine.set_workload(&fine_app);
  host.initialize_all();

  const CloudRunReport report = host.run(millis(500));

  EXPECT_EQ(report.tenants_attacked, 0u);
  EXPECT_EQ(report.tenants_fault_frozen, 1u);
  ASSERT_EQ(report.fault_frozen_tenants.size(), 1u);
  EXPECT_EQ(report.fault_frozen_tenants[0], "doomed");
  EXPECT_TRUE(doomed.frozen());
  EXPECT_FALSE(fine.frozen());
  // The healthy neighbour ran its full 10 epochs, unperturbed.
  EXPECT_TRUE(fine_app.finished());
  EXPECT_EQ(fine.totals().epochs, 10u);
  EXPECT_EQ(fine.totals().checkpoint_failures, 0u);
  // The doomed tenant froze after exactly freeze_after failures.
  EXPECT_EQ(doomed.totals().checkpoint_failures, 3u);
  EXPECT_TRUE(doomed.totals().frozen_by_governor);
}

}  // namespace
}  // namespace crimes
