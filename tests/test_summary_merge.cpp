// Tests: RunSummary::merge -- CloudHost totals carry every field its
// one-epoch run() slices report, and N one-epoch run() calls merge to
// exactly the summary of one N-epoch call.
#include "cloud/cloud_host.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

namespace crimes {
namespace {

using testing::TestGuest;

constexpr Nanos kInterval = millis(50);
constexpr std::size_t kEpochs = 16;

ParsecProfile busy_profile() {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 512;
  profile.touches_per_ms = 8.0;
  profile.duration_ms = to_ms(kInterval) * static_cast<double>(kEpochs);
  return profile;
}

CrimesConfig sealed_replicated_config(fault::FaultPlan plan) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(kInterval);
  config.checkpoint.store.enabled = true;
  config.checkpoint.store.journal = true;
  config.checkpoint.store.crypto.seal = true;
  config.checkpoint.store.crypto.attest = true;
  config.record_execution = false;
  config.replication.enabled = true;
  config.replication.heartbeat.interval = kInterval;
  config.replication.lease_term = millis(200);
  config.faults = std::move(plan);
  return config;
}

// One tenant alone on a CloudHost, which drives it one epoch per run().
RunSummary host_totals(CrimesConfig config) {
  CloudHost host(1u << 19);
  Tenant& tenant =
      host.admit({"tenant", TestGuest::small_config(), std::move(config)});
  ParsecWorkload load(tenant.kernel(), busy_profile(), 7);
  tenant.set_workload(&load);
  host.initialize_all();
  (void)host.run(kInterval * static_cast<std::int64_t>(kEpochs));
  return tenant.totals();
}

TEST(SummaryMerge, CloudHostTotalsKeepCowAndAttestationFields) {
  // CoW tenant. Each one-epoch slice settles its drain before returning,
  // so the drain never overlaps guest execution on a CloudHost: it all
  // stalls the commit barrier and no guest write hits a pending page.
  CrimesConfig cow;
  cow.checkpoint = CheckpointConfig::cow(kInterval);
  cow.record_execution = false;
  const RunSummary cow_totals = host_totals(cow);
  EXPECT_GT(cow_totals.checkpoints, 0u);
  EXPECT_GT(cow_totals.cow_drain_time.count(), 0);
  EXPECT_GT(cow_totals.cow_commit_stall.count(), 0);

  // Sealed, attested, replicated tenant under a tamper storm: detections
  // at the store, journal and replication boundaries, and a root verified
  // for every replicated generation.
  const RunSummary storm_totals = host_totals(sealed_replicated_config(
      fault::FaultPlan::tamper_storm(0.4, /*from=*/1, /*until=*/7, 11)));
  EXPECT_GT(storm_totals.tampers_detected, 0u);
  EXPECT_GT(storm_totals.roots_verified, 0u);

  // Tampered replication stream, then a primary kill: the standby refuses
  // to promote from the broken chain.
  fault::FaultPlan kill_plan;
  kill_plan.seed = 7;
  kill_plan.replication_tamper = 0.5;
  kill_plan.from_epoch = 2;
  kill_plan.until_epoch = 8;
  kill_plan.scheduled.push_back(
      {.epoch = 10, .kind = fault::FaultKind::PrimaryKill, .module = ""});
  const RunSummary kill_totals =
      host_totals(sealed_replicated_config(kill_plan));
  EXPECT_TRUE(kill_totals.primary_killed);
  EXPECT_FALSE(kill_totals.failed_over);
  EXPECT_EQ(kill_totals.promotions_refused, 1u);
  EXPECT_GT(kill_totals.tampers_detected, 0u);

  for (const RunSummary* s : {&cow_totals, &storm_totals, &kill_totals}) {
    EXPECT_TRUE(RunSummary{}.merge(*s) == *s);
  }
}

// A configuration whose run() tail leaves the clock alone (stop-copy, no
// store journal or crypto), so slicing the run cannot move virtual time,
// with enough going on that most counters are non-zero: replication, a
// transport-fault storm under a quick-tempered governor, the control plane
// and the SLO monitor.
CrimesConfig busy_config() {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(kInterval);
  config.record_execution = false;
  config.replication.enabled = true;
  config.replication.heartbeat.interval = kInterval;
  config.replication.lease_term = millis(200);
  config.faults = fault::FaultPlan::transport_storm(0.5, /*from=*/2,
                                                    /*until=*/10, 5);
  config.governor.downgrade_after = 1;
  config.governor.upgrade_after = 2;
  config.control.enabled = true;
  config.control.cycle_every = 2;
  config.slo.budget.pause_ms = 1.0;  // tight: the monitor leaves Healthy
  return config;
}

struct Twin {
  explicit Twin(const CrimesConfig& config)
      : crimes(guest.hypervisor, *guest.kernel, config),
        app(*guest.kernel, busy_profile(), 3) {
    crimes.set_workload(&app);
    crimes.initialize();
  }
  TestGuest guest;
  Crimes crimes;
  ParsecWorkload app;
};

TEST(SummaryMerge, OneShotRunEqualsMergedOneEpochSlices) {
  const Nanos budget = kInterval * static_cast<std::int64_t>(kEpochs);
  Twin whole(busy_config());
  const RunSummary one_shot = whole.crimes.run(budget);

  Twin sliced(busy_config());
  RunSummary merged;
  while (merged.work_time < budget) {
    const RunSummary slice =
        sliced.crimes.run(sliced.crimes.current_interval());
    if (slice.epochs == 0) break;
    EXPECT_EQ(slice.epochs, 1u);
    merged.merge(slice);
  }

  EXPECT_TRUE(merged == one_shot);

  // The scenario exercises what it claims to.
  EXPECT_GT(one_shot.epochs, 8u);
  EXPECT_GT(one_shot.checkpoint_failures, 0u);
  EXPECT_GT(one_shot.faults_injected, 0u);
  EXPECT_GT(one_shot.governor_downgrades, 0u);
  EXPECT_GT(one_shot.governor_upgrades, 0u);
  EXPECT_GT(one_shot.replicated_generations, 0u);
  EXPECT_GT(one_shot.postmortems_dumped, 0u);
  EXPECT_GT(one_shot.control_adjustments, 0u);
  EXPECT_GT(one_shot.control_holds, 0u);
  EXPECT_GT(one_shot.slo_critical_epochs, 0u);
}

}  // namespace
}  // namespace crimes
