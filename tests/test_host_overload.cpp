// Tests: the host overload robustness subsystem -- admission control,
// the cross-tenant shedding arbiter, the host fault sites, and the
// Crimes-side host hooks they actuate.
#include "cloud/cloud_host.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace crimes {
namespace {

GuestConfig small_guest() {
  GuestConfig gc;
  gc.page_count = 2048;
  gc.task_slab_pages = 4;
  gc.canary_table_pages = 8;
  return gc;
}

CrimesConfig tenant_crimes(Nanos interval = millis(50)) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(interval);
  config.record_execution = false;
  return config;
}

ParsecProfile small_profile(double duration_ms = 400.0) {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 5.0;
  profile.duration_ms = duration_ms;
  return profile;
}

HostConfig enabled_host() {
  HostConfig hc;
  hc.enabled = true;
  return hc;
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

AdmissionRequest request(const std::string& name, std::size_t pages,
                         bool prot = true, double pause_ms = 8.0,
                         double interval_ms = 100.0, std::size_t window = 0) {
  AdmissionRequest r;
  r.tenant = name;
  r.guest_pages = pages;
  r.protected_mode = prot;
  r.pause_budget_ms = pause_ms;
  r.interval_ms = interval_ms;
  r.replication_window = window;
  return r;
}

TEST(Admission, AcceptCommitsCapacity) {
  HostConfig hc = enabled_host();
  hc.frame_headroom = 0.0;
  AdmissionController ctl(hc, 10000);
  const AdmissionDecision d = ctl.decide(request("a", 2048));
  EXPECT_EQ(d.verdict, AdmissionDecision::Verdict::Accept);
  EXPECT_STREQ(d.reason, "admitted");
  EXPECT_EQ(d.frames_required, 4096u);  // 2x: the backup image
  EXPECT_EQ(ctl.frames_committed(), 4096u);
  EXPECT_GT(ctl.overhead_committed(), 0.0);

  // Unprotected tenants pay single frames and no pause share.
  const AdmissionDecision u = ctl.decide(request("b", 2048, false));
  EXPECT_EQ(u.verdict, AdmissionDecision::Verdict::Accept);
  EXPECT_EQ(u.frames_required, 2048u);
  EXPECT_DOUBLE_EQ(u.pause_share, 0.0);
}

TEST(Admission, DefersWhenCommitmentsExhaust) {
  HostConfig hc = enabled_host();
  hc.frame_headroom = 0.0;
  AdmissionController ctl(hc, 10000);
  EXPECT_EQ(ctl.decide(request("a", 4000)).verdict,
            AdmissionDecision::Verdict::Accept);  // commits 8000
  const AdmissionDecision d = ctl.decide(request("b", 2000));
  EXPECT_EQ(d.verdict, AdmissionDecision::Verdict::Defer);
  EXPECT_STREQ(d.reason, "frames-exhausted");
  // Defer commits nothing: releasing the first tenant makes room.
  ctl.release(request("a", 4000));
  EXPECT_EQ(ctl.decide(request("b", 2000)).verdict,
            AdmissionDecision::Verdict::Accept);
}

TEST(Admission, RejectsRequestsThatNeverFit) {
  HostConfig hc = enabled_host();
  hc.frame_headroom = 0.0;
  hc.replication_slots = 8;
  hc.max_aggregate_overhead = 0.5;
  AdmissionController ctl(hc, 10000);

  const AdmissionDecision big = ctl.decide(request("big", 8000));
  EXPECT_EQ(big.verdict, AdmissionDecision::Verdict::Reject);
  EXPECT_STREQ(big.reason, "frames-exceed-machine");

  const AdmissionDecision greedy =
      ctl.decide(request("greedy", 128, true, 80.0, 100.0));
  EXPECT_EQ(greedy.verdict, AdmissionDecision::Verdict::Reject);
  EXPECT_STREQ(greedy.reason, "pause-share-exceeds-host-budget");

  const AdmissionDecision wide =
      ctl.decide(request("wide", 128, true, 8.0, 100.0, 16));
  EXPECT_EQ(wide.verdict, AdmissionDecision::Verdict::Reject);
  EXPECT_STREQ(wide.reason, "window-exceeds-replication-slots");

  // Rejections committed nothing.
  EXPECT_EQ(ctl.frames_committed(), 0u);
}

TEST(Admission, HostLogsDecisionsAndRefusalBuildsNoVm) {
  HostConfig hc = enabled_host();
  hc.frame_headroom = 0.0;
  CloudHost host(hc, 6000);  // room for one 2048-page protected tenant
  const AdmissionResult ok =
      host.admit({"fits", small_guest(), tenant_crimes()});
  ASSERT_TRUE(ok.accepted());
  EXPECT_EQ(static_cast<Tenant&>(ok).name(), "fits");
  const std::size_t frames_after_first =
      host.hypervisor().machine().allocated_frames();

  // Another 4096 frames on top of the 4096 committed: defer.
  const AdmissionResult refused =
      host.admit({"overflow", small_guest(), tenant_crimes()});
  EXPECT_FALSE(refused.accepted());
  EXPECT_EQ(refused.decision.verdict, AdmissionDecision::Verdict::Defer);
  EXPECT_STREQ(refused.decision.reason, "frames-exhausted");
  // A refused tenant costs nothing: no VM was built, no frames pinned,
  // and using the result as a Tenant& is a hard error.
  EXPECT_EQ(host.tenant_count(), 1u);
  EXPECT_EQ(host.hypervisor().machine().allocated_frames(),
            frames_after_first);
  EXPECT_THROW((void)static_cast<Tenant&>(refused), std::runtime_error);

  // Every decision -- accepts and refusals -- lands in the log and the
  // operator table renders one row per decision.
  ASSERT_EQ(host.admission_log().size(), 2u);
  const std::string table = host.admission_table();
  EXPECT_NE(table.find("fits"), std::string::npos);
  EXPECT_NE(table.find("overflow"), std::string::npos);
  EXPECT_NE(table.find("frames-exhausted"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-tenant arbiter (synthetic inputs: pure decision-logic tests)
// ---------------------------------------------------------------------------

HostConfig arbiter_config() {
  HostConfig hc = enabled_host();
  hc.shed_enter = 1.0;
  hc.shed_exit = 0.7;
  hc.recover_after = 2;
  hc.arbitrate = false;  // ladder-only unless a test opts in
  return hc;
}

HostTenantSample sample(TenantPriority priority, double copy_ms = 1.0) {
  HostTenantSample s;
  s.priority = static_cast<std::uint8_t>(priority);
  s.copy_ms = copy_ms;
  s.live = true;
  return s;
}

HostInputs pressured(std::uint64_t round, double frame_pressure,
                     std::vector<HostTenantSample> tenants) {
  HostInputs in;
  in.round = round;
  in.frames_used = frame_pressure * 1000.0;
  in.frame_limit = 1000.0;
  in.tenants = std::move(tenants);
  return in;
}

TEST(Arbiter, ShedsInPriorityOrderCriticalExempt) {
  HostArbiter arbiter(arbiter_config());
  const std::vector<HostTenantSample> tenants = {
      sample(TenantPriority::Critical),
      sample(TenantPriority::Standard),
      sample(TenantPriority::BestEffort),
  };
  // Sustained overload: the best-effort tenant absorbs all three rungs
  // before the standard tenant is touched; critical is never shed.
  for (std::uint64_t r = 0; r < 6; ++r) {
    (void)arbiter.observe(pressured(r, 1.5, tenants));
  }
  const std::vector<HostDecision>& log = arbiter.decisions();
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0].tenant, 2u);
  EXPECT_EQ(log[0].action, HostAction::StretchInterval);
  EXPECT_STREQ(log[0].reason, "host-pressure-stretch-interval");
  EXPECT_EQ(log[1].tenant, 2u);
  EXPECT_EQ(log[1].action, HostAction::Downgrade);
  EXPECT_EQ(log[2].tenant, 2u);
  EXPECT_EQ(log[2].action, HostAction::PauseProtection);
  EXPECT_EQ(arbiter.shed_level(2), 3u);
  // Only then does degradation spill onto the standard tenant.
  EXPECT_EQ(log[3].tenant, 1u);
  EXPECT_EQ(log[4].tenant, 1u);
  EXPECT_EQ(log[5].tenant, 1u);
  // The critical tenant was never touched.
  EXPECT_EQ(arbiter.shed_level(0), 0u);
}

TEST(Arbiter, RecoversHysteretically) {
  HostConfig hc = arbiter_config();
  HostArbiter arbiter(hc);
  const std::vector<HostTenantSample> tenants = {
      sample(TenantPriority::Standard),
      sample(TenantPriority::BestEffort),
  };
  (void)arbiter.observe(pressured(0, 1.5, tenants));  // BE -> rung 1
  (void)arbiter.observe(pressured(1, 1.5, tenants));  // BE -> rung 2
  ASSERT_EQ(arbiter.shed_level(1), 2u);

  // The hysteresis band (exit < pressure < enter) holds the ladder.
  (void)arbiter.observe(pressured(2, 0.85, tenants));
  EXPECT_EQ(arbiter.shed_level(1), 2u);
  EXPECT_EQ(arbiter.decisions().size(), 2u);

  // Calm rounds recover one rung per `recover_after` qualifying rounds.
  (void)arbiter.observe(pressured(3, 0.1, tenants));
  EXPECT_EQ(arbiter.shed_level(1), 2u);  // 1 calm round: not yet
  (void)arbiter.observe(pressured(4, 0.1, tenants));
  EXPECT_EQ(arbiter.shed_level(1), 1u);
  EXPECT_EQ(arbiter.decisions().back().action, HostAction::RestoreMode);
  EXPECT_STREQ(arbiter.decisions().back().reason, "host-calm-restore-mode");
  (void)arbiter.observe(pressured(5, 0.1, tenants));
  (void)arbiter.observe(pressured(6, 0.1, tenants));
  EXPECT_EQ(arbiter.shed_level(1), 0u);
  EXPECT_EQ(arbiter.decisions().back().action, HostAction::RestoreInterval);
}

TEST(Arbiter, GovernorPrecedenceSkipsHeldTenants) {
  HostArbiter arbiter(arbiter_config());
  std::vector<HostTenantSample> tenants = {
      sample(TenantPriority::Standard),
      sample(TenantPriority::BestEffort),
  };
  tenants[1].governor = 1;  // its SafetyGovernor is degraded: hands off
  (void)arbiter.observe(pressured(0, 1.5, tenants));
  ASSERT_EQ(arbiter.decisions().size(), 1u);
  // The governor-held best-effort tenant is skipped; the standard tenant
  // is shed instead (governor always wins over the host ladder).
  EXPECT_EQ(arbiter.decisions()[0].tenant, 0u);
  EXPECT_EQ(arbiter.shed_level(1), 0u);
}

TEST(Arbiter, TradesCapTheLowestPriorityDonor) {
  HostConfig hc = arbiter_config();
  hc.arbitrate = true;
  HostArbiter arbiter(hc);
  std::vector<HostTenantSample> tenants = {
      sample(TenantPriority::Standard),
      sample(TenantPriority::BestEffort),
  };
  tenants[0].replicated = true;
  tenants[1].replicated = true;

  // Saturated transport: it feeds the composite pressure too, so the
  // round sheds one ladder rung AND trades window slots -- both against
  // the lowest-priority (best-effort) tenant.
  HostInputs in = pressured(0, 0.0, tenants);
  in.inflight = 30.0;
  in.transport_slots = 16.0;
  (void)arbiter.observe(in);
  ASSERT_EQ(arbiter.decisions().size(), 2u);
  EXPECT_EQ(arbiter.decisions()[0].action, HostAction::StretchInterval);
  EXPECT_EQ(arbiter.decisions()[0].tenant, 1u);
  EXPECT_EQ(arbiter.decisions()[1].action, HostAction::CapWindow);
  EXPECT_EQ(arbiter.decisions()[1].tenant, 1u);
  EXPECT_STREQ(arbiter.decisions()[1].reason,
               "transport-saturated-window-trade");
  EXPECT_TRUE(arbiter.window_capped(1));

  // Calm transport restores every capped donor.
  HostInputs calm = pressured(1, 0.0, tenants);
  calm.inflight = 1.0;
  calm.transport_slots = 16.0;
  (void)arbiter.observe(calm);
  EXPECT_FALSE(arbiter.window_capped(1));
  EXPECT_EQ(arbiter.decisions().back().action, HostAction::UncapWindow);
}

TEST(Arbiter, ReplayReproducesTheDecisionStream) {
  HostConfig hc = arbiter_config();
  hc.arbitrate = true;
  HostArbiter live(hc);
  const std::vector<HostTenantSample> tenants = {
      sample(TenantPriority::Critical, 2.0),
      sample(TenantPriority::Standard, 1.0),
      sample(TenantPriority::BestEffort, 4.0),
  };
  // A storm, a hold, and a recovery -- enough to exercise every branch.
  for (std::uint64_t r = 0; r < 4; ++r) {
    (void)live.observe(pressured(r, 1.6, tenants));
  }
  (void)live.observe(pressured(4, 0.85, tenants));
  for (std::uint64_t r = 5; r < 12; ++r) {
    (void)live.observe(pressured(r, 0.2, tenants));
  }
  const std::vector<HostInputs> history = live.history();
  ASSERT_EQ(history.size(), 12u);
  const std::vector<HostDecision> replayed =
      HostArbiter::replay(hc, history);
  ASSERT_EQ(replayed.size(), live.decisions().size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], live.decisions()[i]) << "decision " << i;
  }
}

// ---------------------------------------------------------------------------
// Host fault sites and end-to-end shedding
// ---------------------------------------------------------------------------

TEST(Host, OverloadStormFactoryAndSameSeedDeterminism) {
  const fault::FaultPlan plan = fault::FaultPlan::overload_storm(
      0.5, /*from=*/2, /*until=*/40, /*seed=*/7);
  EXPECT_TRUE(plan.any());
  EXPECT_DOUBLE_EQ(plan.flash_crowd, 0.5);
  EXPECT_DOUBLE_EQ(plan.neighbor_dirty_storm, 0.5);
  EXPECT_DOUBLE_EQ(plan.correlated_failover, 0.125);

  // Same plan, two injectors: identical per-round hit sequences -- the
  // decisions are a pure function of (seed, round, site).
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  std::size_t hits = 0;
  for (std::size_t round = 0; round < 64; ++round) {
    a.begin_epoch(round);
    b.begin_epoch(round);
    const bool fa = a.flash_crowd_hits();
    const bool sa = a.neighbor_storm_hits();
    const bool ca = a.correlated_failover_hits();
    EXPECT_EQ(fa, b.flash_crowd_hits()) << "round " << round;
    EXPECT_EQ(sa, b.neighbor_storm_hits()) << "round " << round;
    EXPECT_EQ(ca, b.correlated_failover_hits()) << "round " << round;
    hits += static_cast<std::size_t>(fa) + static_cast<std::size_t>(sa) +
            static_cast<std::size_t>(ca);
    // Outside the window nothing fires.
    if (round < 2 || round >= 40) {
      EXPECT_FALSE(fa || sa || ca) << "round " << round;
    }
  }
  EXPECT_GT(hits, 0u);

  // A different seed produces a different schedule.
  fault::FaultInjector c(
      fault::FaultPlan::overload_storm(0.5, 2, 40, /*seed=*/8));
  bool differs = false;
  for (std::size_t round = 0; round < 64 && !differs; ++round) {
    a.begin_epoch(round);
    c.begin_epoch(round);
    differs = a.flash_crowd_hits() != c.flash_crowd_hits() ||
              a.neighbor_storm_hits() != c.neighbor_storm_hits();
  }
  EXPECT_TRUE(differs);
}

// Builds the shared host for the isolation/shedding scenarios: a Critical
// Synchronous neighbour plus a BestEffort tenant, under a host config
// whose copy-overhead limit is so tight that every round sheds.
struct ShedScenario {
  CloudHost host;
  Tenant* neighbour;
  Tenant* victim;
  std::unique_ptr<ParsecWorkload> neighbour_load;
  std::unique_ptr<ParsecWorkload> victim_load;

  ShedScenario()
      : host(
            [] {
              HostConfig hc;
              hc.enabled = true;
              hc.copy_overhead_limit = 1e-6;  // any copy => overload
              hc.arbitrate = false;
              return hc;
            }(),
            1u << 19) {
    TenantPolicy np{"neighbour", small_guest(), tenant_crimes()};
    np.priority = TenantPriority::Critical;
    neighbour = host.admit(std::move(np)).admitted;
    TenantPolicy vp{"victim", small_guest(), tenant_crimes()};
    vp.priority = TenantPriority::BestEffort;
    victim = host.admit(std::move(vp)).admitted;
    neighbour_load = std::make_unique<ParsecWorkload>(
        neighbour->kernel(), small_profile(), 11);
    victim_load = std::make_unique<ParsecWorkload>(victim->kernel(),
                                                   small_profile(), 22);
    neighbour->set_workload(neighbour_load.get());
    victim->set_workload(victim_load.get());
    host.initialize_all();
  }
};

TEST(Host, ShedsBestEffortFirstAndRecordsEvidence) {
  ShedScenario s;
  const CloudRunReport report = s.host.run(millis(400));
  EXPECT_GT(report.host_rounds, 0u);
  EXPECT_GT(report.host_decisions, 0u);

  // The best-effort tenant walked the ladder; the critical neighbour was
  // never shed.
  ASSERT_NE(s.host.arbiter(), nullptr);
  EXPECT_EQ(s.host.arbiter()->shed_level(0), 0u);
  EXPECT_EQ(s.host.arbiter()->shed_level(1), 3u);
  EXPECT_GT(s.victim->totals().host_paused_epochs, 0u);
  EXPECT_GT(s.victim->crimes().host_interval_scale(), 1.0);

  // Every host actuation is in the victim's flight recorder as a `host`
  // event; none leaked into the neighbour's.
  auto count_host_events = [](Crimes& c) {
    std::size_t n = 0;
    for (const telemetry::FlightEvent& e : c.flight_recorder()->snapshot()) {
      if (e.kind == telemetry::FlightEventKind::Host) ++n;
    }
    return n;
  };
  EXPECT_GE(count_host_events(s.victim->crimes()), 3u);
  EXPECT_EQ(count_host_events(s.neighbour->crimes()), 0u);

  // The decision stream replays exactly from the recorded inputs.
  const std::vector<HostDecision> replayed = HostArbiter::replay(
      s.host.host_config(), s.host.arbiter()->history());
  ASSERT_EQ(replayed.size(), s.host.arbiter()->decisions().size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], s.host.arbiter()->decisions()[i]);
  }
}

TEST(Host, ShedNeighbourRunSummaryByteIdenticalToSoloRun) {
  // Shared host: the best-effort victim is shed round after round while
  // the critical Synchronous neighbour runs beside it.
  ShedScenario s;
  (void)s.host.run(millis(400));
  ASSERT_EQ(s.host.arbiter()->shed_level(1), 3u);  // victim fully shed

  // Solo host (overload subsystem off): the same neighbour, same seed,
  // alone on the machine.
  CloudHost solo(1u << 19);
  TenantPolicy np{"neighbour", small_guest(), tenant_crimes()};
  np.priority = TenantPriority::Critical;
  Tenant& alone = solo.admit(std::move(np));
  ParsecWorkload load(alone.kernel(), small_profile(), 11);
  alone.set_workload(&load);
  solo.initialize_all();
  (void)solo.run(millis(400));

  // Cross-tenant interference is host-side accounting only: the
  // neighbour's own RunSummary is byte-identical to the solo run.
  EXPECT_TRUE(s.neighbour->totals() == alone.totals());
  EXPECT_EQ(s.neighbour->totals().host_paused_epochs, 0u);
}

TEST(Host, PauseProtectionSkipsPipelineAndResumes) {
  CloudHost host(1u << 19);
  Tenant& t = host.admit({"t", small_guest(), tenant_crimes()});
  ParsecWorkload load(t.kernel(), small_profile(800.0), 9);
  t.set_workload(&load);
  host.initialize_all();

  (void)host.run(millis(200));
  const std::size_t checkpoints_before = t.totals().checkpoints;
  EXPECT_GT(checkpoints_before, 0u);

  // Rung 3: epochs execute, the checkpoint/audit pipeline does not.
  t.crimes().host_pause_protection(true);
  (void)host.run(millis(400));
  EXPECT_EQ(t.totals().checkpoints, checkpoints_before);
  EXPECT_GT(t.totals().host_paused_epochs, 0u);

  // Resume: the pipeline picks back up and covers the gap.
  t.crimes().host_pause_protection(false);
  (void)host.run(millis(600));
  EXPECT_GT(t.totals().checkpoints, checkpoints_before);
}

TEST(Host, DisabledSubsystemIsZeroCost) {
  // A HostConfig with enabled=false behaves exactly like the legacy host:
  // no arbiter, no admission log, no host rounds, identical schedules.
  CloudHost legacy(1u << 19);
  CloudHost off(HostConfig{}, 1u << 19);
  Tenant& ta = legacy.admit({"t", small_guest(), tenant_crimes()});
  Tenant& tb = off.admit({"t", small_guest(), tenant_crimes()});
  // One workload per host, same seed: identical virtual execution.
  ParsecWorkload la(ta.kernel(), small_profile(), 31);
  ParsecWorkload lb(tb.kernel(), small_profile(), 31);
  ta.set_workload(&la);
  tb.set_workload(&lb);
  legacy.initialize_all();
  off.initialize_all();
  const CloudRunReport ra = legacy.run(millis(400));
  const CloudRunReport rb = off.run(millis(400));
  EXPECT_EQ(off.arbiter(), nullptr);
  EXPECT_TRUE(off.admission_log().empty());
  EXPECT_EQ(rb.host_rounds, 0u);
  EXPECT_EQ(rb.host_decisions, 0u);
  EXPECT_EQ(ra.epochs_scheduled, rb.epochs_scheduled);
  EXPECT_EQ(legacy.tenant("t").totals().total_pause,
            off.tenant("t").totals().total_pause);
  EXPECT_EQ(legacy.tenant("t").totals().checkpoints,
            off.tenant("t").totals().checkpoints);
}

}  // namespace
}  // namespace crimes
