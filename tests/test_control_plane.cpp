// Tests: the closed-loop control plane (src/control) -- clamp saturation
// at both ends, oscillation damping under an adversarial square-wave
// load, governor-freeze precedence, disabled-knob zero-allocation,
// replay determinism, and the Crimes/CloudHost integration.
#include "cloud/cloud_host.h"
#include "common/rng.h"
#include "control/control_plane.h"
#include "core/crimes.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

// Defined in test_telemetry.cpp: counts every operator new in the binary.
extern std::atomic<std::uint64_t> g_heap_allocs;

namespace crimes {
namespace {

using testing::TestGuest;

control::ControlConfig tight_config() {
  control::ControlConfig cc;
  cc.enabled = true;
  cc.cycle_every = 1;
  cc.settle_cycles = 0;
  cc.deadband = 0.05;
  cc.min_interval = millis(20);
  cc.max_interval = millis(200);
  cc.manage_scan = false;
  return cc;
}

telemetry::SloBudget loose_targets() {
  telemetry::SloBudget targets;
  targets.pause_ms = 1000.0;
  targets.vulnerability_ms = 0.0;  // disables the vulnerability guard
  targets.replication_lag = 8.0;
  targets.audit_ms = 1000.0;
  return targets;
}

control::ControlInputs inputs_at(const control::ControlPlane& plane,
                                 std::uint64_t epoch, double pause_ms) {
  control::ControlInputs in;
  in.epoch = epoch;
  in.interval_ms = to_ms(plane.interval());
  in.pause_ms = pause_ms;
  in.pause_p95_ms = pause_ms;
  in.pause_p99_ms = pause_ms;
  in.dirty_pages = 500.0;
  return in;
}

TEST(ControlPlane, IntervalClampSaturatesAtBothEnds) {
  const CostModel& costs = CostModel::defaults();

  // Low end: pause p95 permanently over budget forces multiplicative
  // decrease until the min clamp; once pinned, no further decisions.
  control::ControlConfig cc = tight_config();
  telemetry::SloBudget targets = loose_targets();
  targets.pause_ms = 5.0;
  control::ControlPlane low(cc, costs, targets, millis(100), 0, 0);
  for (std::uint64_t e = 1; e <= 30; ++e) {
    (void)low.observe(inputs_at(low, e, 50.0));
  }
  EXPECT_EQ(low.interval(), cc.min_interval);
  const std::size_t pinned = low.adjustments();
  EXPECT_GT(pinned, 0u);
  for (std::uint64_t e = 31; e <= 40; ++e) {
    (void)low.observe(inputs_at(low, e, 50.0));
  }
  EXPECT_EQ(low.interval(), cc.min_interval);
  EXPECT_EQ(low.adjustments(), pinned) << "saturated knob must stop moving";

  // High end: large pause with no tail pressure makes the overhead-ideal
  // interval huge; the gradient walks to the max clamp and stays.
  control::ControlPlane high(cc, costs, loose_targets(), millis(40), 0, 0);
  for (std::uint64_t e = 1; e <= 30; ++e) {
    (void)high.observe(inputs_at(high, e, 20.0));
  }
  EXPECT_EQ(high.interval(), cc.max_interval);
  const std::size_t pinned_high = high.adjustments();
  for (std::uint64_t e = 31; e <= 40; ++e) {
    (void)high.observe(inputs_at(high, e, 20.0));
  }
  EXPECT_EQ(high.interval(), cc.max_interval);
  EXPECT_EQ(high.adjustments(), pinned_high);
}

// The interval policy alone: every other policy off.
control::ControlConfig interval_only() {
  control::ControlConfig cc;
  cc.enabled = true;
  cc.manage_scan = false;
  cc.manage_window = false;
  cc.manage_gc = false;
  return cc;
}

// Feeds `cycles` control cycles of a constant per-epoch pause.
void observe_cycles(control::ControlPlane& plane,
                    const control::ControlConfig& cc, std::size_t cycles,
                    double pause_ms, std::uint64_t& epoch) {
  for (std::size_t i = 0; i < cycles * cc.cycle_every; ++i) {
    (void)plane.observe(inputs_at(plane, ++epoch, pause_ms));
  }
}

TEST(ControlPlane, IntervalGrowsWhenOverheadAboveTarget) {
  const control::ControlConfig cc = interval_only();
  control::ControlPlane plane(cc, CostModel::defaults(), loose_targets(),
                              millis(50), 0, 0);
  // 10 ms pause on a 50 ms epoch = 20% overhead >> 5% target.
  std::uint64_t epoch = 0;
  observe_cycles(plane, cc, 1, 10.0, epoch);
  EXPECT_GT(plane.interval(), millis(50));
  EXPECT_LE(to_ms(plane.interval()), 50.0 * cc.max_step + 1e-6);
}

TEST(ControlPlane, UnmanagedIntervalStaysPut) {
  control::ControlConfig cc = interval_only();
  cc.manage_interval = false;
  control::ControlPlane plane(cc, CostModel::defaults(), loose_targets(),
                              millis(100), 0, 0);
  std::uint64_t epoch = 0;
  observe_cycles(plane, cc, 4, 50.0, epoch);
  EXPECT_EQ(plane.interval(), millis(100));
  EXPECT_EQ(plane.adjustments(), 0u);
}

TEST(ControlPlane, IntervalShrinksWhenOverheadBelowTarget) {
  const control::ControlConfig cc = interval_only();
  control::ControlPlane plane(cc, CostModel::defaults(), loose_targets(),
                              millis(200), 0, 0);
  // 1 ms pause on 200 ms = 0.5% overhead: far below target; shrink.
  std::uint64_t epoch = 0;
  observe_cycles(plane, cc, 1, 1.0, epoch);
  EXPECT_LT(plane.interval(), millis(200));
  EXPECT_GE(to_ms(plane.interval()), 200.0 / cc.max_step - 1e-6);
}

TEST(ControlPlane, IntervalRespectsClampWindow) {
  control::ControlConfig cc = interval_only();
  cc.min_interval = millis(40);
  cc.max_interval = millis(120);
  control::ControlPlane plane(cc, CostModel::defaults(), loose_targets(),
                              millis(100), 0, 0);
  std::uint64_t epoch = 0;
  observe_cycles(plane, cc, 40, 100.0, epoch);
  EXPECT_EQ(plane.interval(), millis(120));
  observe_cycles(plane, cc, 40, 0.01, epoch);
  EXPECT_EQ(plane.interval(), millis(40));
}

TEST(ControlPlane, IntervalSettlesInsideDeadbandForConstantPause) {
  control::ControlConfig cc = interval_only();
  cc.target_overhead = 0.10;
  cc.min_interval = millis(10);
  cc.max_interval = millis(500);
  control::ControlPlane plane(cc, CostModel::defaults(), loose_targets(),
                              millis(20), 0, 0);
  std::uint64_t epoch = 0;
  observe_cycles(plane, cc, 50, 5.0, epoch);
  // 5 ms pause at a 10% target => a 50 ms ideal; the policy stops once
  // the relative error to it is inside the deadband, and stays put.
  const double ideal_ms = 5.0 / cc.target_overhead;
  EXPECT_GE(to_ms(plane.interval()), ideal_ms / (1.0 + cc.deadband));
  EXPECT_LE(to_ms(plane.interval()), ideal_ms / (1.0 - cc.deadband));
  const std::size_t settled = plane.adjustments();
  EXPECT_GT(settled, 0u);
  observe_cycles(plane, cc, 20, 5.0, epoch);
  EXPECT_EQ(plane.adjustments(), settled);
}

TEST(ControlPlane, IntervalOnlyCrimesIntegrationTunesTheEpoch) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(20));
  config.record_execution = false;
  config.control = interval_only();
  config.control.target_overhead = 0.02;  // strict: forces adjustments
  config.control.min_interval = millis(20);
  config.control.max_interval = millis(200);
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 512;
  profile.touches_per_ms = 30.0;
  profile.duration_ms = 2000.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();
  EXPECT_EQ(crimes.current_interval(), millis(20));

  const RunSummary summary = crimes.run(millis(3000));
  EXPECT_GT(summary.control_adjustments, 0u);
  EXPECT_GT(crimes.current_interval(), millis(20));
  for (const control::ControlDecision& d :
       crimes.control_plane()->decisions()) {
    EXPECT_EQ(d.knob, control::Knob::EpochInterval);
  }
}

TEST(ControlPlane, WindowClampSaturatesAtBothEnds) {
  const CostModel& costs = CostModel::defaults();
  control::ControlConfig cc = tight_config();
  cc.manage_interval = false;

  // Lag over budget: AIMD halving down to min_window, then quiescent.
  control::ControlPlane shrink(cc, costs, loose_targets(), millis(100), 8, 0);
  for (std::uint64_t e = 1; e <= 12; ++e) {
    control::ControlInputs in = inputs_at(shrink, e, 1.0);
    in.replication_lag = 100.0;
    (void)shrink.observe(in);
  }
  EXPECT_EQ(shrink.replication_window(), cc.min_window);
  const std::size_t pinned = shrink.adjustments();
  for (std::uint64_t e = 13; e <= 20; ++e) {
    control::ControlInputs in = inputs_at(shrink, e, 1.0);
    in.replication_lag = 100.0;
    (void)shrink.observe(in);
  }
  EXPECT_EQ(shrink.adjustments(), pinned);

  // Sustained backpressure stall with lag headroom: additive increase to
  // max_window, then quiescent.
  control::ControlPlane grow(cc, costs, loose_targets(), millis(100), 4, 0);
  for (std::uint64_t e = 1; e <= 30; ++e) {
    control::ControlInputs in = inputs_at(grow, e, 1.0);
    in.replication_stall_ms = 5.0;
    in.replication_lag = 1.0;
    (void)grow.observe(in);
  }
  EXPECT_EQ(grow.replication_window(), cc.max_window);
}

TEST(ControlPlane, SquareWaveLoadIsDamped) {
  const CostModel& costs = CostModel::defaults();
  // Adversarial square wave: the per-epoch pause flips between 2 ms and
  // 18 ms every epoch, so a naive controller chases an interval target
  // that teleports between ~40 ms and ~360 ms.
  const auto run_wave = [&](const control::ControlConfig& cc) {
    control::ControlPlane plane(cc, costs, loose_targets(), millis(100), 0, 0);
    for (std::uint64_t e = 1; e <= 200; ++e) {
      (void)plane.observe(inputs_at(plane, e, e % 2 == 0 ? 2.0 : 18.0));
    }
    std::size_t flips = 0;
    const auto& log = plane.decisions();
    for (std::size_t i = 1; i < log.size(); ++i) {
      const bool up_prev = log[i - 1].to > log[i - 1].from;
      const bool up_now = log[i].to > log[i].from;
      if (up_prev != up_now) ++flips;
    }
    for (const auto& d : log) {
      EXPECT_GE(d.to, to_ms(cc.min_interval));
      EXPECT_LE(d.to, to_ms(cc.max_interval));
    }
    return std::pair<std::size_t, std::size_t>(plane.adjustments(), flips);
  };

  control::ControlConfig damped = tight_config();
  damped.settle_cycles = 2;
  damped.deadband = 0.15;
  damped.smoothing = 0.5;

  control::ControlConfig naive = tight_config();
  naive.settle_cycles = 0;
  naive.deadband = 0.0;
  naive.smoothing = 1.0;  // no memory: every wave edge is believed

  const auto [damped_moves, damped_flips] = run_wave(damped);
  const auto [naive_moves, naive_flips] = run_wave(naive);

  // Structural bound: a knob rests settle_cycles cycles after each move,
  // so it can move on at most ~1 in (settle_cycles + 1) cycles.
  EXPECT_LE(damped_moves,
            (200 + damped.settle_cycles) / (damped.settle_cycles + 1) + 1);
  EXPECT_LT(damped_moves, naive_moves);
  EXPECT_LT(damped_flips, naive_flips)
      << "hysteresis must damp direction flapping under the square wave";
}

TEST(ControlPlane, GovernorPreemptsEveryPolicy) {
  const CostModel& costs = CostModel::defaults();
  control::ControlConfig cc = tight_config();
  telemetry::SloBudget targets = loose_targets();
  targets.pause_ms = 5.0;  // pressure that would move the interval

  control::ControlPlane plane(cc, costs, targets, millis(100), 8, 4);
  for (std::uint64_t e = 1; e <= 10; ++e) {
    control::ControlInputs in = inputs_at(plane, e, 50.0);
    in.replication_lag = 100.0;   // would shrink the window
    in.store_backlog = 100.0;     // would grow the GC budget
    in.governor = e <= 5 ? 2 : 1;  // Frozen, then Degraded
    const auto result = plane.observe(in);
    EXPECT_TRUE(result.held);
    EXPECT_EQ(result.decisions, 0u);
  }
  EXPECT_EQ(plane.adjustments(), 0u);
  EXPECT_EQ(plane.holds(), 10u);
  EXPECT_EQ(plane.interval(), millis(100));
  EXPECT_EQ(plane.replication_window(), 8u);
  EXPECT_EQ(plane.gc_budget(), 4u);

  // Back to Normal: the very next cycle is free to act.
  control::ControlInputs in = inputs_at(plane, 11, 50.0);
  const auto result = plane.observe(in);
  EXPECT_FALSE(result.held);
  EXPECT_GT(result.decisions, 0u);
}

TEST(ControlPlane, DisabledKnobsObserveWithoutAllocating) {
  const CostModel& costs = CostModel::defaults();
  control::ControlConfig cc = tight_config();
  cc.manage_interval = false;
  cc.manage_scan = false;
  cc.manage_window = false;
  cc.manage_gc = false;
  cc.history_capacity = 32;

  control::ControlPlane plane(cc, costs, loose_targets(), millis(100), 8, 4);
  // Warm the input ring past its capacity so the steady state is pure
  // ring overwrites.
  for (std::uint64_t e = 1; e <= 40; ++e) {
    (void)plane.observe(inputs_at(plane, e, 3.0));
  }
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t e = 41; e <= 140; ++e) {
    (void)plane.observe(inputs_at(plane, e, 3.0));
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after)
      << "observe() with every knob disabled must not allocate";
  EXPECT_EQ(plane.adjustments(), 0u);
}

TEST(ControlPlane, ReplayReproducesLiveDecisionStream) {
  const CostModel& costs = CostModel::defaults();
  control::ControlConfig cc;
  cc.enabled = true;
  cc.cycle_every = 2;
  cc.settle_cycles = 1;
  telemetry::SloBudget targets;  // the real defaults, guards active

  Rng rng(42);
  std::vector<control::ControlInputs> feed;
  control::ControlPlane live(cc, costs, targets, millis(100), 6, 2);
  for (std::uint64_t e = 1; e <= 300; ++e) {
    control::ControlInputs in = inputs_at(live, e, 1.0);
    in.pause_ms = static_cast<double>(rng.next_below(200)) / 10.0;
    in.pause_p95_ms = in.pause_ms * 1.5;
    in.pause_p99_ms = in.pause_ms * 2.0;
    in.audit_ms = static_cast<double>(rng.next_below(40)) / 10.0;
    in.replication_lag = static_cast<double>(rng.next_below(16));
    in.replication_stall_ms = static_cast<double>(rng.next_below(30)) / 10.0;
    in.store_backlog = static_cast<double>(rng.next_below(8));
    in.governor = rng.next_below(10) == 0 ? 2 : 0;
    in.slo = static_cast<std::uint8_t>(rng.next_below(3));
    feed.push_back(in);
    (void)live.observe(in);
  }
  ASSERT_GT(live.adjustments(), 0u);

  // The recorded history is the full feed (capacity 512 > 300)...
  const std::vector<control::ControlInputs> history = live.history();
  ASSERT_EQ(history.size(), feed.size());

  // ...and replaying it re-derives the exact decision stream.
  const std::vector<control::ControlDecision> replayed =
      control::ControlPlane::replay(cc, costs, targets, millis(100), 6, 2,
                                    history);
  ASSERT_EQ(replayed.size(), live.decisions().size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_TRUE(replayed[i] == live.decisions()[i]) << "decision " << i;
  }

  // A second live plane over the same inputs agrees too (same seed +
  // same telemetry => identical decisions).
  control::ControlPlane twin(cc, costs, targets, millis(100), 6, 2);
  for (const auto& in : feed) (void)twin.observe(in);
  ASSERT_EQ(twin.decisions().size(), live.decisions().size());
  for (std::size_t i = 0; i < twin.decisions().size(); ++i) {
    EXPECT_TRUE(twin.decisions()[i] == live.decisions()[i]);
  }
}

TEST(ControlPlane, CrimesIntegrationTunesIntervalAndRecordsEvidence) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(20));
  config.record_execution = false;
  config.control.enabled = true;
  config.control.cycle_every = 2;
  config.control.target_overhead = 0.02;  // strict: forces adjustments
  config.control.min_interval = millis(20);
  config.control.max_interval = millis(200);
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 512;
  profile.touches_per_ms = 30.0;
  profile.duration_ms = 2000.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  ASSERT_NE(crimes.control_plane(), nullptr);
  ASSERT_NE(crimes.telemetry(), nullptr) << "control must imply telemetry";
  EXPECT_EQ(crimes.current_interval(), millis(20));

  const RunSummary summary = crimes.run(millis(3000));
  EXPECT_GT(summary.control_cycles, 0u);
  EXPECT_GT(summary.control_adjustments, 0u);
  EXPECT_GT(summary.total_costs.control.count(), 0);
  EXPECT_GT(crimes.current_interval(), millis(20));

  // Every decision landed in the flight recorder as a control event.
  ASSERT_NE(crimes.flight_recorder(), nullptr);
  std::size_t control_events = 0;
  for (const auto& ev : crimes.flight_recorder()->snapshot()) {
    if (ev.kind == telemetry::FlightEventKind::Control) ++control_events;
  }
  EXPECT_EQ(control_events, summary.control_adjustments);

  // ...and in the control.* metric family.
  EXPECT_EQ(crimes.telemetry()->metrics.counter("control.decisions").value(),
            summary.control_adjustments);
  EXPECT_NEAR(crimes.telemetry()->metrics.gauge("control.interval_ms").value(),
              to_ms(crimes.current_interval()), 1e-9);
}

TEST(ControlPlane, DisabledControlIsZeroCost) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(20));
  config.record_execution = false;  // control off (the default)
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 512;
  profile.duration_ms = 500.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(600));

  EXPECT_EQ(crimes.control_plane(), nullptr);
  EXPECT_EQ(summary.total_costs.control.count(), 0);
  EXPECT_EQ(summary.control_cycles, 0u);
  EXPECT_EQ(summary.control_adjustments, 0u);
  EXPECT_EQ(summary.control_full_sweeps, 0u);
}

TEST(ControlPlane, CloudHostExposesPerTenantTargetsAndKnobs) {
  CloudHost host;
  for (const char* name : {"tenant-a", "tenant-b"}) {
    TenantPolicy policy;
    policy.name = name;
    policy.guest = TestGuest::small_config();
    policy.crimes.checkpoint = CheckpointConfig::full(millis(20));
    policy.crimes.record_execution = false;
    policy.crimes.control.enabled = true;
    policy.crimes.control.target_overhead = 0.02;
    policy.crimes.slo.budget.pause_ms = name[7] == 'a' ? 4.0 : 12.0;
    host.admit(policy);
  }
  std::vector<std::unique_ptr<ParsecWorkload>> apps;
  for (const char* name : {"tenant-a", "tenant-b"}) {
    Tenant& t = host.tenant(name);
    ParsecProfile profile = ParsecProfile::by_name("raytrace");
    profile.working_set_pages = 512;
    profile.duration_ms = 1500.0;
    apps.push_back(
        std::make_unique<ParsecWorkload>(t.kernel(), profile));
    t.set_workload(apps.back().get());
  }
  host.initialize_all();
  (void)host.run(millis(1000));

  const auto reports = host.control_reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].tenant, "tenant-a");
  EXPECT_NEAR(reports[0].targets.pause_ms, 4.0, 1e-9);
  EXPECT_NEAR(reports[1].targets.pause_ms, 12.0, 1e-9);
  EXPECT_GT(reports[0].cycles, 0u);

  const std::string table = host.control_table();
  EXPECT_NE(table.find("tenant-a"), std::string::npos);
  EXPECT_NE(table.find("tenant-b"), std::string::npos);
}

}  // namespace
}  // namespace crimes
