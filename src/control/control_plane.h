// Closed-loop control plane (ROADMAP item 5, DESIGN.md section 14).
//
// One ControlPlane per Crimes instance closes the loop from live
// telemetry (windowed pause percentiles, replication.lag, the
// vulnerability window, store gauges) back into the four actuators that
// used to be tuned by hand: epoch length, the scan schedule, the
// replication in-flight window, and the store GC budget.
//
// Invariants the tests pin down:
//  * Decisions are a pure function of (config, cost model, targets,
//    initial knob values, recorded input stream) -- replay() re-derives
//    the exact decision stream from the input history.
//  * Every policy is hysteretic: a relative-error deadband, a
//    settle-cycles rest after each move, and a max_step multiplicative
//    bound per move, with hard per-knob clamps at both ends.
//  * The SafetyGovernor always wins: while it reports anything but
//    Normal, the controller holds (no knob moves, holds() counts up).
#pragma once

#include "common/cost_model.h"
#include "control/control_config.h"
#include "telemetry/slo.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace crimes::telemetry {
struct Telemetry;
class Gauge;
class Counter;
}  // namespace crimes::telemetry

namespace crimes::control {

// Trace lane for control_decide spans -- must stay distinct from the
// pipeline (0), the CoW drain (1), parallel-audit module lanes, and the
// flight recorder's postmortem lane (15). check_trace.py enforces this.
inline constexpr std::uint32_t kControlPlaneLane = 14;

// Per-tenant snapshot for CloudHost::control_table(): current knob
// positions, the SLO targets the policies steer against, and loop stats.
struct ControlReport {
  std::string tenant;
  bool enabled = false;
  telemetry::SloBudget targets;
  double interval_ms = 0.0;
  std::size_t full_sweep_every = 0;  // 0 = planner never bypassed
  std::size_t replication_window = 0;
  std::size_t gc_budget = 0;
  std::size_t cycles = 0;
  std::size_t adjustments = 0;
  std::size_t holds = 0;
};

[[nodiscard]] std::string format_control_table(
    std::span<const ControlReport> reports);

class ControlPlane {
 public:
  // `targets` are the tenant's SLO budgets (the same ones the SloMonitor
  // burns against); the initial knob values come from the static config
  // the instance booted with. A zero initial window / gc budget marks
  // that actuator as absent (its policy is disabled regardless of the
  // manage_* flag).
  ControlPlane(ControlConfig config, const CostModel& costs,
               telemetry::SloBudget targets, Nanos initial_interval,
               std::size_t initial_window, std::size_t initial_gc_budget);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  struct CycleResult {
    bool cycle_ran = false;      // a control cycle fired this epoch
    bool held = false;           // ...but the governor preempted it
    std::size_t decisions = 0;   // knob moves appended this epoch
  };

  // Feed one epoch of sensor readings. Records the input (replay fuel),
  // and every cycle_every epochs runs the policies. New decisions are
  // the trailing `decisions` entries of decisions().
  CycleResult observe(const ControlInputs& in);

  // Current actuator positions.
  [[nodiscard]] Nanos interval() const { return interval_; }
  [[nodiscard]] std::size_t full_sweep_every() const { return full_every_; }
  [[nodiscard]] std::size_t replication_window() const { return window_; }
  [[nodiscard]] std::size_t gc_budget() const { return gc_budget_; }

  [[nodiscard]] std::size_t cycles() const { return cycles_; }
  [[nodiscard]] std::size_t adjustments() const { return adjustments_; }
  [[nodiscard]] std::size_t holds() const { return holds_; }

  // Bounded decision log (oldest dropped once decision_capacity is
  // exceeded) and total decisions ever made (for log-drop accounting).
  [[nodiscard]] const std::vector<ControlDecision>& decisions() const {
    return decisions_;
  }

  // Input history, oldest first (at most history_capacity entries).
  [[nodiscard]] std::vector<ControlInputs> history() const;

  [[nodiscard]] ControlReport report(std::string tenant) const;

  // Publishes control.* gauges/counters after each cycle. Safe to leave
  // null (no telemetry -> no publication, no allocation).
  void set_telemetry(telemetry::Telemetry* telemetry);

  // Re-derives the decision stream a ControlPlane with these parameters
  // would have produced over `inputs`. Mirrors SloMonitor::replay: used
  // by the bench's replay-equality self-check and the determinism tests.
  [[nodiscard]] static std::vector<ControlDecision> replay(
      const ControlConfig& config, const CostModel& costs,
      telemetry::SloBudget targets, Nanos initial_interval,
      std::size_t initial_window, std::size_t initial_gc_budget,
      std::span<const ControlInputs> inputs);

 private:
  void run_cycle(const ControlInputs& in, CycleResult& result);
  void decide(const ControlInputs& in, Knob knob, double from, double to,
              double predicted_ms, const char* reason, CycleResult& result);
  void policy_interval(const ControlInputs& in, CycleResult& result);
  void policy_scan(const ControlInputs& in, CycleResult& result);
  void policy_window(const ControlInputs& in, CycleResult& result);
  void policy_gc(const ControlInputs& in, CycleResult& result);
  void publish();
  [[nodiscard]] double predicted_pause_ms(const ControlInputs& in,
                                          double new_interval_ms) const;

  ControlConfig config_;
  const CostModel* costs_;
  telemetry::SloBudget targets_;

  // Actuator positions.
  Nanos interval_;
  std::size_t full_every_ = 0;
  std::size_t window_ = 0;
  std::size_t gc_budget_ = 0;
  bool has_window_ = false;
  bool has_gc_ = false;

  // Hysteresis state.
  double smoothed_pause_ms_ = 0.0;
  double stall_ewma_ms_ = 0.0;
  std::size_t settle_[kKnobCount] = {0, 0, 0, 0};

  // Loop accounting.
  std::uint64_t epochs_seen_ = 0;
  std::size_t cycles_ = 0;
  std::size_t holds_ = 0;
  std::size_t adjustments_ = 0;

  // Replay fuel: input ring, oldest overwritten.
  std::vector<ControlInputs> inputs_;
  std::size_t input_next_ = 0;
  bool input_wrapped_ = false;

  std::vector<ControlDecision> decisions_;

  // Resolved metric handles (null when telemetry is off).
  telemetry::Telemetry* telemetry_ = nullptr;
  struct Metrics {
    telemetry::Gauge* interval_ms = nullptr;
    telemetry::Gauge* full_sweep = nullptr;
    telemetry::Gauge* window = nullptr;
    telemetry::Gauge* gc_budget = nullptr;
    telemetry::Counter* decisions = nullptr;
    telemetry::Counter* holds = nullptr;
    telemetry::Counter* cycles = nullptr;
  } metrics_;
};

}  // namespace crimes::control
