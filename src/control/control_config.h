// Configuration, input record, and decision record for the closed-loop
// control plane (ROADMAP item 5). Kept dependency-light (only the clock
// types) so CrimesConfig can embed a ControlConfig without pulling the
// controller implementation into every translation unit.
#pragma once

#include "common/sim_clock.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace crimes::control {

// The four actuators the controller owns. Everything it changes at
// runtime goes through one of these, so the decision log is a complete
// audit trail of why the system's configuration drifted from the static
// CrimesConfig it booted with.
enum class Knob : std::uint8_t {
  EpochInterval,      // checkpoint cadence
  ScanSchedule,       // full conservative sweep cadence (ScanPlanner bypass)
  ReplicationWindow,  // replication in-flight window (backpressure bound)
  GcBudget,           // store GC generations retired per epoch
};

[[nodiscard]] const char* to_string(Knob knob);

inline constexpr std::size_t kKnobCount = 4;

struct ControlConfig {
  bool enabled = false;

  // Epochs between control cycles. Inputs are recorded every epoch; the
  // policies only run (and knobs only move) once per cycle.
  std::size_t cycle_every = 4;

  // Epochs of telemetry the windowed pause percentiles look back over
  // (passed to TimeSeriesEngine window queries).
  std::size_t window = 16;

  // Hysteresis shared by every policy: relative errors inside the
  // deadband are ignored; after a move a knob rests for settle_cycles
  // control cycles; no single move changes a knob by more than a factor
  // of max_step. EWMA smoothing applied to the pause signal before the
  // interval policy sees it (weight of the newest sample; 1 = no memory).
  double deadband = 0.15;
  std::size_t settle_cycles = 2;
  double max_step = 1.3;
  double smoothing = 0.5;

  // Replayable input ring + decision log bounds.
  std::size_t history_capacity = 512;
  std::size_t decision_capacity = 256;

  // --- Epoch-interval policy (gradient toward pause/target_overhead,
  //     guarded by the pause-p95 and vulnerability-window budgets) ---
  bool manage_interval = true;
  Nanos min_interval = millis(20);
  Nanos max_interval = millis(400);
  double target_overhead = 0.05;

  // --- Scan-schedule policy: every Nth audit runs without a ScanPlan
  //     (a full conservative sweep). 0 = never; smaller = deeper
  //     coverage. The controller engages sweeps only with SLO headroom.
  bool manage_scan = true;
  std::size_t min_full_sweep_every = 8;
  std::size_t max_full_sweep_every = 64;

  // --- Replication in-flight window policy (AIMD) ---
  bool manage_window = true;
  std::size_t min_window = 1;
  std::size_t max_window = 16;

  // --- Store GC budget policy (AIMD against the reclaimable backlog) ---
  bool manage_gc = true;
  std::size_t min_gc_budget = 1;
  std::size_t max_gc_budget = 16;
};

// One epoch's worth of sensor readings, recorded before the cycle runs.
// Decisions are a pure function of the recorded stream (plus the config,
// cost model, and targets), which is what makes replay() exact.
struct ControlInputs {
  std::uint64_t epoch = 0;
  double interval_ms = 0.0;       // interval the epoch actually used
  double pause_ms = 0.0;          // this epoch's pause_total
  double pause_p95_ms = 0.0;      // windowed, from the TimeSeriesEngine
  double pause_p99_ms = 0.0;
  double audit_ms = 0.0;          // this epoch's VMI share
  double vulnerability_ms = 0.0;  // 0 under Synchronous output commit
  double replication_lag = 0.0;   // in-flight generations (replication.lag)
  double replication_stall_ms = 0.0;  // backpressure stall charged this epoch
  double dirty_pages = 0.0;
  double store_backlog = 0.0;  // generations GC could retire right now
  std::uint8_t governor = 0;   // 0 Normal / 1 Degraded / 2 Frozen
  std::uint8_t slo = 0;        // SloState as int (0 Healthy / 1 Warn / 2 Crit)
};

// One knob movement. `reason` always points at a string literal inside
// the controller, so decisions are trivially copyable and comparable and
// the hot path never allocates for them.
struct ControlDecision {
  std::uint64_t epoch = 0;
  Knob knob = Knob::EpochInterval;
  double from = 0.0;
  double to = 0.0;
  // Cost-model prediction of the knob's effect at the new value. Units
  // depend on the knob: per-epoch pause ms (EpochInterval), amortized
  // added audit ms per epoch (ScanSchedule), stall ms per epoch expected
  // to be saved or incurred (ReplicationWindow), worst-case GC ms per
  // epoch at the new budget (GcBudget).
  double predicted_ms = 0.0;
  const char* reason = "";
};

[[nodiscard]] inline bool operator==(const ControlDecision& a,
                                     const ControlDecision& b) {
  return a.epoch == b.epoch && a.knob == b.knob && a.from == b.from &&
         a.to == b.to && a.predicted_ms == b.predicted_ms &&
         // Reasons are literals but compare by content so replayed
         // streams from a second ControlPlane instance still match.
         ((a.reason == b.reason) ||
          (a.reason && b.reason &&
           std::char_traits<char>::compare(
               a.reason, b.reason,
               std::char_traits<char>::length(a.reason) + 1) == 0));
}

}  // namespace crimes::control
