// Control-plane ablation: does closing the loop beat every static knob
// setting an operator could have picked?
//
// Leg 1 (diurnal): a sine-modulated workload whose dirty rate swings ~6x
// over a 3 s "day". A static epoch interval must be provisioned for one
// phase of the cycle and eats the cost in the other; the controller
// re-tunes as the telemetry moves. The controller run must Pareto-
// dominate or match-within-noise (eps = 2%) EVERY member of a static
// interval grid on (pause p95, mean vulnerability window, overhead over
// native) -- if any static row beats it on all three axes at once, the
// closed loop lost to an open one and the bench fails.
//
// Leg 2 (storm): the same comparison under a mid-run transport-fault
// storm with replication on, where the controller additionally manages
// the in-flight window against replication lag.
//
// Self-checks (all gate the exit code):
//   - same-seed determinism: two identical controller runs produce the
//     same epoch count, total pause, and decision stream, element for
//     element;
//   - replay equality: ControlPlane::replay over the recorded input
//     history re-derives the live decision stream exactly (decisions are
//     evidence, not heuristics -- DESIGN.md section 14);
//   - loop overhead: with every knob pinned (min == max), the enabled
//     loop adds <1% mean pause versus control off -- the observe/decide
//     cost is real but negligible;
//   - zero cost disabled: a control-off run charges nothing to
//     PhaseCosts::control and runs no cycles.
#include "bench_util.h"
#include "control/control_plane.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

using namespace crimes;
using namespace crimes::bench;

constexpr double kWorkMs = 12000.0;
constexpr std::size_t kWorkingSetPages = 6000;
constexpr double kEps = 0.02;  // match-within-noise band for domination

// A guest program with a diurnal load pattern: page-touch rate follows a
// sine around `base_rate` with period `period_ms`, so dirty-pages-per-
// epoch swings between quiet-night and busy-day phases. Same uniform
// touch model as ParsecWorkload (whose internals are private), minus the
// heap churn it uses to feed canary scans.
class DiurnalWorkload final : public Workload {
 public:
  DiurnalWorkload(GuestKernel& kernel, double base_rate, double amplitude,
                  double period_ms, std::uint64_t seed = 42)
      : kernel_(&kernel),
        base_rate_(base_rate),
        amplitude_(amplitude),
        period_ms_(period_ms),
        rng_(seed) {
    buffer_ = kernel_->heap().malloc(kWorkingSetPages * kPageSize -
                                     2 * kCanaryBytes);
  }

  [[nodiscard]] std::string name() const override { return "diurnal"; }

  void run_epoch(Nanos start, Nanos duration) override {
    const double phase = 2.0 * M_PI * to_ms(start) / period_ms_;
    const double rate = base_rate_ * (1.0 + amplitude_ * std::sin(phase));
    const double exact = rate * to_ms(duration) + carry_;
    const auto touches = static_cast<std::uint64_t>(exact);
    carry_ = exact - static_cast<double>(touches);

    const std::size_t usable =
        kWorkingSetPages * kPageSize - 2 * kCanaryBytes - 8;
    for (std::uint64_t i = 0; i < touches; ++i) {
      const std::uint64_t page = rng_.next_below(kWorkingSetPages);
      std::uint64_t off =
          page * kPageSize + rng_.next_below(kPageSize / 8) * 8;
      if (off > usable) off = usable;
      kernel_->write_value<std::uint64_t>(buffer_ + off, rng_.next_u64());
    }
    elapsed_ += duration;
    kernel_->tick(static_cast<std::uint64_t>(duration.count()));
  }

  [[nodiscard]] bool finished() const override {
    return to_ms(elapsed_) >= kWorkMs * 2;
  }

 private:
  GuestKernel* kernel_;
  double base_rate_;
  double amplitude_;
  double period_ms_;
  Rng rng_;
  Vaddr buffer_;
  Nanos elapsed_{0};
  double carry_ = 0.0;
};

struct LegResult {
  RunSummary summary;
  double p95_ms = 0.0;
  double vuln_ms = 0.0;   // mean vulnerability window per epoch
  // Throughput cost as overhead over native (normalized_runtime - 1):
  // comparing full runtimes would dilute the checkpointing cost with the
  // work time both configs get for free.
  double overhead = 0.0;
  std::vector<control::ControlDecision> decisions;
  std::vector<control::ControlInputs> history;
};

CrimesConfig leg_config(Nanos interval, bool controller, bool storm) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(interval);
  config.mode = SafetyMode::BestEffort;
  config.record_execution = false;
  config.slo.budget.pause_ms = 8.0;
  config.slo.budget.vulnerability_ms = 150.0;
  if (storm) {
    config.checkpoint.store.enabled = true;
    config.checkpoint.store.journal = true;
    config.replication.enabled = true;
    config.replication.heartbeat.interval = millis(100);
    config.faults = fault::FaultPlan::transport_storm(0.05, 10, 60, 7);
  }
  if (controller) {
    config.control.enabled = true;
    config.control.min_interval = millis(20);
    config.control.max_interval = millis(300);
    config.control.target_overhead = 0.05;
    config.control.history_capacity = 4096;  // keep the whole run replayable
    config.control.decision_capacity = 4096;
  }
  return config;
}

LegResult run_leg(const CrimesConfig& config) {
  Hypervisor hypervisor(1u << 21);
  GuestConfig gc;
  gc.page_count = kWorkingSetPages + 4096;
  Vm& vm = hypervisor.create_domain("diurnal", gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();

  Crimes crimes(hypervisor, kernel, config);
  DiurnalWorkload app(kernel, /*base_rate=*/30.0, /*amplitude=*/0.8,
                      /*period_ms=*/3000.0);
  crimes.set_workload(&app);
  crimes.initialize();

  LegResult leg;
  leg.summary = crimes.run(millis(kWorkMs));
  leg.p95_ms = leg.summary.p95_pause_ms();
  leg.overhead = leg.summary.normalized_runtime() - 1.0;
  // Mean vulnerability window (BestEffort): lost-on-attack time per epoch
  // = interval actually run + the pause behind it. Averaging over the run
  // charges the controller for every interval it chose.
  leg.vuln_ms = leg.summary.epochs == 0
                    ? 0.0
                    : to_ms(leg.summary.work_time + leg.summary.total_pause) /
                          static_cast<double>(leg.summary.epochs);
  if (const control::ControlPlane* plane = crimes.control_plane()) {
    leg.decisions = plane->decisions();
    leg.history = plane->history();
  }
  return leg;
}

// True when `candidate` beats `ctrl` on every axis at once (all at least
// matching within eps, at least one strictly better beyond eps). Lower is
// better on all three axes.
bool dominates(const LegResult& candidate, const LegResult& ctrl) {
  const double c[3] = {candidate.p95_ms, candidate.vuln_ms,
                       candidate.overhead};
  const double x[3] = {ctrl.p95_ms, ctrl.vuln_ms, ctrl.overhead};
  bool all_leq = true, any_strict = false;
  for (int i = 0; i < 3; ++i) {
    if (c[i] > x[i] * (1.0 + kEps)) all_leq = false;
    if (c[i] < x[i] * (1.0 - kEps)) any_strict = true;
  }
  return all_leq && any_strict;
}

void print_row(const char* label, const LegResult& leg) {
  std::printf("%-12s %6zu %9.3f %9.3f %9.1f %8.2f%% %5zu %6zu\n", label,
              leg.summary.epochs, leg.summary.avg_pause_ms(), leg.p95_ms,
              leg.vuln_ms, 100.0 * leg.overhead, leg.summary.control_adjustments,
              leg.summary.control_holds);
}

// One scenario: controller vs the static grid, with the domination check.
bool run_scenario(const char* title, bool storm, LegResult& ctrl_out) {
  print_header(title);
  std::printf("%-12s %6s %9s %9s %9s %9s %6s %6s\n", "config", "epochs",
              "avg_ms", "p95_ms", "vuln_ms", "ovh%", "moves", "holds");

  const LegResult ctrl = run_leg(leg_config(millis(100), true, storm));
  print_row("controller", ctrl);

  bool never_dominated = true;
  for (const int interval_ms : {40, 80, 120, 200}) {
    const LegResult fixed =
        run_leg(leg_config(millis(interval_ms), false, storm));
    char label[32];
    std::snprintf(label, sizeof label, "static-%d", interval_ms);
    print_row(label, fixed);
    if (dominates(fixed, ctrl)) {
      std::printf("  ^ dominates the controller on all three axes\n");
      never_dominated = false;
    }
  }
  std::printf("self-check no static interval dominates the controller "
              "(eps=%.0f%%): %s\n",
              kEps * 100.0, never_dominated ? "PASS" : "FAIL");
  ctrl_out = ctrl;
  return never_dominated;
}

// The diurnal controller leg again, telemetry exported for
// check_trace.py: every control_decide span must sit on its own lane,
// off the pipeline, the CoW drain track, and the postmortem lane.
int run_traced(const std::string& trace_out, const std::string& metrics_out) {
  Hypervisor hypervisor(1u << 21);
  GuestConfig gc;
  gc.page_count = kWorkingSetPages + 4096;
  Vm& vm = hypervisor.create_domain("diurnal", gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();

  CrimesConfig config = leg_config(millis(100), true, false);
  config.telemetry = true;
  Crimes crimes(hypervisor, kernel, config);
  DiurnalWorkload app(kernel, /*base_rate=*/30.0, /*amplitude=*/0.8,
                      /*period_ms=*/3000.0);
  crimes.set_workload(&app);
  crimes.initialize();
  crimes.telemetry()->set_export_paths(trace_out, metrics_out);
  (void)crimes.run(millis(kWorkMs));

  if (!crimes.telemetry()->flush_exports()) {
    std::fprintf(stderr, "failed to write telemetry exports\n");
    return 1;
  }
  std::printf("traced diurnal controller run written to %s\n",
              trace_out.c_str());
  return 0;
}

bool same_decisions(const std::vector<control::ControlDecision>& a,
                    const std::vector<control::ControlDecision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out, metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out <f.trace.json>] "
                   "[--metrics-out <f.jsonl>]\n",
                   argv[0]);
      return 2;
    }
  }
  // Trace export mode runs just the controller leg: the Pareto sweep has
  // its own ctest entry, and check_trace only needs the span layout.
  if (!trace_out.empty() || !metrics_out.empty()) {
    return run_traced(trace_out, metrics_out);
  }

  std::printf("CRIMES control-plane ablation: closed loop vs static knobs\n");

  LegResult diurnal_ctrl, storm_ctrl;
  const bool diurnal_ok =
      run_scenario("diurnal load, controller vs static grid", false,
                   diurnal_ctrl);
  const bool storm_ok =
      run_scenario("transport-fault storm with replication", true,
                   storm_ctrl);

  print_header("self-checks");

  // Same seed, same config => bitwise-identical control behaviour.
  const LegResult twin = run_leg(leg_config(millis(100), true, false));
  const bool deterministic =
      twin.summary == diurnal_ctrl.summary &&
      same_decisions(twin.decisions, diurnal_ctrl.decisions);
  std::printf("same-seed determinism (epochs, pause, decision stream): %s\n",
              deterministic ? "PASS" : "FAIL");

  // Replaying the recorded inputs re-derives the live decision stream.
  // Mirror what Crimes::initialize does to the config: the diurnal leg has
  // no replicator and no scan modules, so those policies were disabled and
  // their knobs absent.
  CrimesConfig diurnal_cfg = leg_config(millis(100), true, false);
  control::ControlConfig cc = diurnal_cfg.control;
  cc.manage_window = false;
  cc.manage_scan = false;
  const std::vector<control::ControlDecision> replayed =
      control::ControlPlane::replay(cc, CostModel::defaults(),
                                    diurnal_cfg.slo.budget,
                                    diurnal_cfg.checkpoint.epoch_interval, 0,
                                    0, diurnal_ctrl.history);
  const bool replay_ok =
      diurnal_ctrl.history.size() == diurnal_ctrl.summary.epochs &&
      !diurnal_ctrl.decisions.empty() &&
      same_decisions(replayed, diurnal_ctrl.decisions);
  std::printf("replay over recorded inputs reproduces live decisions: %s\n",
              replay_ok ? "PASS" : "FAIL");

  // Pinned knobs isolate the loop's own cost: it still observes, smooths
  // and cycles every epoch, but clamps forbid any movement.
  CrimesConfig pinned_cfg = leg_config(millis(100), true, false);
  pinned_cfg.control.min_interval = millis(100);
  pinned_cfg.control.max_interval = millis(100);
  pinned_cfg.control.manage_scan = false;
  pinned_cfg.control.manage_window = false;
  pinned_cfg.control.manage_gc = false;
  const LegResult pinned = run_leg(pinned_cfg);
  const LegResult off = run_leg(leg_config(millis(100), false, false));
  const double added = 100.0 *
                       (pinned.summary.avg_pause_ms() -
                        off.summary.avg_pause_ms()) /
                       off.summary.avg_pause_ms();
  std::printf("enabled-but-pinned loop adds %.3f%% mean pause (<1%%): %s\n",
              added, added < 1.0 ? "PASS" : "FAIL");
  const bool overhead_ok = added < 1.0;

  // Disabled = not constructed: nothing charged, nothing cycled.
  const bool zero_cost = off.summary.total_costs.control.count() == 0 &&
                         off.summary.control_cycles == 0 &&
                         off.summary.control_adjustments == 0;
  std::printf("control off charges zero cost and runs zero cycles: %s\n",
              zero_cost ? "PASS" : "FAIL");

  const bool pass = diurnal_ok && storm_ok && deterministic && replay_ok &&
                    overhead_ok && zero_cost;
  std::printf("\noverall: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
