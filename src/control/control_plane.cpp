#include "control/control_plane.h"

#include "telemetry/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace crimes::control {

namespace {

constexpr std::size_t idx(Knob knob) { return static_cast<std::size_t>(knob); }

// Two knob positions closer than this (relatively) are the same position;
// keeps a clamped proposal from emitting a no-op decision.
constexpr double kSamePosition = 1e-9;

bool same(double a, double b) {
  return std::abs(a - b) <= kSamePosition * std::max(std::abs(a), 1.0);
}

}  // namespace

const char* to_string(Knob knob) {
  switch (knob) {
    case Knob::EpochInterval: return "epoch_interval";
    case Knob::ScanSchedule: return "scan_schedule";
    case Knob::ReplicationWindow: return "replication_window";
    case Knob::GcBudget: return "gc_budget";
  }
  return "unknown";
}

ControlPlane::ControlPlane(ControlConfig config, const CostModel& costs,
                           telemetry::SloBudget targets,
                           Nanos initial_interval, std::size_t initial_window,
                           std::size_t initial_gc_budget)
    : config_(config),
      costs_(&costs),
      targets_(targets),
      interval_(initial_interval),
      window_(initial_window),
      gc_budget_(initial_gc_budget),
      has_window_(initial_window > 0),
      has_gc_(initial_gc_budget > 0) {
  if (config_.cycle_every == 0) config_.cycle_every = 1;
  if (config_.max_step < 1.0) config_.max_step = 1.0 / config_.max_step;
  interval_ = std::clamp(interval_, config_.min_interval,
                         config_.max_interval);
  if (has_window_) {
    window_ = std::clamp(window_, config_.min_window, config_.max_window);
  }
  if (has_gc_) {
    gc_budget_ =
        std::clamp(gc_budget_, config_.min_gc_budget, config_.max_gc_budget);
  }
  // Pre-size the rings so the per-epoch path never allocates after
  // construction (the disabled path allocates nothing at all -- Crimes
  // simply never builds a ControlPlane).
  inputs_.reserve(config_.history_capacity);
  decisions_.reserve(config_.decision_capacity);
}

void ControlPlane::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (!telemetry_) {
    metrics_ = {};
    return;
  }
  auto& m = telemetry_->metrics;
  metrics_.interval_ms = &m.gauge("control.interval_ms");
  metrics_.full_sweep = &m.gauge("control.full_sweep_every");
  metrics_.window = &m.gauge("control.window");
  metrics_.gc_budget = &m.gauge("control.gc_budget");
  metrics_.decisions = &m.counter("control.decisions");
  metrics_.holds = &m.counter("control.holds");
  metrics_.cycles = &m.counter("control.cycles");
  publish();
}

ControlPlane::CycleResult ControlPlane::observe(const ControlInputs& in) {
  CycleResult result;
  ++epochs_seen_;

  // Smooth the noisy per-epoch signals before any policy sees them.
  if (epochs_seen_ == 1) {
    smoothed_pause_ms_ = in.pause_ms;
    stall_ewma_ms_ = in.replication_stall_ms;
  } else {
    const double a = config_.smoothing;
    smoothed_pause_ms_ = a * in.pause_ms + (1.0 - a) * smoothed_pause_ms_;
    stall_ewma_ms_ =
        a * in.replication_stall_ms + (1.0 - a) * stall_ewma_ms_;
  }

  // Record the input (replay fuel) before deciding anything.
  if (config_.history_capacity > 0) {
    if (inputs_.size() < config_.history_capacity) {
      inputs_.push_back(in);
    } else {
      inputs_[input_next_] = in;
      input_next_ = (input_next_ + 1) % inputs_.size();
      input_wrapped_ = true;
    }
  }

  if (epochs_seen_ % config_.cycle_every == 0) {
    result.cycle_ran = true;
    run_cycle(in, result);
  }
  return result;
}

void ControlPlane::run_cycle(const ControlInputs& in, CycleResult& result) {
  ++cycles_;
  if (metrics_.cycles) metrics_.cycles->add();

  // Governor precedence: anything but Normal preempts the controller.
  // The governor is already steering (Degraded) or has frozen the VM;
  // moving knobs under it would fight the safety machinery.
  if (in.governor != 0) {
    ++holds_;
    result.held = true;
    if (metrics_.holds) metrics_.holds->add();
    publish();
    return;
  }

  // Knobs rest for settle_cycles evaluated cycles after a move; held
  // cycles do not age the rest counters.
  for (auto& rest : settle_) {
    if (rest > 0) --rest;
  }

  policy_interval(in, result);
  policy_scan(in, result);
  policy_window(in, result);
  policy_gc(in, result);
  publish();
}

void ControlPlane::decide(const ControlInputs& in, Knob knob, double from,
                          double to, double predicted_ms, const char* reason,
                          CycleResult& result) {
  if (decisions_.size() >= config_.decision_capacity &&
      !decisions_.empty()) {
    decisions_.erase(decisions_.begin());
  }
  decisions_.push_back(
      ControlDecision{in.epoch, knob, from, to, predicted_ms, reason});
  ++adjustments_;
  ++result.decisions;
  settle_[idx(knob)] = config_.settle_cycles;
  if (metrics_.decisions) metrics_.decisions->add();
}

// First-order pause prediction at a new interval: dirty pages scale with
// the interval (rate * T -- ignoring working-set saturation), the
// suspend/resume bases and the audit share stay fixed, and everything
// else scales with the dirty count.
double ControlPlane::predicted_pause_ms(const ControlInputs& in,
                                        double new_interval_ms) const {
  const double dirty = std::max(in.dirty_pages, 1.0);
  const double rate = dirty / std::max(in.interval_ms, 1e-9);
  const double dirty_new = rate * new_interval_ms;
  const double fixed =
      to_ms(costs_->suspend_base + costs_->resume_base) + in.audit_ms;
  const double variable = std::max(0.0, in.pause_ms - fixed);
  return fixed + variable * (dirty_new / dirty);
}

void ControlPlane::policy_interval(const ControlInputs& in,
                                   CycleResult& result) {
  if (!config_.manage_interval) return;
  if (settle_[idx(Knob::EpochInterval)] > 0) return;

  const double cur = to_ms(interval_);
  const double lo = to_ms(config_.min_interval);
  const double hi = to_ms(config_.max_interval);
  double proposal = cur;
  const char* reason = nullptr;

  if (in.pause_p95_ms > targets_.pause_ms && targets_.pause_ms > 0) {
    // Tail over budget: multiplicative decrease (smaller epochs dirty
    // fewer pages, shrinking every dirty-proportional pause phase).
    proposal = cur / config_.max_step;
    reason = "pause-p95-over-budget";
  } else if (targets_.vulnerability_ms > 0 &&
             in.vulnerability_ms > targets_.vulnerability_ms) {
    // Best-effort exposure window too wide: the window is roughly
    // interval + pause, so the interval is the lever.
    proposal = cur / config_.max_step;
    reason = "vulnerability-over-budget";
  } else if (cur > 0) {
    // Gradient toward the overhead-ideal interval, where
    // pause/interval == target_overhead.
    const double ideal = smoothed_pause_ms_ / config_.target_overhead;
    const double err = (ideal - cur) / cur;
    if (std::abs(err) > config_.deadband) {
      const double step = std::clamp(ideal / cur, 1.0 / config_.max_step,
                                     config_.max_step);
      proposal = cur * step;
      reason = err > 0 ? "overhead-under-target" : "overhead-over-target";
    }
  }

  if (!reason) return;
  proposal = std::clamp(proposal, lo, hi);
  if (same(proposal, cur)) return;  // clamped into a no-op

  decide(in, Knob::EpochInterval, cur, proposal,
         predicted_pause_ms(in, proposal), reason, result);
  interval_ = Nanos(static_cast<std::int64_t>(std::llround(proposal * 1e6)));
}

void ControlPlane::policy_scan(const ControlInputs& in, CycleResult& result) {
  if (!config_.manage_scan) return;
  if (settle_[idx(Knob::ScanSchedule)] > 0) return;

  const std::size_t cur = full_every_;
  std::size_t proposal = cur;
  const char* reason = nullptr;

  const bool pressure =
      (targets_.audit_ms > 0 && in.audit_ms > targets_.audit_ms) ||
      (targets_.pause_ms > 0 && in.pause_p95_ms > targets_.pause_ms);
  if (pressure && cur != 0) {
    // Audit or pause pressure: halve sweep frequency; past the cadence
    // ceiling, stop bypassing the planner entirely.
    proposal = cur * 2 > config_.max_full_sweep_every ? 0 : cur * 2;
    reason = "audit-pressure-back-off";
  } else if (!pressure && in.slo == 0 &&
             in.pause_p95_ms < 0.5 * targets_.pause_ms) {
    // Healthy with tail headroom: spend some of it on coverage. Engage
    // sweeps at the sparsest cadence, then deepen toward the floor.
    if (cur == 0) {
      proposal = config_.max_full_sweep_every;
      reason = "headroom-engage-sweeps";
    } else if (cur > config_.min_full_sweep_every) {
      proposal = std::max(config_.min_full_sweep_every, cur / 2);
      reason = "headroom-deepen-coverage";
    }
  }

  if (!reason || proposal == cur) return;
  // A full sweep re-audits the whole working set: charge roughly one
  // extra audit per sweep, amortized over the cadence.
  const double predicted =
      proposal == 0 ? 0.0 : in.audit_ms / static_cast<double>(proposal);
  decide(in, Knob::ScanSchedule, static_cast<double>(cur),
         static_cast<double>(proposal), predicted, reason, result);
  full_every_ = proposal;
}

void ControlPlane::policy_window(const ControlInputs& in,
                                 CycleResult& result) {
  if (!config_.manage_window || !has_window_) return;
  if (settle_[idx(Knob::ReplicationWindow)] > 0) return;

  const std::size_t cur = window_;
  std::size_t proposal = cur;
  const char* reason = nullptr;
  double predicted = 0.0;

  if (in.replication_lag > targets_.replication_lag &&
      targets_.replication_lag > 0) {
    // Standby falling behind: multiplicative decrease (classic AIMD MD)
    // trades producer stall for a tighter failover data-loss bound.
    proposal = std::max(config_.min_window, cur / 2);
    reason = "replication-lag-over-budget";
    // The stall we expect to keep paying per epoch at the tighter bound.
    predicted = stall_ewma_ms_ + to_ms(costs_->replication_frame);
  } else if (stall_ewma_ms_ > 0.01 &&
             in.replication_lag <= 0.5 * targets_.replication_lag) {
    // Producer stalling on backpressure with lag headroom: additive
    // increase claws the stall back one slot at a time.
    proposal = std::min(config_.max_window, cur + 1);
    reason = "backpressure-stall-widen";
    predicted = stall_ewma_ms_;  // stall per epoch expected to be saved
  }

  if (!reason || proposal == cur) return;
  decide(in, Knob::ReplicationWindow, static_cast<double>(cur),
         static_cast<double>(proposal), predicted, reason, result);
  window_ = proposal;
}

void ControlPlane::policy_gc(const ControlInputs& in, CycleResult& result) {
  if (!config_.manage_gc || !has_gc_) return;
  if (settle_[idx(Knob::GcBudget)] > 0) return;

  const std::size_t cur = gc_budget_;
  std::size_t proposal = cur;
  const char* reason = nullptr;

  if (in.store_backlog > static_cast<double>(cur)) {
    // Reclaimable generations outpacing the budget: double it before
    // the backlog's manifest-merge debt compounds.
    proposal = std::min(config_.max_gc_budget, cur * 2);
    reason = "gc-backlog-growing";
  } else if (in.store_backlog == 0.0 && cur > config_.min_gc_budget) {
    // Nothing reclaimable: decay the budget back toward the floor so an
    // idle store is not charged for GC headroom it does not use.
    proposal = std::max(config_.min_gc_budget, cur / 2);
    reason = "gc-idle-decay";
  }

  if (!reason || proposal == cur) return;
  // Worst-case GC charge per epoch at the new budget, assuming each
  // retired generation merges about one epoch's worth of dirty entries.
  const double predicted = to_ms(costs_->store_gc_per_page) *
                           std::max(in.dirty_pages, 1.0) *
                           static_cast<double>(proposal);
  decide(in, Knob::GcBudget, static_cast<double>(cur),
         static_cast<double>(proposal), predicted, reason, result);
  gc_budget_ = proposal;
}

void ControlPlane::publish() {
  if (!telemetry_) return;
  if (metrics_.interval_ms) metrics_.interval_ms->set(to_ms(interval_));
  if (metrics_.full_sweep) {
    metrics_.full_sweep->set(static_cast<double>(full_every_));
  }
  if (metrics_.window) metrics_.window->set(static_cast<double>(window_));
  if (metrics_.gc_budget) {
    metrics_.gc_budget->set(static_cast<double>(gc_budget_));
  }
}

std::vector<ControlInputs> ControlPlane::history() const {
  if (!input_wrapped_) return inputs_;
  std::vector<ControlInputs> out;
  out.reserve(inputs_.size());
  out.insert(out.end(), inputs_.begin() + static_cast<long>(input_next_),
             inputs_.end());
  out.insert(out.end(), inputs_.begin(),
             inputs_.begin() + static_cast<long>(input_next_));
  return out;
}

ControlReport ControlPlane::report(std::string tenant) const {
  ControlReport r;
  r.tenant = std::move(tenant);
  r.enabled = config_.enabled;
  r.targets = targets_;
  r.interval_ms = to_ms(interval_);
  r.full_sweep_every = full_every_;
  r.replication_window = window_;
  r.gc_budget = gc_budget_;
  r.cycles = cycles_;
  r.adjustments = adjustments_;
  r.holds = holds_;
  return r;
}

std::vector<ControlDecision> ControlPlane::replay(
    const ControlConfig& config, const CostModel& costs,
    telemetry::SloBudget targets, Nanos initial_interval,
    std::size_t initial_window, std::size_t initial_gc_budget,
    std::span<const ControlInputs> inputs) {
  ControlPlane plane(config, costs, targets, initial_interval,
                     initial_window, initial_gc_budget);
  for (const ControlInputs& in : inputs) (void)plane.observe(in);
  return std::move(plane.decisions_);
}

std::string format_control_table(std::span<const ControlReport> reports) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-16s %9s %6s %6s %4s  %7s %7s %6s %6s  %9s\n", "tenant",
                "intvl-ms", "sweep", "window", "gc", "cycles", "moves",
                "holds", "pause", "vuln-ms");
  out += line;
  out += std::string(92, '-') + "\n";
  for (const ControlReport& r : reports) {
    std::snprintf(line, sizeof(line),
                  "%-16s %9.1f %6zu %6zu %4zu  %7zu %7zu %6zu %6.1f  %9.1f\n",
                  r.tenant.empty() ? "-" : r.tenant.c_str(), r.interval_ms,
                  r.full_sweep_every, r.replication_window, r.gc_budget,
                  r.cycles, r.adjustments, r.holds, r.targets.pause_ms,
                  r.targets.vulnerability_ms);
    out += line;
  }
  return out;
}

}  // namespace crimes::control
