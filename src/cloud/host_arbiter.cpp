#include "cloud/host_arbiter.h"

#include <algorithm>
#include <string>

namespace crimes {

const char* to_string(HostAction action) {
  switch (action) {
    case HostAction::StretchInterval: return "stretch-interval";
    case HostAction::RestoreInterval: return "restore-interval";
    case HostAction::Downgrade: return "downgrade";
    case HostAction::RestoreMode: return "restore-mode";
    case HostAction::PauseProtection: return "pause-protection";
    case HostAction::ResumeProtection: return "resume-protection";
    case HostAction::CapWindow: return "cap-window";
    case HostAction::UncapWindow: return "uncap-window";
    case HostAction::CapGcBudget: return "cap-gc-budget";
    case HostAction::UncapGcBudget: return "uncap-gc-budget";
  }
  return "?";
}

bool operator==(const HostDecision& a, const HostDecision& b) {
  return a.round == b.round && a.tenant == b.tenant &&
         a.action == b.action && a.from == b.from && a.to == b.to &&
         // Reasons are literals but compare by content so a replayed
         // stream from a second arbiter instance still matches.
         ((a.reason == b.reason) ||
          (a.reason && b.reason &&
           std::char_traits<char>::compare(
               a.reason, b.reason,
               std::char_traits<char>::length(a.reason) + 1) == 0));
}

namespace {

double pressure_of(double used, double limit) {
  return limit > 0.0 ? used / limit : 0.0;
}

double copy_pressure_of(const HostConfig& config, const HostInputs& in) {
  if (in.work_ms <= 0.0 || config.copy_overhead_limit <= 0.0) return 0.0;
  return (in.copy_ms / in.work_ms) / config.copy_overhead_limit;
}

}  // namespace

HostArbiter::HostArbiter(const HostConfig& config) : config_(config) {
  inputs_.reserve(config_.history_capacity);
}

double HostArbiter::contention_factor(const HostConfig& config,
                                      const HostInputs& in) {
  return std::max(1.0, copy_pressure_of(config, in));
}

std::size_t HostArbiter::observe(const HostInputs& in) {
  // Record the input first (replay fuel): the decision logic below must
  // see exactly what replay() will.
  if (config_.history_capacity > 0) {
    if (inputs_.size() < config_.history_capacity) {
      inputs_.push_back(in);
    } else {
      inputs_[input_next_] = in;
      input_wrapped_ = true;
    }
    input_next_ = (input_next_ + 1) % config_.history_capacity;
  }
  ++rounds_;
  if (shed_.size() < in.tenants.size()) shed_.resize(in.tenants.size());

  const double frame_pressure = pressure_of(in.frames_used, in.frame_limit);
  const double copy_pressure = copy_pressure_of(config_, in);
  const double transport_pressure =
      pressure_of(in.inflight, in.transport_slots);
  pressure_ =
      std::max({frame_pressure, copy_pressure, transport_pressure});

  std::size_t made = 0;
  if (pressure_ > config_.shed_enter) {
    calm_rounds_ = 0;
    escalate(in, made);
  } else if (pressure_ < config_.shed_exit) {
    ++calm_rounds_;
    if (calm_rounds_ >= config_.recover_after) {
      recover(in, made);
      calm_rounds_ = 0;
    }
  } else {
    // Hysteresis band: neither shed nor recover; the ladder holds.
    calm_rounds_ = 0;
  }
  if (config_.arbitrate) {
    arbitrate(in, transport_pressure, copy_pressure, made);
  }
  return made;
}

void HostArbiter::decide(std::uint64_t round, std::uint32_t tenant,
                         HostAction action, double from, double to,
                         const char* reason, std::size_t& made) {
  if (decisions_.size() >= config_.decision_capacity &&
      !decisions_.empty()) {
    decisions_.erase(decisions_.begin());
  }
  decisions_.push_back(HostDecision{round, tenant, action, from, to, reason});
  ++made;
}

void HostArbiter::escalate(const HostInputs& in, std::size_t& made) {
  // Victim: lowest declared priority first (Critical is exempt), then the
  // lowest current rung (spread degradation before deepening it), then
  // the heaviest copy contributor (biggest relief), then lowest index.
  std::size_t victim = in.tenants.size();
  for (std::size_t i = 0; i < in.tenants.size(); ++i) {
    const HostTenantSample& t = in.tenants[i];
    if (!t.live || t.governor != 0) continue;  // governor precedence
    if (t.priority >= static_cast<std::uint8_t>(TenantPriority::Critical)) {
      continue;  // Critical tenants are never shed
    }
    if (shed_[i].level >= 3) continue;
    if (victim == in.tenants.size()) {
      victim = i;
      continue;
    }
    const HostTenantSample& best = in.tenants[victim];
    if (t.priority != best.priority) {
      if (t.priority < best.priority) victim = i;
    } else if (shed_[i].level != shed_[victim].level) {
      if (shed_[i].level < shed_[victim].level) victim = i;
    } else if (t.copy_ms > best.copy_ms) {
      victim = i;
    }
  }
  if (victim == in.tenants.size()) return;  // everyone sheddable is maxed

  TenantState& state = shed_[victim];
  const double from = static_cast<double>(state.level);
  ++state.level;
  const auto tenant = static_cast<std::uint32_t>(victim);
  switch (state.level) {
    case 1:
      decide(in.round, tenant, HostAction::StretchInterval, from, 1.0,
             "host-pressure-stretch-interval", made);
      break;
    case 2:
      decide(in.round, tenant, HostAction::Downgrade, from, 2.0,
             "host-pressure-downgrade", made);
      break;
    default:
      decide(in.round, tenant, HostAction::PauseProtection, from, 3.0,
             "host-pressure-pause-protection", made);
      break;
  }
}

void HostArbiter::recover(const HostInputs& in, std::size_t& made) {
  // Mirror image of escalate: the highest-priority shed tenant recovers
  // first, one rung per qualifying calm round; deepest rung first on
  // ties, then lowest index.
  std::size_t pick = in.tenants.size();
  for (std::size_t i = 0; i < in.tenants.size(); ++i) {
    if (i >= shed_.size() || shed_[i].level == 0) continue;
    const HostTenantSample& t = in.tenants[i];
    if (!t.live || t.governor != 0) continue;
    if (pick == in.tenants.size()) {
      pick = i;
      continue;
    }
    const HostTenantSample& best = in.tenants[pick];
    if (t.priority != best.priority) {
      if (t.priority > best.priority) pick = i;
    } else if (shed_[i].level > shed_[pick].level) {
      pick = i;
    }
  }
  if (pick == in.tenants.size()) return;

  TenantState& state = shed_[pick];
  const double from = static_cast<double>(state.level);
  --state.level;
  const auto tenant = static_cast<std::uint32_t>(pick);
  switch (state.level) {
    case 2:
      decide(in.round, tenant, HostAction::ResumeProtection, from, 2.0,
             "host-calm-resume-protection", made);
      break;
    case 1:
      decide(in.round, tenant, HostAction::RestoreMode, from, 1.0,
             "host-calm-restore-mode", made);
      break;
    default:
      decide(in.round, tenant, HostAction::RestoreInterval, from, 0.0,
             "host-calm-restore-interval", made);
      break;
  }
}

std::size_t HostArbiter::pick_donor(const HostInputs& in,
                                    bool need_replicated) const {
  std::size_t donor = in.tenants.size();
  for (std::size_t i = 0; i < in.tenants.size(); ++i) {
    const HostTenantSample& t = in.tenants[i];
    if (!t.live || t.governor != 0) continue;
    if (need_replicated ? !t.replicated : !t.has_store) continue;
    if (i < shed_.size() &&
        (need_replicated ? shed_[i].window_capped : shed_[i].gc_capped)) {
      continue;
    }
    if (donor == in.tenants.size() ||
        t.priority < in.tenants[donor].priority) {
      donor = i;
    }
  }
  return donor;
}

void HostArbiter::arbitrate(const HostInputs& in, double transport_pressure,
                            double copy_pressure, std::size_t& made) {
  // Replication-window trade: the shared transport is saturated, so the
  // lowest-priority replicated tenant donates window slots until calm.
  if (transport_pressure > config_.shed_enter) {
    const std::size_t donor = pick_donor(in, /*need_replicated=*/true);
    if (donor != in.tenants.size()) {
      shed_[donor].window_capped = true;
      decide(in.round, static_cast<std::uint32_t>(donor),
             HostAction::CapWindow, 0.0,
             static_cast<double>(config_.donor_window_cap),
             "transport-saturated-window-trade", made);
    }
  } else if (transport_pressure < config_.shed_exit) {
    for (std::size_t i = 0; i < shed_.size(); ++i) {
      if (!shed_[i].window_capped) continue;
      shed_[i].window_capped = false;
      decide(in.round, static_cast<std::uint32_t>(i),
             HostAction::UncapWindow,
             static_cast<double>(config_.donor_window_cap), 0.0,
             "transport-calm-restore-window", made);
    }
  }
  // GC-budget trade: the copy path is the bottleneck, and store GC rides
  // the same post-resume path; the lowest-priority store-backed tenant
  // donates GC budget until calm.
  if (copy_pressure > config_.shed_enter) {
    const std::size_t donor = pick_donor(in, /*need_replicated=*/false);
    if (donor != in.tenants.size()) {
      shed_[donor].gc_capped = true;
      decide(in.round, static_cast<std::uint32_t>(donor),
             HostAction::CapGcBudget, 0.0,
             static_cast<double>(config_.donor_gc_cap),
             "copy-pressure-gc-trade", made);
    }
  } else if (copy_pressure < config_.shed_exit) {
    for (std::size_t i = 0; i < shed_.size(); ++i) {
      if (!shed_[i].gc_capped) continue;
      shed_[i].gc_capped = false;
      decide(in.round, static_cast<std::uint32_t>(i),
             HostAction::UncapGcBudget,
             static_cast<double>(config_.donor_gc_cap), 0.0,
             "copy-calm-restore-gc", made);
    }
  }
}

std::vector<HostInputs> HostArbiter::history() const {
  if (!input_wrapped_) return inputs_;
  std::vector<HostInputs> out;
  out.reserve(inputs_.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    out.push_back(inputs_[(input_next_ + i) % inputs_.size()]);
  }
  return out;
}

std::vector<HostDecision> HostArbiter::replay(
    const HostConfig& config, std::span<const HostInputs> inputs) {
  HostArbiter arbiter(config);
  for (const HostInputs& in : inputs) (void)arbiter.observe(in);
  return std::move(arbiter.decisions_);
}

}  // namespace crimes
