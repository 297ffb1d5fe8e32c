#include "cloud/cloud_host.h"

#include "common/log.h"

#include <stdexcept>

namespace crimes {

namespace {

std::size_t backed_pages(const Vm& vm) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    if (vm.is_backed(Pfn{i})) ++n;
  }
  return n;
}

// What the capacity model needs to know about a policy, derived before
// any VM is built (a refused tenant must cost nothing).
AdmissionRequest request_for(const TenantPolicy& policy) {
  AdmissionRequest request;
  request.tenant = policy.name;
  request.guest_pages = policy.guest.page_count;
  request.protected_mode = policy.crimes.mode != SafetyMode::Disabled;
  request.pause_budget_ms = policy.crimes.slo.budget.pause_ms;
  request.interval_ms = to_ms(policy.crimes.checkpoint.epoch_interval);
  request.replication_window =
      policy.crimes.replication.enabled ? policy.crimes.replication.window : 0;
  request.priority = policy.priority;
  return request;
}

}  // namespace

Tenant::Tenant(Hypervisor& hypervisor, TenantPolicy policy)
    : policy_(std::move(policy)) {
  vm_ = &hypervisor.create_domain(policy_.name, policy_.guest.page_count);
  kernel_ = std::make_unique<GuestKernel>(*vm_, policy_.guest);
  kernel_->boot();
  crimes_ = std::make_unique<Crimes>(hypervisor, *kernel_, policy_.crimes);
}

std::size_t Tenant::primary_pages_backed() const {
  return backed_pages(kernel_->vm());
}

std::size_t Tenant::backup_pages_backed() const {
  if (policy_.crimes.mode == SafetyMode::Disabled ||
      !crimes_->checkpointer().initialized()) {
    return 0;
  }
  return backed_pages(crimes_->checkpointer().backup());
}

CloudHost::CloudHost(std::size_t machine_frames)
    : hypervisor_(machine_frames) {}

CloudHost::CloudHost(HostConfig config, std::size_t machine_frames)
    : hypervisor_(machine_frames), host_config_(config) {
  if (host_config_.enabled) {
    admission_ =
        std::make_unique<AdmissionController>(host_config_, machine_frames);
    arbiter_ = std::make_unique<HostArbiter>(host_config_);
    if (host_config_.faults.any()) {
      host_injector_ =
          std::make_unique<fault::FaultInjector>(host_config_.faults);
    }
  }
}

AdmissionResult CloudHost::admit(TenantPolicy policy) {
  AdmissionResult result;
  if (host_config_.enabled && admission_ != nullptr) {
    result.decision = admission_->decide(request_for(policy));
    admission_log_.push_back(result.decision);
    if (result.decision.verdict != AdmissionDecision::Verdict::Accept) {
      CRIMES_LOG(Warn, "cloud")
          << "tenant " << result.decision.tenant << " refused ("
          << to_string(result.decision.verdict) << "): "
          << result.decision.reason;
      return result;
    }
  } else {
    // Legacy open-door host: every admit succeeds, nothing is logged --
    // the disabled path stays byte-identical to the pre-admission host.
    result.decision.tenant = policy.name;
    result.decision.reason = "host-admission-disabled";
  }
  tenants_.push_back(std::make_unique<Tenant>(hypervisor_, std::move(policy)));
  result.admitted = tenants_.back().get();
  return result;
}

Tenant* CloudHost::find_tenant(const std::string& name) noexcept {
  for (auto& t : tenants_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

Tenant& CloudHost::tenant(const std::string& name) {
  if (Tenant* t = find_tenant(name)) return *t;
  throw TenantNotFoundError(name);
}

void CloudHost::initialize_all() {
  for (auto& t : tenants_) {
    t->crimes().initialize();
  }
}

void CloudHost::apply_host_decisions(std::size_t made) {
  if (made == 0 || arbiter_ == nullptr) return;
  const std::vector<HostDecision>& log = arbiter_->decisions();
  const std::size_t start = log.size() >= made ? log.size() - made : 0;
  for (std::size_t k = start; k < log.size(); ++k) {
    const HostDecision& d = log[k];
    if (d.tenant >= tenants_.size()) continue;
    Tenant& t = *tenants_[d.tenant];
    Crimes& c = t.crimes();
    switch (d.action) {
      case HostAction::StretchInterval:
        c.set_host_interval_scale(host_config_.stretch_factor);
        break;
      case HostAction::RestoreInterval:
        c.set_host_interval_scale(1.0);
        break;
      case HostAction::Downgrade:
        c.host_downgrade(true);
        break;
      case HostAction::RestoreMode:
        c.host_downgrade(false);
        break;
      case HostAction::PauseProtection:
        c.host_pause_protection(true);
        break;
      case HostAction::ResumeProtection:
        c.host_pause_protection(false);
        break;
      case HostAction::CapWindow:
        c.set_host_window_cap(host_config_.donor_window_cap);
        break;
      case HostAction::UncapWindow:
        c.set_host_window_cap(0);
        break;
      case HostAction::CapGcBudget:
        c.set_host_gc_cap(host_config_.donor_gc_cap);
        break;
      case HostAction::UncapGcBudget:
        c.set_host_gc_cap(0);
        break;
    }
    // Every host actuation lands in the affected tenant's flight recorder:
    // a postmortem must be able to say "the host shed you, here is why".
    if (telemetry::FlightRecorder* flight = c.flight_recorder()) {
      flight->record(c.clock().now(), d.round,
                     telemetry::FlightEventKind::Host, to_string(d.action),
                     d.reason, d.to);
    }
    CRIMES_LOG(Info, "cloud")
        << "host arbiter: " << to_string(d.action) << " tenant "
        << t.name() << " (" << d.reason << ")";
  }
}

CloudRunReport CloudHost::run(Nanos work_time) {
  CloudRunReport report;
  const bool host_on = host_config_.enabled;
  // Round-robin in epoch-sized slices: the provider timeshares checkpoint
  // and scan work across tenants, like Remus's per-domain checkpoint
  // threads do.
  bool any_progress = true;
  while (any_progress) {
    any_progress = false;

    // Host round prologue: draw this round's fault sites once (keyed by
    // the monotone round index, so the schedule is a pure function of the
    // plan's seed) and set each workload's intensity for the round.
    if (host_on) {
      bool flash = false;
      bool storm = false;
      bool correlated = false;
      if (host_injector_) {
        host_injector_->begin_epoch(static_cast<std::size_t>(round_index_));
        flash = host_injector_->flash_crowd_hits();
        storm = host_injector_->neighbor_storm_hits();
        correlated = host_injector_->correlated_failover_hits();
      }
      if (flash) ++report.flash_crowd_rounds;
      if (storm) ++report.neighbor_storm_rounds;
      if (correlated) ++report.correlated_failover_rounds;
      for (auto& t : tenants_) {
        if (t->frozen_) continue;
        if (correlated && t->policy_.crimes.replication.enabled) {
          t->crimes().host_kill_primary();
        }
        if (t->workload_ == nullptr) continue;
        double factor = 1.0;
        if (flash) factor *= host_config_.flash_crowd_factor;
        if (storm && t->policy_.priority == TenantPriority::BestEffort) {
          // The noisy neighbour: the lowest tier's working set blows up,
          // pressuring the shared copy path everyone pauses behind.
          factor *= host_config_.neighbor_storm_factor;
        }
        t->workload_->set_intensity(factor);
      }
    }

    HostInputs inputs;
    std::vector<Nanos> round_pause;
    if (host_on) {
      inputs.round = round_index_;
      inputs.transport_slots =
          static_cast<double>(host_config_.replication_slots);
      inputs.tenants.reserve(tenants_.size());
      round_pause.assign(tenants_.size(), Nanos{0});
    }

    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      Tenant* t = tenants_[i].get();
      if (host_on) {
        HostTenantSample sample;
        sample.pause_budget_ms = t->policy_.crimes.slo.budget.pause_ms;
        sample.priority = static_cast<std::uint8_t>(t->policy_.priority);
        sample.governor =
            static_cast<std::uint8_t>(t->crimes().governor_state());
        sample.live = false;  // flipped below if the tenant runs this round
        sample.replicated = t->policy_.crimes.replication.enabled;
        sample.has_store = t->policy_.crimes.mode != SafetyMode::Disabled &&
                           t->policy_.crimes.checkpoint.store.enabled;
        inputs.tenants.push_back(sample);
      }
      if (t->frozen_) continue;
      // Slice by the interval currently in force: a control plane may have
      // moved it away from the policy's static epoch_interval.
      const Nanos interval = t->crimes().current_interval();
      if (t->totals_.work_time + interval > work_time) continue;
      if (t->workload_ != nullptr && t->workload_->finished()) continue;

      const RunSummary slice = t->crimes().run(interval);  // one epoch
      t->totals_.merge(slice);
      report.epochs_scheduled += slice.epochs;
      any_progress = any_progress || slice.epochs > 0;

      if (host_on) {
        HostTenantSample& sample = inputs.tenants[i];
        sample.live = true;
        sample.pause_ms = to_ms(slice.total_pause);
        sample.copy_ms = to_ms(slice.total_costs.copy);
        round_pause[i] = slice.total_pause;
        inputs.copy_ms += sample.copy_ms;
        inputs.work_ms += to_ms(slice.work_time);
        if (replication::Replicator* rep = t->crimes().replicator()) {
          inputs.inflight += static_cast<double>(rep->in_flight());
        }
      }

      if (slice.attack_detected) {
        t->frozen_ = true;
        ++report.tenants_attacked;
        report.attacked_tenants.push_back(t->name());
        CRIMES_LOG(Warn, "cloud")
            << "tenant " << t->name() << " frozen after attack";
      } else if (slice.primary_killed) {
        // The tenant's primary host died; its standby host promoted (or
        // there was none to promote). Either way this host schedules it
        // no further.
        t->frozen_ = true;
        ++report.tenants_failed_over;
        report.failed_over_tenants.push_back(t->name());
        CRIMES_LOG(Warn, "cloud")
            << "tenant " << t->name() << " primary killed"
            << (slice.failed_over ? "; standby promoted" : "");
      } else if (slice.frozen_by_governor) {
        // The tenant's checkpoint path is gone; its governor paused the
        // VM. Drop it from scheduling -- the fault domain is the tenant,
        // so its neighbours' epochs proceed untouched.
        t->frozen_ = true;
        ++report.tenants_fault_frozen;
        report.fault_frozen_tenants.push_back(t->name());
        CRIMES_LOG(Warn, "cloud")
            << "tenant " << t->name()
            << " frozen by its safety governor (checkpoint path lost)";
      }
    }

    // Host round epilogue: charge host-observed (contended) pauses, feed
    // the arbiter one input record, and apply whatever it decided. Only
    // productive rounds count -- the terminal empty sweep of the
    // round-robin loop is not a round.
    if (host_on && any_progress) {
      inputs.frames_used =
          static_cast<double>(hypervisor_.machine().allocated_frames());
      inputs.frame_limit =
          admission_ != nullptr ? static_cast<double>(admission_->frame_limit())
                                : inputs.frames_used;
      // Cross-tenant interference is host-side accounting only: the
      // tenant's own RunSummary stays exactly what a solo run produces
      // (the isolation tests compare them byte-for-byte).
      const double contention =
          HostArbiter::contention_factor(host_config_, inputs);
      for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (round_pause[i] <= Nanos{0}) continue;
        const double ns =
            static_cast<double>(round_pause[i].count()) * contention;
        tenants_[i]->host_pause_.record(static_cast<std::uint64_t>(ns));
      }
      const std::size_t made = arbiter_->observe(inputs);
      apply_host_decisions(made);
      report.host_decisions += made;
      ++report.host_rounds;
      ++round_index_;
    }
  }
  return report;
}

std::vector<telemetry::SloReport> CloudHost::slo_reports() const {
  std::vector<telemetry::SloReport> reports;
  for (const auto& t : tenants_) {
    const telemetry::SloMonitor* monitor = t->crimes_->slo_monitor();
    if (monitor == nullptr) continue;
    reports.push_back(monitor->report(t->name()));
  }
  return reports;
}

std::string CloudHost::health_table() const {
  return telemetry::format_health_table(slo_reports());
}

std::vector<control::ControlReport> CloudHost::control_reports() const {
  std::vector<control::ControlReport> reports;
  for (const auto& t : tenants_) {
    const control::ControlPlane* plane = t->crimes_->control_plane();
    if (plane == nullptr) continue;
    reports.push_back(plane->report(t->name()));
  }
  return reports;
}

std::string CloudHost::control_table() const {
  return control::format_control_table(control_reports());
}

CloudMemoryReport CloudHost::memory_report() const {
  CloudMemoryReport report;
  for (const auto& t : tenants_) {
    report.rows.push_back(CloudMemoryReport::Row{
        .tenant = t->name(),
        .primary_pages = t->primary_pages_backed(),
        .backup_pages = t->backup_pages_backed(),
    });
  }
  report.machine_frames_in_use = hypervisor_.machine().allocated_frames();
  return report;
}

}  // namespace crimes
