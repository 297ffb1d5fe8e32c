#include "harness.h"

#include "replication/store_journal.h"
#include "store/checkpoint_store.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

using namespace crimes;

// Work per repetition. Virtual outputs depend only on these and the seed,
// never on how many repetitions fit into the measured window.
constexpr double kFluidDurationMs = 6000.0;  // 30 epochs of 200 ms
constexpr double kWebRunMs = 4000.0;         // 200 epochs of 20 ms
constexpr std::size_t kHostRounds = 40;      // 50 ms rounds, 4 tenants
constexpr std::size_t kAttackEpisodes = 8;

constexpr std::size_t kProbePages = 512;

double ms(Nanos t) { return to_ms(t); }

// Every RunSummary field, for the transparency and repeatability checks
// (the pause histogram is compared as data; no percentile is read from
// it). CloudHost totals omit the seven fields CloudHost::accumulate
// drops: they would read as zero there, whatever the tenants did.
std::string summary_fingerprint(const RunSummary& s,
                                bool host_totals = false) {
  std::ostringstream out;
  const PhaseCosts& c = s.total_costs;
  out << s.scheme << '|' << s.work_time.count() << '|'
      << s.total_pause.count() << '|' << s.max_pause.count() << '|'
      << s.epochs << '|' << s.checkpoints << '|' << s.attack_detected << '|'
      << c.suspend.count() << ',' << c.vmi.count() << ','
      << c.bitscan.count() << ',' << c.map.count() << ',' << c.copy.count()
      << ',' << c.protect.count() << ',' << c.resume.count() << ','
      << c.observe.count() << ',' << c.control.count() << ','
      << c.dirty_pages << '|' << s.total_dirty_pages << '|'
      << s.pause_histogram.count << ',' << s.pause_histogram.sum << ','
      << s.pause_histogram.max << '|' << s.checkpoint_failures << '|'
      << s.copy_retries << '|' << s.faults_injected << '|'
      << s.governor_downgrades << '|' << s.governor_upgrades << '|'
      << s.degraded_epochs << '|' << s.frozen_by_governor << '|'
      << s.recovery_time.count() << '|' << s.store_time.count() << '|'
      << s.replication_stall.count()
      << '|' << s.replicated_generations << '|' << s.replication_dropped
      << '|' << s.primary_killed << '|' << s.failed_over << '|'
      << s.failover_time.count() << '|' << s.promoted_generation << '|'
      << s.generations_rolled_back << '|' << s.outputs_discarded << '|'
      << s.fenced_epochs << '|' << s.slo_warn_epochs << '|'
      << s.slo_critical_epochs << '|'
      << s.postmortems_dumped << '|' << s.control_cycles << '|'
      << s.control_adjustments << '|' << s.control_holds << '|'
      << s.control_full_sweeps << '|' << s.host_paused_epochs << '|'
      << s.quarantined_modules.size();
  for (const auto b : s.pause_histogram.buckets) out << ',' << b;
  if (!host_totals) {
    out << '|' << s.cow_first_touches << '|' << s.cow_drain_time.count()
        << '|' << s.cow_first_touch_time.count() << '|'
        << s.cow_commit_stall.count() << '|' << s.tampers_detected << '|'
        << s.roots_verified << '|' << s.promotions_refused;
  }
  out << '\n';
  return out.str();
}

std::string stream_fingerprint(const TimedWorkload& w) {
  std::ostringstream out;
  out << "stream:";
  for (const EpochCall& c : w.calls()) {
    out << c.start.count() << '+' << c.duration.count() << ';';
  }
  out << '\n';
  return out.str();
}

// Page-for-page equality of the primary and the backup image, over the
// pages not written since the last checkpoint (those are marked in the
// primary's log-dirty bitmap; the backup cannot have them yet).
std::size_t differing_pages(const Vm& primary, const Vm& backup) {
  std::size_t diff = 0;
  const std::size_t n = std::min(primary.page_count(), backup.page_count());
  for (std::size_t i = 0; i < n; ++i) {
    const Pfn pfn{i};
    if (!primary.is_backed(pfn) && !backup.is_backed(pfn)) continue;
    if (primary.dirty_bitmap().test(pfn)) continue;
    if (!(primary.page(pfn) == backup.page(pfn))) ++diff;
  }
  return diff + (primary.page_count() > n ? primary.page_count() - n : 0) +
         (backup.page_count() > n ? backup.page_count() - n : 0);
}

void check(Rep& rep, bool ok, const std::string& what) {
  if (!ok) rep.errors.push_back(what);
}

// Epoch walls, guest-visible stalls and the layer split of every window
// between successive run_epoch entries of `primary`. `all` holds every
// wrapper's calls (one wrapper outside host-overload).
void account_windows(Rep& rep, const TimedWorkload& primary,
                     const std::vector<const TimedWorkload*>& all,
                     const std::vector<ScanCall>& scans) {
  const auto& calls = primary.calls();
  for (std::size_t i = 0; i + 1 < calls.size(); ++i) {
    const Nanos stall =
        calls[i + 1].start - calls[i].start - calls[i].duration;
    rep.pause_ms.push_back(ms(stall));
    rep.stall_sum_ms += ms(stall);
    rep.interval_sum_ms += ms(calls[i].duration);

    const Clock::time_point lo = calls[i].enter;
    const Clock::time_point hi = calls[i + 1].enter;
    const double wall = ms_between(lo, hi);
    double in_workload = 0.0;
    for (const TimedWorkload* w : all) {
      for (const EpochCall& c : w->calls()) {
        if (c.enter >= lo && c.enter < hi) {
          in_workload += ms_between(c.enter, c.exit);
        }
      }
    }
    double in_scans = 0.0;
    std::map<std::string, double> by_module;
    for (const ScanCall& s : scans) {
      if (s.enter >= lo && s.enter < hi) {
        const double d = ms_between(s.enter, s.exit);
        in_scans += d;
        by_module[s.module] += d;
      }
    }
    rep.epoch_wall_ms.push_back(wall);
    rep.run_epoch_ms.push_back(in_workload);
    rep.scan_ms.push_back(in_scans);
    for (const auto& [module, d] : by_module) {
      rep.scan_module_ms[module].push_back(d);
    }
    rep.self_ms.push_back(wall - in_workload - in_scans);
  }
  for (const TimedWorkload* w : all) {
    for (const EpochCall& c : w->calls()) {
      rep.run_epoch_total_ms += ms_between(c.enter, c.exit);
    }
  }
}

Clock::time_point last_exit(const std::vector<const TimedWorkload*>& all) {
  Clock::time_point t{};
  for (const TimedWorkload* w : all) {
    if (!w->calls().empty()) t = std::max(t, w->calls().back().exit);
  }
  return t;
}

void add_phase_layers(Rep& rep, const RunSummary& s) {
  const PhaseCosts avg = s.avg_costs();
  rep.layer["phase.suspend_ms"] = ms(avg.suspend);
  rep.layer["phase.vmi_ms"] = ms(avg.vmi);
  rep.layer["phase.bitscan_ms"] = ms(avg.bitscan);
  rep.layer["phase.map_ms"] = ms(avg.map);
  rep.layer["phase.copy_ms"] = ms(avg.copy);
  rep.layer["phase.protect_ms"] = ms(avg.protect);
  rep.layer["phase.resume_ms"] = ms(avg.resume);
  rep.layer["phase.observe_ms"] = ms(avg.observe);
  rep.layer["phase.control_ms"] = ms(avg.control);
  const double n = s.checkpoints == 0 ? 1.0 : double(s.checkpoints);
  rep.layer["checkpoint.dirty_pages"] = s.avg_dirty_pages();
  rep.layer["checkpoint.copy_retries"] = double(s.copy_retries);
  rep.layer["store.virtual_ms"] = ms(s.store_time) / n;
  rep.layer["replication.stall_ms"] = ms(s.replication_stall) / n;
  rep.layer["replication.generations"] = double(s.replicated_generations);
  rep.layer["control.adjustments"] = double(s.control_adjustments);
}

// Single-VM runs only: CloudHost::accumulate drops the CoW fields.
void add_cow_layers(Rep& rep, const RunSummary& s) {
  const double n = s.checkpoints == 0 ? 1.0 : double(s.checkpoints);
  rep.layer["checkpoint.cow_first_touches"] = double(s.cow_first_touches);
  rep.layer["checkpoint.cow_drain_ms"] = ms(s.cow_drain_time) / n;
  rep.layer["checkpoint.cow_commit_stall_ms"] = ms(s.cow_commit_stall) / n;
}

void add_store_layers(Rep& rep, Checkpointer& cp) {
  double logical = 0.0;
  double physical = 0.0;
  if (const store::CheckpointStore* st = cp.store()) {
    const store::StoreStats stats = st->stats();
    logical += double(stats.bytes_logical);
    physical += double(stats.bytes_physical);
  }
  rep.layer["store.bytes_logical"] += logical;
  rep.layer["store.bytes_physical"] += physical;
  if (const replication::StoreJournal* j = cp.journal()) {
    rep.layer["replication.journal_bytes"] += double(j->bytes().size());
  }
}

void finish_store_layers(Rep& rep) {
  const double logical = rep.layer["store.bytes_logical"];
  const double physical = rep.layer["store.bytes_physical"];
  rep.layer["store.dedup_ratio"] = physical == 0.0 ? 0.0 : logical / physical;
  rep.layer["store.physical_per_logical"] =
      logical == 0.0 ? 0.0 : physical / logical;
  rep.layer.erase("store.bytes_logical");
  rep.layer.erase("store.bytes_physical");
  rep.layer.try_emplace("replication.journal_bytes", 0.0);
}

// Samples up to kProbePages backed pages of `vm`, spread over the image.
void capture_pages(ProbeInputs& in, const Vm& vm) {
  std::vector<Pfn> backed;
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    if (vm.is_backed(Pfn{i})) backed.push_back(Pfn{i});
  }
  const std::size_t step =
      std::max<std::size_t>(1, backed.size() / kProbePages);
  for (std::size_t i = 0; i < backed.size() && in.pages.size() < kProbePages;
       i += step) {
    in.pages.push_back(vm.page(backed[i]));
  }
}

// Times a process-list walk on the run's own VMI session.
void capture_vmi(ProbeInputs& in, VmiSession& vmi) {
  std::size_t walks = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  while (ms_between(t0, t1) < 50.0) {
    in.vmi_processes = vmi.process_list().size();
    ++walks;
    t1 = Clock::now();
  }
  in.vmi_process_list_us = ms_between(t0, t1) * 1e3 / double(walks);
  (void)vmi.take_cost();
}

template <typename F>
double timed_ms(Rep& rep, const char* name, SpanLog* spans, F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  const Clock::time_point t1 = Clock::now();
  if (spans != nullptr) spans->add(name, -1, t0, t1);
  const double d = ms_between(t0, t1);
  rep.setup_spans.emplace_back(name, d);
  return d;
}

std::unique_ptr<ScanModule> module(std::unique_ptr<ScanModule> m,
                                   const RepOptions& o,
                                   const TimedWorkload& owner,
                                   std::vector<ScanCall>& scans) {
  if (!o.wrap) return m;
  return std::make_unique<TimedScan>(std::move(m), owner, scans, o.spans);
}

// The part of a repetition every single-VM clean workload shares: layer
// split, correctness checks, counts, fingerprint and probe inputs.
// `extra` is the workload's own virtual output, folded into the
// fingerprint.
void finish_single_vm(Rep& rep, const RepOptions& o, const RunSummary& s,
                      GuestKernel& kernel, Crimes& crimes,
                      const TimedWorkload& timed,
                      const std::vector<ScanCall>& scans,
                      Clock::time_point run_end, const std::string& extra) {
  const std::vector<const TimedWorkload*> all{&timed};
  account_windows(rep, timed, all, scans);
  if (o.wrap) rep.run_tail_ms = ms_between(last_exit(all), run_end);

  rep.sim_epochs = s.epochs;
  rep.ops = s.epochs;
  const std::size_t diff =
      differing_pages(kernel.vm(), crimes.checkpointer().backup());
  check(rep, diff == 0, std::to_string(diff) + " backup pages differ");
  check(rep, kernel.vm().dirty_bitmap().dirty_count() == 0,
        "pages written after the last checkpoint");
  check(rep, s.checkpoint_failures == 0, "checkpoint failures");
  check(rep, !s.attack_detected, "attack detected on a clean workload");
  check(rep, !s.frozen_by_governor, "run froze");
  check(rep, s.quarantined_modules.empty(), "scan module quarantined");
  rep.failed_ops = s.checkpoint_failures + (s.frozen_by_governor ? 1 : 0);

  add_phase_layers(rep, s);
  add_cow_layers(rep, s);
  add_store_layers(rep, crimes.checkpointer());
  finish_store_layers(rep);
  rep.fingerprint = summary_fingerprint(s) + extra;
  if (o.wrap) rep.fingerprint += stream_fingerprint(timed);

  if (o.capture_probe_inputs) {
    capture_pages(rep.probe, kernel.vm());
    rep.probe.dirty_per_epoch = s.avg_dirty_pages();
    rep.probe.guest_pages = kernel.vm().page_count();
    capture_vmi(rep.probe, crimes.vmi());
  }
}

// --- cow-fluid -------------------------------------------------------------

Rep run_cow_fluid(const RepOptions& o) {
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  Hypervisor hypervisor(1u << 21);
  ParsecProfile profile = ParsecProfile::by_name("fluidanimate");
  profile.duration_ms = o.short_run ? 1000.0 : kFluidDurationMs;
  GuestConfig gc = profile.recommended_guest();
  gc.boot_seed = derive(o.seed, 1);
  Vm* vm = nullptr;
  timed_ms(rep, "hypervisor.create_domain", o.spans, [&] {
    vm = &hypervisor.create_domain("fluid", gc.page_count);
  });
  GuestKernel kernel(*vm, gc);
  timed_ms(rep, "guestos.boot", o.spans, [&] { kernel.boot(); });

  CrimesConfig config;
  config.checkpoint = CheckpointConfig::cow(millis(200));
  config.record_execution = false;
  Crimes crimes(hypervisor, kernel, config);
  ParsecWorkload app(kernel, profile, derive(o.seed, 2));
  TimedWorkload timed(app, o.spans);
  std::vector<ScanCall> scans;
  crimes.add_module(
      module(std::make_unique<CanaryScanModule>(), o, timed, scans));
  crimes.set_workload(o.wrap ? static_cast<Workload*>(&timed) : &app);
  timed_ms(rep, "core.initialize", o.spans, [&] { crimes.initialize(); });
  rep.setup_s = ms_between(t0, Clock::now()) / 1e3;
  if (o.setup_only) return rep;

  const Clock::time_point r0 = Clock::now();
  const RunSummary s = crimes.run(millis(profile.duration_ms * 2));
  const Clock::time_point r1 = Clock::now();
  if (o.spans != nullptr) o.spans->add("core.run", -1, r0, r1);
  rep.run_wall_s = ms_between(r0, r1) / 1e3;

  check(rep, app.finished(), "workload did not finish");
  finish_single_vm(rep, o, s, kernel, crimes, timed, scans, r1, {});
  return rep;
}

// --- web-sync --------------------------------------------------------------

Rep run_web_sync(const RepOptions& o) {
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  Hypervisor hypervisor(1u << 20);
  GuestConfig gc;
  gc.page_count = 262144;  // 1 GiB
  gc.boot_seed = derive(o.seed, 1);
  Vm* vm = nullptr;
  timed_ms(rep, "hypervisor.create_domain", o.spans, [&] {
    vm = &hypervisor.create_domain("web", gc.page_count);
  });
  GuestKernel kernel(*vm, gc);
  timed_ms(rep, "guestos.boot", o.spans, [&] { kernel.boot(); });

  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(20));
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  Crimes crimes(hypervisor, kernel, config);
  WebServerWorkload server(kernel, crimes.nic(), WebServerProfile::medium(),
                           derive(o.seed, 2));
  WrkClient client(server, crimes.network(), 48, 8);
  TimedWorkload timed(server, o.spans);
  std::vector<ScanCall> scans;
  crimes.add_module(
      module(std::make_unique<CanaryScanModule>(), o, timed, scans));
  crimes.add_module(
      module(std::make_unique<HiddenProcessModule>(), o, timed, scans));
  crimes.set_workload(o.wrap ? static_cast<Workload*>(&timed) : &server);
  timed_ms(rep, "core.initialize", o.spans, [&] { crimes.initialize(); });
  // The syscall table's baseline is read from the booted guest; without
  // it the module's first scan throws and the detector quarantines it.
  auto syscalls = std::make_unique<SyscallIntegrityModule>();
  timed_ms(rep, "detect.capture_baseline", o.spans,
           [&] { syscalls->capture_baseline(crimes.vmi()); });
  crimes.add_module(module(std::move(syscalls), o, timed, scans));
  client.start(crimes.clock().now());
  rep.setup_s = ms_between(t0, Clock::now()) / 1e3;
  if (o.setup_only) return rep;

  const Nanos v0 = crimes.clock().now();
  const Clock::time_point r0 = Clock::now();
  const RunSummary s = crimes.run(millis(o.short_run ? 400.0 : kWebRunMs));
  const Clock::time_point r1 = Clock::now();
  if (o.spans != nullptr) o.spans->add("core.run", -1, r0, r1);
  rep.run_wall_s = ms_between(r0, r1) / 1e3;
  const Nanos elapsed = crimes.clock().now() - v0;

  const WrkStats& stats = client.stats();
  for (const Nanos l : stats.samples) rep.req_ms.push_back(ms(l));
  rep.req_per_s = stats.throughput_rps(elapsed);
  check(rep, stats.completed_requests > 0, "no request completed");
  rep.layer["net.requests_completed"] = double(stats.completed_requests);
  std::ostringstream out;
  out << stats.completed_requests << '|' << stats.completed_handshakes << '|'
      << stats.total_latency.count() << '|' << stats.max_latency.count()
      << '|' << elapsed.count() << '\n';
  finish_single_vm(rep, o, s, kernel, crimes, timed, scans, r1, out.str());
  return rep;
}

// --- host-overload ---------------------------------------------------------

Rep run_host_overload(const RepOptions& o) {
  Rep rep;
  const std::size_t rounds = o.short_run ? 20 : kHostRounds;
  const Clock::time_point t0 = Clock::now();
  HostConfig hc;
  hc.enabled = true;
  // The cloud_scale overload mix: a tight copy budget so the storm's
  // inflated working sets push the shared copy path over the line. No
  // correlated failover, so every tenant runs the whole length; the storm
  // stops eight rounds before the end so the ladder can recover.
  hc.copy_overhead_limit = 0.002;
  hc.faults.seed = derive(o.seed, 3);
  // Flash crowds and noisy-neighbour storms at a fixed rate: in every block
  // of five rounds of the storm window, two of each, at rounds drawn from
  // the seed. A fixed count keeps the host's load (and so its host-time
  // metrics) from swinging with the seed; the placement still varies.
  for (std::size_t block = 2; block + 5 <= rounds - 8; block += 5) {
    for (const fault::FaultKind kind : {fault::FaultKind::FlashCrowd,
                                        fault::FaultKind::NeighborDirtyStorm}) {
      const bool flash = kind == fault::FaultKind::FlashCrowd;
      const std::uint64_t r = derive(o.seed, 1000 + block * 2 + flash);
      const std::size_t first = r % 5;
      const std::size_t second = (first + 1 + (r >> 8) % 4) % 5;
      hc.faults.scheduled.push_back({block + first, kind, {}});
      hc.faults.scheduled.push_back({block + second, kind, {}});
    }
  }
  CloudHost host(hc, 1u << 20);

  const std::vector<std::string> names = {"payments", "web", "batch-0",
                                          "batch-1"};
  const std::vector<TenantPriority> priorities = {
      TenantPriority::Critical, TenantPriority::Standard,
      TenantPriority::BestEffort, TenantPriority::BestEffort};
  std::vector<Tenant*> tenants;
  std::vector<std::unique_ptr<ParsecWorkload>> apps;
  std::vector<std::unique_ptr<TimedWorkload>> timed;
  std::vector<ScanCall> scans;
  for (std::size_t i = 0; i < names.size(); ++i) {
    GuestConfig gc;
    gc.page_count = 2048;
    gc.task_slab_pages = 4;
    gc.canary_table_pages = 8;
    gc.boot_seed = derive(o.seed, 10 + i);
    CrimesConfig cc;
    cc.checkpoint = CheckpointConfig::full(millis(50));
    cc.checkpoint.store.enabled = true;
    cc.checkpoint.store.journal = true;
    cc.checkpoint.store.crypto.seal = true;
    cc.replication.enabled = true;
    cc.control.enabled = true;
    cc.record_execution = false;
    cc.slo.budget.pause_ms = 6.0;  // share 0.12 of 50 ms: four tenants fit
    Tenant* t = nullptr;
    timed_ms(rep, "cloud.admit", o.spans, [&] {
      t = host.admit(TenantPolicy{names[i], gc, cc, priorities[i]}).admitted;
    });
    if (t == nullptr) {
      rep.errors.push_back("tenant " + names[i] + " not admitted");
      rep.ops = 1;
      rep.failed_ops = 1;
      return rep;
    }
    ParsecProfile profile = ParsecProfile::by_name("raytrace");
    profile.working_set_pages = 1024;
    profile.touches_per_ms = 5.0;
    profile.duration_ms = 1e9;  // never finishes inside a run
    apps.push_back(std::make_unique<ParsecWorkload>(t->kernel(), profile,
                                                    derive(o.seed, 20 + i)));
    timed.push_back(std::make_unique<TimedWorkload>(*apps.back(), o.spans));
    t->crimes().add_module(
        module(std::make_unique<CanaryScanModule>(), o, *timed.back(), scans));
    t->set_workload(o.wrap ? static_cast<Workload*>(timed.back().get())
                           : apps.back().get());
    tenants.push_back(t);
  }
  timed_ms(rep, "cloud.initialize_all", o.spans,
           [&] { host.initialize_all(); });
  rep.setup_s = ms_between(t0, Clock::now()) / 1e3;
  if (o.setup_only) return rep;

  const Clock::time_point r0 = Clock::now();
  const Nanos length = millis(50.0 * double(rounds));
  const CloudRunReport report = host.run(length);
  const Clock::time_point r1 = Clock::now();
  if (o.spans != nullptr) o.spans->add("core.run", -1, r0, r1);
  rep.run_wall_s = ms_between(r0, r1) / 1e3;

  std::vector<const TimedWorkload*> all;
  for (const auto& w : timed) all.push_back(w.get());
  account_windows(rep, *timed[0], all, scans);  // Critical tenant's clock
  if (o.wrap) rep.run_tail_ms = ms_between(last_exit(all), r1);

  rep.sim_epochs = report.epochs_scheduled;
  rep.ops = report.epochs_scheduled;
  check(rep, report.tenants_attacked == 0, "tenant attacked");
  check(rep, report.tenants_fault_frozen == 0, "tenant froze");
  check(rep, report.tenants_failed_over == 0, "tenant failed over");
  check(rep, report.correlated_failover_rounds == 0,
        "correlated failover fired");
  std::size_t paused = 0;
  std::size_t epochs = 0;
  std::size_t failures = 0;
  std::size_t adjustments = 0;
  std::size_t generations = 0;
  std::string totals;
  for (Tenant* t : tenants) {
    const RunSummary& s = t->totals();
    paused += s.host_paused_epochs;
    epochs += s.epochs;
    failures += s.checkpoint_failures;
    adjustments += s.control_adjustments;
    generations += s.replicated_generations;
    totals += summary_fingerprint(s, /*host_totals=*/true);
    // Ran the whole length: stopped only because the next epoch (of the
    // interval in force, which the shed ladder may have stretched) would
    // overrun the run.
    check(rep, s.work_time + t->crimes().current_interval() > length,
          t->name() + " stopped early");
    check(rep, s.checkpoint_failures == 0, t->name() + " checkpoint failures");
    check(rep, !s.attack_detected, t->name() + " attack detected");
    check(rep, !s.frozen_by_governor, t->name() + " froze");
    check(rep, s.quarantined_modules.empty(),
          t->name() + " scan module quarantined");
    const std::size_t diff = differing_pages(
        t->kernel().vm(), t->crimes().checkpointer().backup());
    check(rep, diff == 0, t->name() + ": " + std::to_string(diff) +
                              " backup pages differ");
    // Only the shed ladder's protection pause may leave epochs unchecked
    // at the end of the run.
    if (t->kernel().vm().dirty_bitmap().dirty_count() != 0) {
      check(rep, s.host_paused_epochs > 0,
            t->name() + ": pages written after the last checkpoint");
    }
    const store::CheckpointStore* st = t->crimes().checkpointer().store();
    check(rep, st != nullptr && st->audit_seals().bad_digests.empty(),
          t->name() + " seal audit failed");
    add_store_layers(rep, t->crimes().checkpointer());
  }
  rep.failed_ops = failures;
  rep.protected_share =
      epochs == 0 ? 0.0 : 1.0 - double(paused) / double(epochs);

  // Phases and stalls come from the Critical tenant; counts are host-wide.
  add_phase_layers(rep, tenants[0]->totals());
  finish_store_layers(rep);
  rep.layer["replication.generations"] = double(generations);
  rep.layer["control.adjustments"] = double(adjustments);
  rep.layer["cloud.host_decisions"] = double(report.host_decisions);
  rep.layer["cloud.shed_epochs"] = double(paused);
  std::ostringstream out;
  out << report.epochs_scheduled << '|' << report.host_rounds << '|'
      << report.host_decisions << '|' << report.flash_crowd_rounds << '|'
      << report.neighbor_storm_rounds << '\n';
  rep.fingerprint = totals + out.str();
  if (o.wrap) {
    for (const auto& w : timed) rep.fingerprint += stream_fingerprint(*w);
  }

  if (o.capture_probe_inputs) {
    Tenant* t = tenants[0];
    capture_pages(rep.probe, t->kernel().vm());
    rep.probe.dirty_per_epoch = t->totals().avg_dirty_pages();
    rep.probe.guest_pages = t->kernel().vm().page_count();
    capture_vmi(rep.probe, t->crimes().vmi());
  }
  return rep;
}

// --- attack-response -------------------------------------------------------

Rep run_attack_response(const RepOptions& o) {
  Rep rep;
  const std::size_t episodes = o.short_run ? 2 : kAttackEpisodes;
  double ops_replayed = 0.0;
  double events = 0.0;
  double dumps = 0.0;
  std::vector<double> analysis;
  std::vector<double> persisted;
  for (std::size_t k = 0; k < episodes; ++k) {
    const Clock::time_point t0 = Clock::now();
    Hypervisor hypervisor(1u << 19);
    GuestConfig gc;
    gc.page_count = 8192;
    gc.boot_seed = derive(o.seed, 100 + k);
    Vm* vm = nullptr;
    timed_ms(rep, "hypervisor.create_domain", o.spans, [&] {
      vm = &hypervisor.create_domain("victim", gc.page_count);
    });
    GuestKernel kernel(*vm, gc);
    timed_ms(rep, "guestos.boot", o.spans, [&] { kernel.boot(); });

    CrimesConfig config;
    config.checkpoint = CheckpointConfig::full(millis(50));
    config.record_execution = true;
    config.rollback_replay = true;
    config.forensics = true;
    Crimes crimes(hypervisor, kernel, config);
    OverflowScript script;
    // Attack instant: stratified over 75..325 ms of guest work -- episode k
    // draws from the k-th of `episodes` equal slices -- so it lands at a
    // seeded point inside an epoch while every seed runs about the same
    // number of epochs.
    const std::int64_t slice = 250'000'000 / std::int64_t(episodes);
    script.attack_at =
        millis(75) + Nanos{slice * std::int64_t(k) +
                           std::int64_t(derive(o.seed, 200 + k) %
                                        std::uint64_t(slice))};
    // The program's heap population is an input too: 48..80 objects.
    script.object_count = 48 + derive(o.seed, 400 + k) % 33;
    OverflowWorkload app(kernel, script, derive(o.seed, 300 + k));
    TimedWorkload timed(app, o.spans);
    std::vector<ScanCall> scans;
    crimes.add_module(
        module(std::make_unique<CanaryScanModule>(), o, timed, scans));
    crimes.set_workload(o.wrap ? static_cast<Workload*>(&timed) : &app);
    timed_ms(rep, "core.initialize", o.spans, [&] { crimes.initialize(); });
    const double setup = ms_between(t0, Clock::now()) / 1e3;
    if (o.setup_only) {
      rep.setup_s = setup;
      return rep;
    }
    rep.setup_s += setup / double(episodes);

    const Clock::time_point r0 = Clock::now();
    const RunSummary s = crimes.run(millis(2000));
    const Clock::time_point r1 = Clock::now();
    if (o.spans != nullptr) o.spans->add("core.run", -1, r0, r1);
    rep.run_wall_s += ms_between(r0, r1) / 1e3;

    const std::vector<const TimedWorkload*> all{&timed};
    account_windows(rep, timed, all, scans);
    if (o.wrap) {
      // The attack epoch is the last one the workload runs.
      rep.run_tail_ms += ms_between(last_exit(all), r1) / double(episodes);
      rep.response_wall_ms.push_back(ms_between(last_exit(all), r1));
    }

    rep.sim_epochs += s.epochs;
    ++rep.ops;
    const AttackReport* attack = crimes.attack();
    const bool pinpointed = attack != nullptr && attack->pinpoint &&
                            attack->pinpoint->found && app.attack_instr() &&
                            attack->pinpoint->instr_index ==
                                *app.attack_instr();
    const std::string tag = "episode " + std::to_string(k) + ": ";
    const std::size_t before = rep.errors.size();
    check(rep, s.attack_detected && attack != nullptr,
          tag + "attack not detected");
    check(rep, pinpointed, tag + "attack not pinpointed at its instruction");
    check(rep, s.checkpoint_failures == 0, tag + "checkpoint failures");
    check(rep, s.quarantined_modules.empty(), tag + "scan module quarantined");
    if (rep.errors.size() != before) ++rep.failed_ops;

    std::ostringstream out;
    out << summary_fingerprint(s);
    if (attack != nullptr) {
      const Nanos t_attack = app.attack_time();
      const AttackTimeline& tl = attack->timeline;
      rep.detect_ms.push_back(ms(tl.detected_at - t_attack));
      rep.pinpoint_ms.push_back(ms(tl.replay_done_at - t_attack));
      analysis.push_back(ms(tl.analysis_done_at - t_attack));
      persisted.push_back(ms(tl.persisted_at - t_attack));
      dumps += double(attack->dumps.size());
      if (attack->pinpoint) {
        ops_replayed += double(attack->pinpoint->ops_replayed);
        events += double(attack->pinpoint->events_delivered);
      }
      out << t_attack.count() << '|' << tl.epoch_start.count() << '|'
          << tl.detected_at.count() << '|' << tl.replay_done_at.count() << '|'
          << tl.analysis_done_at.count() << '|' << tl.persisted_at.count()
          << '|' << attack->findings.size() << '|'
          << attack->forensic_text.size() << '\n';
    }
    rep.fingerprint += out.str();
    if (o.wrap) rep.fingerprint += stream_fingerprint(timed);
    if (k == 0) {
      add_phase_layers(rep, s);
      add_cow_layers(rep, s);
    }

    if (o.capture_probe_inputs && k + 1 == episodes) {
      capture_pages(rep.probe, kernel.vm());
      rep.probe.dirty_per_epoch = s.avg_dirty_pages();
      rep.probe.guest_pages = gc.page_count;
      capture_vmi(rep.probe, crimes.vmi());
    }
  }
  finish_store_layers(rep);
  const double n = double(episodes);
  rep.layer["replay.ops_replayed"] = ops_replayed / n;
  rep.layer["replay.events_delivered"] = events / n;
  rep.layer["forensics.dumps"] = dumps / n;
  rep.layer["attack.analysis_done_ms"] = median(analysis);
  rep.layer["attack.persisted_ms"] = median(persisted);
  return rep;
}

}  // namespace

bool parse_workload(const std::string& name, WorkloadKind& out) {
  for (const WorkloadKind k :
       {WorkloadKind::CowFluid, WorkloadKind::WebSync,
        WorkloadKind::HostOverload, WorkloadKind::AttackResponse}) {
    if (name == workload_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::CowFluid: return "cow-fluid";
    case WorkloadKind::WebSync: return "web-sync";
    case WorkloadKind::HostOverload: return "host-overload";
    case WorkloadKind::AttackResponse: return "attack-response";
  }
  return "?";
}

Rep run_rep(const RepOptions& options) {
  switch (options.kind) {
    case WorkloadKind::CowFluid: return run_cow_fluid(options);
    case WorkloadKind::WebSync: return run_web_sync(options);
    case WorkloadKind::HostOverload: return run_host_overload(options);
    case WorkloadKind::AttackResponse: return run_attack_response(options);
  }
  return {};
}

}  // namespace perfbench
