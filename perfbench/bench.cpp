// The CRIMES benchmark: runs one named workload for a measured window and
// prints its metrics, then one JSON result line.
//
//   crimes_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--spans-out FILE]
//
// A run repeats a fixed amount of work ("a repetition": set-up, then one
// timed Crimes::run / CloudHost::run) until the window is spent, cycling
// through four scenarios seeded from --seed. Virtual outputs are a function
// of the scenario seed alone, so every repetition of a scenario must
// reproduce its first one exactly -- that is checked. Host-time samples are
// pooled over repetitions and reported as exact quantiles with their sample
// counts. --trace 1 alternates traced and untraced repetitions, reports the
// per-layer metrics, times the layer probes and writes the spans to FILE.
#include "harness.h"

#include "common/hash.h"
#include "crypto/page_sealer.h"
#include "replication/store_journal.h"
#include "store/checkpoint_store.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace {

using namespace perfbench;
using crimes::CostModel;
using crimes::Nanos;

double ns_of(Nanos t) { return double(t.count()); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note = {}) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples,
                        std::move(note)});
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
};

// The metrics the result line carries, in BENCHMARK.json order. The table
// above it prints every metric a workload produces.
const std::vector<std::string> kEndToEnd = {
    "setup_s",      "epoch_wall_p50_ms", "epoch_wall_p90_ms",
    "sim_epochs_per_s", "peak_rss_mb",   "pause_p50_ms",
    "pause_p90_ms", "overhead_pct"};

const std::vector<std::string> kPerLayer = {
    "workload.run_epoch_ms",
    "workload.wall_share",
    "detect.scan_ms",
    "detect.scan_ms.canary-scan",
    "core.pipeline_self_ms",
    "core.run_tail_ms",
    "trace.overhead_pct",
    "common.fnv1a_ns_per_page",
    "common.copy_fnv1a_ns_per_page",
    "hypervisor.write_phys_ns",
    "hypervisor.write_phys_cow_ns",
    "hypervisor.scan_chunked_us",
    "hypervisor.scan_simd_us",
    "vmi.process_list_us",
    "store.append_us_per_page",
    "crypto.seal_ns_per_page",
    "store.audit_seals_ms",
    "replication.fsck_us_per_record",
    "drift.fnv1a",
    "drift.copy_fnv1a",
    "drift.write_phys_cow",
    "drift.scan_chunked",
    "drift.scan_simd",
    "drift.store_append",
    "drift.crypto_seal",
    "drift.audit_seals",
    "drift.fsck",
    "checkpoint.dirty_pages",
    "store.dedup_ratio",
    "store.physical_per_logical",
    "replication.generations",
    "replication.journal_bytes",
    "control.adjustments",
    "phase.suspend_ms",
    "phase.vmi_ms",
    "phase.bitscan_ms",
    "phase.resume_ms",
};

// --- Layer probes ----------------------------------------------------------

// Calls `body` (which does `units` units of work) until `budget_ms` of host
// time has passed; returns nanoseconds per unit.
double ns_per_unit(double budget_ms, std::size_t units,
                   const std::function<void()>& body) {
  std::size_t rounds = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  do {
    body();
    ++rounds;
    t1 = Clock::now();
  } while (ms_between(t0, t1) < budget_ms);
  return ms_between(t0, t1) * 1e6 / double(rounds * units);
}

volatile std::uint64_t g_sink = 0;

constexpr std::size_t kSetupSamples = 20;  // at each end of a run

// Distinct inputs per run: repetition i runs scenario i mod kScenarios,
// seeded from (--seed, scenario). Pooling a few scenarios keeps one seed's
// particular storm or attack placement from setting a run's figures.
constexpr std::size_t kScenarios = 4;

// A probe VM holding the captured pages, for the hypervisor/store/journal
// probes (the workload's own VMs are gone or paused by then).
struct ProbeVm {
  crimes::Hypervisor hypervisor{1u << 16};
  crimes::Vm* vm = nullptr;
  std::vector<crimes::Pfn> pfns;

  explicit ProbeVm(const std::vector<crimes::Page>& pages) {
    vm = &hypervisor.create_domain("probe", pages.size());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      pfns.push_back(crimes::Pfn{i});
      vm->page(crimes::Pfn{i}) = pages[i];
    }
  }
};

void run_probes(const ProbeInputs& in, std::uint64_t seed, Report& out) {
  const CostModel& costs = CostModel::defaults();
  const std::size_t n = in.pages.size();
  if (n == 0) return;
  const double budget = 60.0;

  // Digests over the captured pages.
  const double fnv = ns_per_unit(budget, n, [&] {
    std::uint64_t h = 0;
    for (const crimes::Page& p : in.pages) h ^= crimes::fnv1a(p.bytes());
    g_sink = g_sink + h;
  });
  out.add("common.fnv1a_ns_per_page", fnv, "ns", n,
          "model store_hash_per_page/checksum_per_page");
  out.add("drift.fnv1a", fnv / ns_of(costs.store_hash_per_page), "ratio", n);

  std::vector<crimes::Page> dst(n);
  const double fused = ns_per_unit(budget, n, [&] {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= crimes::copy_and_fnv1a(dst[i].data.data(), in.pages[i].data.data(),
                                  crimes::kPageSize);
    }
    g_sink = g_sink + h + std::uint64_t(dst[n - 1].data[7]);
  });
  out.add("common.copy_fnv1a_ns_per_page", fused, "ns", n,
          "model cow_fused_hash_per_page");
  out.add("drift.copy_fnv1a", fused / ns_of(costs.cow_fused_hash_per_page),
          "ratio", n);

  // Guest write path: 8-byte writes at seeded offsets, plain and as CoW
  // first touches (the handler copies the page aside, as the drain does).
  {
    ProbeVm probe(in.pages);
    probe.vm->enable_log_dirty();
    std::vector<crimes::Paddr> addrs;
    for (std::size_t i = 0; i < 4096; ++i) {
      const std::uint64_t r = derive(seed, 5000 + i);
      addrs.push_back(crimes::Paddr{(r % n) * crimes::kPageSize +
                                    ((r >> 20) % (crimes::kPageSize / 8)) * 8});
    }
    std::uint64_t value = seed;
    const double plain = ns_per_unit(budget, addrs.size(), [&] {
      for (const crimes::Paddr a : addrs) {
        probe.vm->write_phys_value<std::uint64_t>(a, ++value);
      }
    });
    out.add("hypervisor.write_phys_ns", plain, "ns", addrs.size());

    std::vector<crimes::Page> aside(n);
    crimes::MemoryEventMonitor& monitor = probe.vm->monitor();
    double cow_ms = 0.0;
    std::size_t touches = 0;
    while (cow_ms < budget) {
      monitor.cow_protect(probe.pfns, [&](crimes::Pfn pfn) {
        aside[pfn.value()] = probe.vm->page(pfn);
      });
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        probe.vm->write_phys_value<std::uint64_t>(
            crimes::Paddr{i * crimes::kPageSize + 64}, ++value);
      }
      cow_ms += ms_between(t0, Clock::now());
      touches += n;
      monitor.cow_unprotect_all();
    }
    const double cow = cow_ms * 1e6 / double(touches);
    out.add("hypervisor.write_phys_cow_ns", cow, "ns", touches,
            "model cow_first_touch_per_page");
    out.add("drift.write_phys_cow", cow / ns_of(costs.cow_first_touch_per_page),
            "ratio", touches);
  }

  // Dirty-bitmap scans over a 1 GiB guest at the workload's density.
  {
    const std::size_t pages = 262144;
    const double density =
        in.guest_pages == 0 ? 0.0 : in.dirty_per_epoch / double(in.guest_pages);
    const std::size_t marks = static_cast<std::size_t>(density * pages);
    crimes::DirtyBitmap bitmap(pages);
    for (std::size_t i = 0; bitmap.dirty_count() < marks; ++i) {
      bitmap.mark(crimes::Pfn{derive(seed, 9000 + i) % pages});
    }
    const std::size_t set = bitmap.dirty_count();
    const double chunked = ns_per_unit(budget, 1, [&] {
      g_sink = g_sink + bitmap.scan_chunked().size();
    }) / 1e3;
    const double simd = ns_per_unit(budget, 1, [&] {
      g_sink = g_sink + bitmap.scan_simd().size();
    }) / 1e3;
    const double chunked_model =
        ns_of(costs.bitscan_chunked_cost(bitmap.word_count(), set)) / 1e3;
    const double simd_model =
        ns_of(costs.bitscan_simd_cost(bitmap.word_count(), set)) / 1e3;
    out.add("hypervisor.scan_chunked_us", chunked, "us", set,
            "model bitscan_per_word");
    out.add("hypervisor.scan_simd_us", simd, "us", set,
            "model bitscan_simd_per_word");
    out.add("drift.scan_chunked", chunked / chunked_model, "ratio", set);
    out.add("drift.scan_simd", simd / simd_model, "ratio", set);
  }

  out.add("vmi.process_list_us", in.vmi_process_list_us, "us",
          in.vmi_processes);

  // Sealed store append, seal, seal audit and journal fsck on generations
  // of the captured pages, each generation rewriting one word per page so
  // every append interns fresh (delta-encoded) content.
  ProbeVm probe(in.pages);
  crimes::ForeignMapping image(*probe.vm);
  crimes::store::StoreConfig config;
  config.enabled = true;
  config.retention.keep_last = 1u << 20;  // keep everything for the audit
  config.crypto.seal = true;
  crimes::store::CheckpointStore store(costs, config);
  crimes::replication::StoreJournal journal(costs);
  const crimes::VcpuState vcpu{};
  (void)store.seed(0, image, vcpu, Nanos{0});
  (void)journal.log_seed(0, Nanos{0}, image, vcpu);
  std::uint64_t epoch = 0;
  double append_ms = 0.0;
  std::uint64_t value = seed;
  while (append_ms < budget) {
    ++epoch;
    for (const crimes::Pfn pfn : probe.pfns) {
      probe.vm->write_phys_value<std::uint64_t>(
          crimes::Paddr{pfn.value() * crimes::kPageSize + (epoch % 512) * 8},
          ++value);
    }
    const Clock::time_point t0 = Clock::now();
    (void)store.append(epoch, probe.pfns, image, vcpu, Nanos{0}, nullptr);
    append_ms += ms_between(t0, Clock::now());
    (void)journal.log_append(epoch, Nanos{0}, probe.pfns, image, vcpu);
  }
  const std::size_t appended = epoch * n;
  const double append_us = append_ms * 1e3 / double(appended);
  out.add("store.append_us_per_page", append_us, "us", appended,
          "model store_hash_per_page+store_encode_per_page");
  out.add("drift.store_append",
          append_us * 1e3 / ns_of(costs.store_hash_per_page +
                                  costs.store_encode_per_page),
          "ratio", appended);

  const Clock::time_point a0 = Clock::now();
  const crimes::store::CheckpointStore::SealAudit audit = store.audit_seals();
  const double audit_ms = ms_between(a0, Clock::now());
  out.add("store.audit_seals_ms", audit_ms, "ms", store.stats().pages_unique,
          "model SealAudit::cost");
  out.add("drift.audit_seals",
          audit.cost.count() == 0 ? 0.0 : audit_ms * 1e6 / ns_of(audit.cost),
          "ratio", store.stats().pages_unique);

  const std::size_t records = journal.records();
  const Clock::time_point f0 = Clock::now();
  const auto report = journal.fsck();
  const double fsck_us = ms_between(f0, Clock::now()) * 1e3 / double(records);
  g_sink = g_sink + static_cast<std::uint64_t>(report.ok);
  out.add("replication.fsck_us_per_record", fsck_us, "us", records,
          "model journal_scan_per_record");
  out.add("drift.fsck", fsck_us * 1e3 / ns_of(costs.journal_scan_per_record),
          "ratio", records);

  crimes::crypto::PageSealer sealer(config.crypto.tenant_key);
  std::vector<std::byte> payload(in.pages[0].data.begin(),
                                 in.pages[0].data.end());
  std::uint64_t tweak = 1;
  const double seal = ns_per_unit(budget, 1, [&] {
    g_sink = g_sink + sealer.seal(payload, ++tweak);
  });
  out.add("crypto.seal_ns_per_page", seal, "ns", 1,
          "model crypto_seal_per_page");
  out.add("drift.crypto_seal", seal / ns_of(costs.crypto_seal_per_page),
          "ratio", 1);
}

// --- Machine-speed calibration ---------------------------------------------

// Benchmark hosts are often shared VMs. On a 4-vCPU Xeon VM the speed
// drifted by up to ~40% over minutes (slower clocks and more cache and
// memory traffic from other tenants, not steal time), and that drift, not
// the inputs, set the run-to-run spread of every host-time metric. Two
// fixed kernels owned by the benchmark -- nothing in src/ runs them, so no
// change to the simulator moves them -- are timed before every repetition
// and set-up batch. Their geometric mean tracks the drift: a byte-wise
// FNV-1a chain in L1 (clock speed) and random 4 KiB copies between two
// 64 MiB buffers (cache and memory contention). The gated host-time
// metrics are scaled by kReferenceSpeedMs / (the run's median
// calibration), i.e. reported at the reference speed; the raw values are
// printed beside them.
constexpr double kReferenceSpeedMs = 1.39;  // its median on a 4-vCPU Xeon VM
constexpr std::size_t kCalibrationBytes = 64u << 20;

class Calibration {
 public:
  Calibration() {
    const long before = resident_pages();
    src_.assign(kCalibrationBytes, 1);
    dst_.assign(kCalibrationBytes, 2);
    resident_mb_ = double(resident_pages() - before) *
                   double(sysconf(_SC_PAGESIZE)) / double(1 << 20);
  }

  void sample() {
    for (int i = 0; i < 3; ++i) {
      samples_.push_back(std::sqrt(alu_ms() * mem_ms()));
    }
  }
  [[nodiscard]] double speed_ms() const { return median(samples_); }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }
  // Host times are multiplied by this, rates divided by it.
  [[nodiscard]] double factor() const { return kReferenceSpeedMs / speed_ms(); }
  // Resident memory the buffers take, which peak_rss_mb leaves out.
  [[nodiscard]] double resident_mb() const { return resident_mb_; }

 private:
  static long resident_pages() {
    long size = 0;
    long resident = 0;
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f != nullptr) {
      if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
      std::fclose(f);
    }
    return resident;
  }

  double alu_ms() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t h = 1469598103934665603ULL;
    for (int round = 0; round < 256; ++round) {
      for (std::size_t i = 0; i < 4096; ++i) {
        h = (h ^ src_[i]) * 1099511628211ULL;
      }
    }
    g_sink = g_sink + h;
    return ms_between(t0, Clock::now());
  }

  double mem_ms() {
    constexpr std::size_t pages = kCalibrationBytes / 4096;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < 1024; ++k) {
      const std::size_t from = derive(11, k) % pages;
      const std::size_t to = derive(13, k) % pages;
      std::memcpy(dst_.data() + to * 4096, src_.data() + from * 4096, 4096);
    }
    g_sink = g_sink + dst_[derive(1, 1) % kCalibrationBytes];
    return ms_between(t0, Clock::now());
  }

  std::vector<std::uint8_t> src_;
  std::vector<std::uint8_t> dst_;
  std::vector<double> samples_;
  double resident_mb_ = 0.0;
};

// --- Run -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--spans-out") {
      args.spans_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

std::vector<double> pooled(std::span<const Rep> reps,
                           std::vector<double> Rep::*field) {
  std::vector<double> out;
  for (const Rep& r : reps) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

// Peak resident set after the set-up samples and one repetition of each
// scenario. Read then, not at exit, so that it does not depend on how many
// repetitions fit into the window.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void end_to_end(WorkloadKind kind, const std::vector<Rep>& reps,
                std::vector<double> setup, double rss_mb,
                const Calibration& calibration, Report& out) {
  // Virtual metrics pool the first repetition of each scenario; later
  // repetitions reproduce them exactly.
  const std::span<const Rep> first(reps.data(), kScenarios);
  double epochs = 0.0;
  double wall = 0.0;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    epochs += double(r.sim_epochs);
    wall += r.run_wall_s;
  }
  double stall = 0.0;
  double interval = 0.0;
  double req_per_s = 0.0;
  double protected_share = 0.0;
  for (const Rep& r : first) {
    stall += r.stall_sum_ms;
    interval += r.interval_sum_ms;
    req_per_s += r.req_per_s / double(kScenarios);
    protected_share += r.protected_share / double(kScenarios);
  }
  const std::vector<double> epoch_wall = pooled(reps, &Rep::epoch_wall_ms);
  const std::vector<double> pause = pooled(first, &Rep::pause_ms);
  // Host time: each metric at the reference speed, then as measured.
  const auto host_time = [&](const std::string& name, double raw,
                             const std::string& unit, std::size_t n,
                             bool per_second = false) {
    const double f = calibration.factor();
    out.add(name, per_second ? raw / f : raw * f, unit, n,
            "at reference speed");
    out.add(name + ".raw", raw, unit, n, "as measured");
  };
  host_time("setup_s", median(setup), "s", setup.size());
  host_time("epoch_wall_p50_ms", quantile(epoch_wall, 0.5), "ms",
            epoch_wall.size());
  host_time("epoch_wall_p90_ms", quantile(epoch_wall, 0.9), "ms",
            epoch_wall.size());
  host_time("sim_epochs_per_s", epochs / wall, "1/s",
            static_cast<std::size_t>(epochs), /*per_second=*/true);
  out.add("calibration.speed_ms", calibration.speed_ms(), "ms",
          calibration.samples(), "median; the reference is 1.39 ms");
  out.add("peak_rss_mb", rss_mb - calibration.resident_mb(), "MB", 1,
          "after one repetition per scenario, calibration buffers excluded");
  out.add("pause_p50_ms", quantile(pause, 0.5), "ms", pause.size(), "virtual");
  out.add("pause_p90_ms", quantile(pause, 0.9), "ms", pause.size(), "virtual");
  out.add("overhead_pct", 100.0 * stall / interval, "%", pause.size(),
          "virtual");
  switch (kind) {
    case WorkloadKind::WebSync: {
      const std::vector<double> req = pooled(first, &Rep::req_ms);
      out.add("req_p50_ms", quantile(req, 0.5), "ms", req.size(), "virtual");
      out.add("req_p90_ms", quantile(req, 0.9), "ms", req.size(), "virtual");
      out.add("req_per_s", req_per_s, "1/s", req.size(), "virtual");
      break;
    }
    case WorkloadKind::HostOverload:
      out.add("protected_share", protected_share, "share",
              static_cast<std::size_t>(epochs), "virtual");
      break;
    case WorkloadKind::AttackResponse: {
      const std::vector<double> response = pooled(reps, &Rep::response_wall_ms);
      const std::vector<double> detect = pooled(first, &Rep::detect_ms);
      const std::vector<double> pinpoint = pooled(first, &Rep::pinpoint_ms);
      out.add("response_wall_ms", median(response), "ms", response.size());
      out.add("detect_ms", median(detect), "ms", detect.size(), "virtual");
      out.add("pinpoint_ms", median(pinpoint), "ms", pinpoint.size(),
              "virtual");
      break;
    }
    case WorkloadKind::CowFluid:
      break;
  }
}

void per_layer(WorkloadKind kind, const std::vector<Rep>& traced,
               const std::vector<Rep>& untraced, Report& out) {
  const std::vector<double> run_epoch = pooled(traced, &Rep::run_epoch_ms);
  const std::vector<double> scans = pooled(traced, &Rep::scan_ms);
  const std::vector<double> self = pooled(traced, &Rep::self_ms);
  double in_workload = 0.0;
  double wall = 0.0;
  std::vector<double> tails;
  std::map<std::string, std::vector<double>> setup_spans;
  std::map<std::string, std::vector<double>> modules;
  for (const Rep& r : traced) {
    in_workload += r.run_epoch_total_ms;
    wall += r.run_wall_s * 1e3;
    tails.push_back(r.run_tail_ms);
    for (const auto& [name, d] : r.setup_spans) setup_spans[name].push_back(d);
    for (const auto& [name, v] : r.scan_module_ms) {
      modules[name].insert(modules[name].end(), v.begin(), v.end());
    }
  }
  for (const auto& [name, v] : setup_spans) {
    out.add(name + "_ms", median(v), "ms", v.size(), "set-up span");
  }
  out.add("workload.run_epoch_ms", median(run_epoch), "ms", run_epoch.size());
  out.add("workload.wall_share", in_workload / wall, "share", traced.size());
  out.add("detect.scan_ms", median(scans), "ms", scans.size());
  for (const auto& [name, v] : modules) {
    out.add("detect.scan_ms." + name, median(v), "ms", v.size());
  }
  out.add("core.pipeline_self_ms", median(self), "ms", self.size());
  out.add("core.run_tail_ms", median(tails), "ms", tails.size());
  if (kind == WorkloadKind::HostOverload) {
    // The Critical tenant's epoch window is one host round.
    const std::vector<double> rounds = pooled(traced, &Rep::epoch_wall_ms);
    out.add("cloud.round_ms", quantile(rounds, 0.9), "ms", rounds.size(),
            "p90");
  }
  if (kind == WorkloadKind::AttackResponse) {
    const std::vector<double> r = pooled(traced, &Rep::response_wall_ms);
    out.add("core.response_ms", median(r), "ms", r.size());
  }
  const std::vector<double> traced_wall = pooled(traced, &Rep::epoch_wall_ms);
  const std::vector<double> plain_wall = pooled(untraced, &Rep::epoch_wall_ms);
  const double t50 = median(traced_wall);
  const double u50 = median(plain_wall);
  char note[96];
  std::snprintf(note, sizeof note,
                "epoch wall p50 %.4f ms traced vs %.4f ms untraced", t50, u50);
  out.add("trace.overhead_pct", 100.0 * (t50 / u50 - 1.0), "%",
          traced_wall.size(), note);
  // Deterministic counts and virtual phases (identical in every repetition).
  for (const auto& [name, v] : traced.front().layer) {
    const bool is_ms = name.size() > 3 &&
                       name.compare(name.size() - 3, 3, "_ms") == 0;
    out.add(name, v, is_ms ? "ms" : "count", traced.front().ops, "virtual");
  }
}

void print_table(const char* workload, const Args& args, const Report& r) {
  std::printf("crimes benchmark: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("%-40s %16s %-6s %8s  %s\n", "metric", "value", "unit", "n",
              "note");
  for (const Metric& m : r.metrics()) {
    std::printf("%-40s %16.6f %-6s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
}

// Prints the result line; every metric in `names` must have been produced.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Report& r, const std::vector<std::string>& names) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = r.find(name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m->value, m->unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

bool write_spans(const std::string& path, const SpanLog& spans,
                 Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans.spans()) {
    out << "{\"name\": \"" << s.name << "\", \"epoch\": " << s.epoch
        << ", \"start_us\": " << ms_between(origin, s.start) * 1e3
        << ", \"end_us\": " << ms_between(origin, s.end) * 1e3 << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadKind kind{};
  if (!parse_args(argc, argv, args) || !parse_workload(args.workload, kind)) {
    std::fprintf(stderr,
                 "usage: crimes_bench --workload "
                 "cow-fluid|web-sync|host-overload|attack-response --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  // glibc's dynamic mmap threshold rises as large blocks are freed, and
  // heap trimming follows it, so whether a 16 MiB frame chunk reuses heap
  // memory or faults in fresh pages -- and with it set-up time and
  // peak_rss_mb -- would depend on the allocation history of the run.
  // Fixed: every block of 16 MiB or more (frame chunks, memory dumps) gets
  // its own mapping, as in a new process, and the heap of smaller blocks
  // is not trimmed.
  mallopt(M_MMAP_THRESHOLD, 16 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Calibration calibration;
  const Clock::time_point origin = Clock::now();
  SpanLog spans;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> references;  // each scenario's virtual outputs
  double rss_mb = 0.0;

  // Set-up alone, many times, at the start and again at the end of the
  // run: a run fits only a few full repetitions of the long workloads, too
  // few for a steady median.
  std::vector<double> setups;
  const auto sample_setups = [&] {
    RepOptions options;
    options.kind = kind;
    options.setup_only = true;
    calibration.sample();
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
      options.seed = derive(args.seed, i % kScenarios);
      setups.push_back(run_rep(options).setup_s);
    }
  };
  if (!args.trace) sample_setups();

  // Alternate traced and untraced repetitions under --trace 1, so drift in
  // the host's speed lands on both sides of the overhead ratio; each
  // scenario then runs traced and untraced back to back.
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 0;
    const std::size_t scenario = (args.trace ? i / 2 : i) % kScenarios;
    RepOptions options;
    options.kind = kind;
    options.seed = derive(args.seed, scenario);
    options.spans = trace_this ? &spans : nullptr;
    options.capture_probe_inputs = trace_this && traced.empty();
    calibration.sample();
    const Clock::time_point rep_start = Clock::now();
    Rep rep = run_rep(options);
    std::fprintf(stderr,
                 "rep %zu%s: set-up %.3f s, run %.3f s, total %.3f s, "
                 "epoch wall p50 %.4f ms\n",
                 i, trace_this ? " (traced)" : "", rep.setup_s,
                 rep.run_wall_s, ms_between(rep_start, Clock::now()) / 1e3,
                 quantile(rep.epoch_wall_ms, 0.5));
    // A failed check fails every operation of its repetition, except on
    // attack-response, whose checks are per episode.
    std::size_t rep_failed =
        rep.errors.empty() || kind == WorkloadKind::AttackResponse
            ? rep.failed_ops
            : rep.ops;
    if (i + 1 == kScenarios) rss_mb = peak_rss_mb();
    if (scenario == references.size()) {
      references.push_back(rep.fingerprint);
    } else if (rep.fingerprint != references[scenario]) {
      rep.errors.push_back("virtual outputs differ between repetitions");
      rep_failed = rep.ops;
    }
    attempted += rep.ops;
    failed += rep_failed;
    for (const std::string& e : rep.errors) errors.push_back(e);
    (trace_this ? traced : untraced).push_back(std::move(rep));
    const bool enough = args.trace ? !untraced.empty()
                                   : untraced.size() >= kScenarios;
    if (enough && ms_between(origin, Clock::now()) >= args.seconds * 1e3) {
      break;
    }
  }

  if (!args.trace) sample_setups();

  Report report;
  if (args.trace) {
    per_layer(kind, traced, untraced, report);
    run_probes(traced.front().probe, args.seed, report);
  } else {
    end_to_end(kind, untraced, setups, rss_mb, calibration, report);
  }
  print_table(args.workload.c_str(), args, report);
  if (args.trace && !args.spans_out.empty()) {
    if (write_spans(args.spans_out, spans, origin)) {
      std::printf("wrote %zu spans to %s\n", spans.spans().size(),
                  args.spans_out.c_str());
    } else {
      errors.push_back("could not write spans to " + args.spans_out);
    }
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const std::vector<std::string>& names = args.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : names) {
    if (report.find(name) == nullptr) {
      std::fprintf(stderr, "metric %s was not produced\n", name.c_str());
      return 1;
    }
  }
  const bool correct = errors.empty();
  print_result(correct, attempted, failed, report, names);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
