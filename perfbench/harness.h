// Workload drivers shared by the benchmark (bench.cpp) and its wrapper
// transparency test (transparency_test.cpp).
//
// Every layer is measured from outside the library: the harness times its
// own calls into public functions, and the two interfaces the caller
// supplies -- Workload and ScanModule -- are wrapped by thin forwarders
// that stamp the host clock around each callback. A wrapper forwards every
// virtual, so the simulator's virtual-time outputs are byte-identical to an
// unwrapped run (the transparency test holds the harness to that).
#pragma once

#include "cloud/cloud_host.h"
#include "core/crimes.h"
#include "detect/canary_scan.h"
#include "detect/hidden_process_scan.h"
#include "detect/syscall_integrity_scan.h"
#include "workload/overflow.h"
#include "workload/parsec.h"
#include "workload/web_server.h"
#include "workload/wrk_client.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear-interpolated quantile (the "type 7" definition), q in [0, 1].
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

// SplitMix64: derives every input of a run from the --seed argument.
[[nodiscard]] inline std::uint64_t derive(std::uint64_t seed,
                                          std::uint64_t salt) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// One host-clock interval recorded by the harness. `epoch` is the index of
// the owning workload's epoch (-1 for set-up and run-level spans).
struct Span {
  std::string name;
  long epoch = -1;
  Clock::time_point start;
  Clock::time_point end;
};

// Spans kept in memory and written out when the benchmark ends. A null
// SpanLog* means tracing is off: wrappers then record only the timestamps
// the end-to-end metrics need.
class SpanLog {
 public:
  void add(std::string name, long epoch, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({std::move(name), epoch, start, end});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// One call into Workload::run_epoch.
struct EpochCall {
  crimes::Nanos start{0};     // virtual start the simulator passed in
  crimes::Nanos duration{0};  // virtual epoch length
  Clock::time_point enter;
  Clock::time_point exit;
};

// One call into ScanModule::scan.
struct ScanCall {
  std::string module;
  Clock::time_point enter;
  Clock::time_point exit;
};

class TimedWorkload final : public crimes::Workload {
 public:
  TimedWorkload(crimes::Workload& inner, SpanLog* spans)
      : inner_(&inner), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void run_epoch(crimes::Nanos start, crimes::Nanos duration) override {
    EpochCall call{start, duration, Clock::now(), {}};
    inner_->run_epoch(start, duration);
    call.exit = Clock::now();
    if (spans_ != nullptr) {
      spans_->add("workload.run_epoch", static_cast<long>(calls_.size()),
                  call.enter, call.exit);
    }
    calls_.push_back(call);
  }
  [[nodiscard]] bool finished() const override { return inner_->finished(); }
  [[nodiscard]] std::uint64_t total_accesses() const override {
    return inner_->total_accesses();
  }
  void set_intensity(double factor) override {
    inner_->set_intensity(factor);
  }

  [[nodiscard]] const std::vector<EpochCall>& calls() const { return calls_; }

 private:
  crimes::Workload* inner_;
  SpanLog* spans_;
  std::vector<EpochCall> calls_;
};

class TimedScan final : public crimes::ScanModule {
 public:
  TimedScan(std::unique_ptr<crimes::ScanModule> inner,
            const TimedWorkload& owner, std::vector<ScanCall>& sink,
            SpanLog* spans)
      : inner_(std::move(inner)),
        name_(inner_->name()),
        owner_(&owner),
        sink_(&sink),
        spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] crimes::ScanResult scan(crimes::ScanContext& ctx) override {
    // The audit follows the epoch it checks: key it to that epoch.
    const long epoch = static_cast<long>(owner_->calls().size()) - 1;
    const Clock::time_point enter = Clock::now();
    crimes::ScanResult result = inner_->scan(ctx);
    const Clock::time_point exit = Clock::now();
    if (spans_ != nullptr) {
      spans_->add("detect.scan." + name_, epoch, enter, exit);
    }
    sink_->push_back({name_, enter, exit});
    return result;
  }

 private:
  std::unique_ptr<crimes::ScanModule> inner_;
  std::string name_;
  const TimedWorkload* owner_;
  std::vector<ScanCall>* sink_;
  SpanLog* spans_;
};

// --- Workloads --------------------------------------------------------------

enum class WorkloadKind { CowFluid, WebSync, HostOverload, AttackResponse };

[[nodiscard]] bool parse_workload(const std::string& name, WorkloadKind& out);
[[nodiscard]] const char* workload_name(WorkloadKind kind);

struct RepOptions {
  WorkloadKind kind = WorkloadKind::CowFluid;
  std::uint64_t seed = 1;
  bool wrap = true;           // false: run the bare Workload/ScanModule objects
  SpanLog* spans = nullptr;   // non-null: traced rep
  // Scaled-down rep for the transparency test (fewer epochs/episodes).
  bool short_run = false;
  // Stop after set-up (set-up time is sampled more often than a full
  // repetition fits into a run).
  bool setup_only = false;
  // Capture the layer probes' inputs (Rep::probe) from this repetition.
  bool capture_probe_inputs = false;
};

// Inputs the layer probes take from a workload's own run.
struct ProbeInputs {
  std::vector<crimes::Page> pages;  // a sample of the guest's backed pages
  double dirty_per_epoch = 0.0;     // mean dirty pages per checkpoint
  std::size_t guest_pages = 0;      // size of the scanned guest
  std::size_t vmi_processes = 0;
  double vmi_process_list_us = 0.0;  // measured on the live VMI session
};

// Everything one repetition of a workload produced. Virtual-time fields are
// deterministic for a seed; host-time fields are measurements.
struct Rep {
  // --- Host time.
  double setup_s = 0.0;
  std::vector<std::pair<std::string, double>> setup_spans;  // name, ms
  double run_wall_s = 0.0;        // the timed run() call(s)
  std::vector<double> epoch_wall_ms;   // successive run_epoch entries
  std::vector<double> run_epoch_ms;    // all wrappers' run_epoch per window
  std::vector<double> scan_ms;         // scans per window
  std::map<std::string, std::vector<double>> scan_module_ms;
  std::vector<double> self_ms;         // window - run_epoch - scans
  double run_epoch_total_ms = 0.0;     // summed over every wrapper
  double run_tail_ms = 0.0;            // last run_epoch return -> run() return
  std::vector<double> response_wall_ms;  // attack-response, per episode

  // --- Virtual time (deterministic).
  std::size_t sim_epochs = 0;      // epochs (tenant-epochs on host-overload)
  std::size_t ops = 0;             // attempted operations
  std::size_t failed_ops = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<double> pause_ms;    // guest-visible stall per epoch
  double stall_sum_ms = 0.0;
  double interval_sum_ms = 0.0;
  std::vector<double> req_ms;      // web-sync request latencies
  double req_per_s = 0.0;
  double protected_share = 0.0;
  std::vector<double> detect_ms;   // attack-response, per episode
  std::vector<double> pinpoint_ms;
  // Per-layer counts and virtual phases (ms per checkpoint), by name.
  std::map<std::string, double> layer;
  // Canonical rendering of every virtual output: RunSummary fields, client
  // stats, attack timelines and the per-epoch (start, interval) stream.
  std::string fingerprint;

  ProbeInputs probe;
};

[[nodiscard]] Rep run_rep(const RepOptions& options);

}  // namespace perfbench
