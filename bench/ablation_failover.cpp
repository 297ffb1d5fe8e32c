// Replication ablation: sweep the failover-storm fault rate and measure
// what standby replication costs and what failover loses (DESIGN.md
// section 11, EXPERIMENTS.md `ablation_failover`).
//
// Every run streams committed generations to a warm standby; a
// FaultPlan::failover_storm at rate r drops heartbeats (rate r), tears
// journal writes (r/2) and partitions the replication link (r/4) over the
// first `kFaultEpochs` epochs, and a scheduled PrimaryKill fires at epoch
// `kKillEpoch` so every run ends in a promotion -- either the kill's
// failover or, if a partition fenced the primary first, a split-brain
// promotion. Reported per rate:
//
//   repl/drop   generations replicated vs dropped on a partitioned link
//   stall_ms    commit-time backpressure (the in-flight window was full)
//   lag         peak committed-but-unacked generations in flight
//   fail_ms     detection-to-promotion time for the run's failover
//   gen         the generation the standby promoted from
//   discard     output packets discarded instead of released (fenced or
//               never covered by a replicated generation)
//   tamper      seal/attestation verification failures (always 0 here:
//               this storm is accidental, not adversarial -- the
//               adversarial sweep is bench/ablation_tamper_sweep)
//
// Everything runs in virtual time: the table is identical on every
// machine. Self-checks print PASS/FAIL lines: same-seed determinism, the
// output-safety property (every run's released stream is a prefix of the
// fault-free run's -- nothing a failover could lose was ever released),
// promotion in every killed run, and a clean journal fsck everywhere.
//
// With --trace-out/--metrics-out, re-runs the rate-0.10 point with the
// telemetry layer on and exports the Chrome trace / metrics JSONL (this is
// how scripts/check_trace.py validates the replicate/journal/failover
// spans end to end).
#include "common/hash.h"
#include "core/crimes.h"
#include "replication/store_journal.h"
#include "telemetry/export.h"

#include <cstdio>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace crimes;

constexpr Nanos kInterval = millis(50);
constexpr std::size_t kEpochs = 24;
constexpr std::size_t kFaultEpochs = 16;
constexpr std::size_t kKillEpoch = 20;  // after the storm window

// One packet per epoch with an epoch-numbered payload: the prefix
// self-check compares released streams packet by packet.
class EpochTalker : public Workload {
 public:
  EpochTalker(GuestKernel& kernel, VirtualNic& nic, std::size_t epochs)
      : kernel_(&kernel), nic_(&nic), remaining_(epochs) {
    buffer_ = kernel_->heap().malloc(kPageSize);
  }
  [[nodiscard]] std::string name() const override { return "epoch-talker"; }
  void run_epoch(Nanos start, Nanos /*duration*/) override {
    if (remaining_ == 0) return;
    --remaining_;
    ++epoch_;
    // Writes keyed to the epoch number, never the clock: failover handling
    // stretches virtual time without changing guest contents.
    for (std::size_t i = 0; i < 8; ++i) {
      kernel_->write_value<std::uint64_t>(
          buffer_ + (i * 64) % kPageSize,
          (static_cast<std::uint64_t>(epoch_) << 8) + i);
    }
    Packet packet;
    packet.kind = PacketKind::Data;
    packet.size_bytes = 256;
    packet.payload = "out-" + std::to_string(epoch_);
    nic_->send(std::move(packet), start);
  }
  [[nodiscard]] bool finished() const override { return remaining_ == 0; }

 private:
  GuestKernel* kernel_;
  VirtualNic* nic_;
  Vaddr buffer_{0};
  std::size_t remaining_;
  std::size_t epoch_ = 0;
};

// page_hash chained over every page, in PFN order; a never-written page
// folds in a marker instead, so the fingerprint also pins which frames
// exist.
std::uint64_t vm_fingerprint(const Vm& vm) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    const Pfn pfn{i};
    h = vm.is_backed(pfn) ? page_hash(vm.page(pfn).bytes(), h)
                          : page_hash({}, h ^ 0x9E);
  }
  return h;
}

struct SweepPoint {
  double rate = 0.0;
  RunSummary summary;
  std::size_t max_in_flight = 0;
  std::uint64_t standby_hash = 0;
  std::vector<std::string> released;
  bool fsck_ok = false;
};

CrimesConfig make_config(double rate, bool kill, std::uint64_t seed) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(kInterval);
  config.checkpoint.store.enabled = true;
  config.checkpoint.store.journal = true;
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.replication.enabled = true;
  config.replication.heartbeat.interval = kInterval;
  config.replication.lease_term = millis(200);
  fault::FaultPlan plan;
  if (rate > 0.0) {
    plan = fault::FaultPlan::failover_storm(rate, 0, kFaultEpochs, seed);
  }
  if (kill) {
    plan.scheduled.push_back({.epoch = kKillEpoch,
                              .kind = fault::FaultKind::PrimaryKill,
                              .module = ""});
  }
  config.faults = plan;
  return config;
}

SweepPoint run_one(double rate, bool kill = true, std::uint64_t seed = 3) {
  Hypervisor hypervisor(1u << 19);
  GuestConfig gc;
  gc.page_count = 4096;
  Vm& vm = hypervisor.create_domain("guest", gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();

  Crimes crimes(hypervisor, kernel, make_config(rate, kill, seed));
  EpochTalker app(kernel, crimes.nic(), kEpochs);
  crimes.set_workload(&app);
  crimes.initialize();

  SweepPoint point;
  point.rate = rate;
  point.summary = crimes.run(kInterval * static_cast<std::int64_t>(kEpochs));
  point.max_in_flight = crimes.replicator()->max_in_flight();
  point.standby_hash = vm_fingerprint(crimes.standby()->vm());
  for (const DeliveredPacket& d : crimes.network().log()) {
    point.released.push_back(d.packet.payload);
  }
  point.fsck_ok = crimes.checkpointer().journal()->fsck().ok;
  return point;
}

// The rate-0.10 point again, telemetry on, exported for check_trace.py.
int run_traced(const std::string& trace_out, const std::string& metrics_out) {
  Hypervisor hypervisor(1u << 19);
  GuestConfig gc;
  gc.page_count = 4096;
  Vm& vm = hypervisor.create_domain("guest", gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();

  CrimesConfig config = make_config(0.1, /*kill=*/true, /*seed=*/3);
  config.telemetry = true;
  Crimes crimes(hypervisor, kernel, config);
  EpochTalker app(kernel, crimes.nic(), kEpochs);
  crimes.set_workload(&app);
  crimes.initialize();
  // Registered up front so the failover/freeze paths flush mid-run: even
  // if the process died right after the promotion, the files on disk
  // would parse.
  crimes.telemetry()->set_export_paths(trace_out, metrics_out);
  (void)crimes.run(kInterval * static_cast<std::int64_t>(kEpochs));

  if (!crimes.telemetry()->flush_exports()) {
    std::fprintf(stderr, "failed to write telemetry exports\n");
    return 1;
  }
  if (!trace_out.empty()) {
    std::printf("traced rate-0.10 run written to %s\n", trace_out.c_str());
  }
  return 0;
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

  std::printf("CRIMES replication ablation: failover-storm sweep\n");
  std::printf(
      "(%zu epochs of %.0f ms; storm over the first %zu epochs; primary "
      "killed at epoch %zu)\n\n",
      kEpochs, to_ms(kInterval), kFaultEpochs, kKillEpoch);
  std::printf("%6s %6s %5s %9s %4s %8s %4s %8s %7s %4s %4s %4s %6s\n",
              "rate", "repl", "drop", "stall_ms", "lag", "fail_ms", "gen",
              "discard", "fenced", "warn", "crit", "pm", "tamper");

  // The output-safety reference: no storm, no kill, every epoch's packet
  // eventually released.
  const SweepPoint reference = run_one(0.0, /*kill=*/false);

  std::vector<SweepPoint> points;
  for (const double rate : {0.0, 0.1, 0.2, 0.4, 0.8}) {
    points.push_back(run_one(rate));
    const SweepPoint& p = points.back();
    std::printf(
        "%6.2f %6zu %5zu %9.3f %4zu %8.3f %4llu %8zu %7zu %4zu %4zu %4zu "
        "%6llu\n",
        p.rate, p.summary.replicated_generations,
        p.summary.replication_dropped, to_ms(p.summary.replication_stall),
        p.max_in_flight, to_ms(p.summary.failover_time),
        static_cast<unsigned long long>(p.summary.promoted_generation),
        p.summary.outputs_discarded, p.summary.fenced_epochs,
        p.summary.slo_warn_epochs, p.summary.slo_critical_epochs,
        p.summary.postmortems_dumped,
        static_cast<unsigned long long>(p.summary.tampers_detected));
  }

  // Self-check 1: same seed, same run -- every observable must match,
  // including the failover instant and the promoted standby's image.
  const SweepPoint a = run_one(0.2);
  const SweepPoint b = run_one(0.2);
  const bool deterministic = a.summary == b.summary &&
                             a.released == b.released &&
                             a.standby_hash == b.standby_hash;
  std::printf("\nself-check determinism (seed 3, rate 0.20): %s\n",
              deterministic ? "PASS" : "FAIL");

  // Self-check 2: output safety. Whatever a run released before dying must
  // be a prefix of the fault-free stream: fencing and release-on-ack mean
  // a failover can discard held outputs but never leak or reorder any.
  bool prefix_safe = true;
  for (const SweepPoint& p : points) {
    if (p.released.size() > reference.released.size()) prefix_safe = false;
    for (std::size_t i = 0; i < p.released.size() && prefix_safe; ++i) {
      if (p.released[i] != reference.released[i]) prefix_safe = false;
    }
  }
  std::printf("self-check released streams prefix the fault-free run: %s\n",
              prefix_safe ? "PASS" : "FAIL");

  // Self-check 3: every killed run actually failed over to its standby.
  bool promoted = true;
  for (const SweepPoint& p : points) {
    if (!p.summary.failed_over || p.summary.promoted_generation == 0 ||
        p.summary.failover_time <= Nanos{0}) {
      promoted = false;
    }
  }
  std::printf("self-check every killed run promoted its standby: %s\n",
              promoted ? "PASS" : "FAIL");

  // Self-check 4: the store journal verifies clean in every run, torn
  // writes included (they are detected and repaired at append time).
  bool fsck_ok = reference.fsck_ok;
  for (const SweepPoint& p : points) fsck_ok = fsck_ok && p.fsck_ok;
  std::printf("self-check journal fsck clean across rates: %s\n",
              fsck_ok ? "PASS" : "FAIL");

  int rc = deterministic && prefix_safe && promoted && fsck_ok ? 0 : 1;
  if (rc == 0 && (!trace_out.empty() || !metrics_out.empty())) {
    rc = run_traced(trace_out, metrics_out);
  }
  return rc;
}
