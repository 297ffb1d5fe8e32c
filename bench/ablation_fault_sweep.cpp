// Resilience ablation: sweep the injected fault rate and measure what the
// recovery machinery costs (DESIGN.md section 9, EXPERIMENTS.md
// `ablation_fault_sweep`).
//
// A FaultPlan::transport_storm at rate r aborts copy attempts (rate r),
// tears backup writes (r/2), errors bitmap reads (r/4), and kills pool
// workers (r/4), confined to the first `kFaultEpochs` epochs so every run
// converges on the same final backup image as the fault-free run. Reported
// per rate:
//
//   faults     injector decisions that fired
//   retries    copy attempts redone after an abort or checksum mismatch
//   failed     epochs whose checkpoint exhausted its retries
//   recovery   virtual time burnt on failure handling (wasted attempts,
//              backoff, undo-log restores, rereads, respawns)
//   degraded   epochs the SafetyGovernor held the pipeline in Best Effort
//   hold       worst output-buffer residency of any packet (a failed
//              checkpoint keeps Synchronous outputs on the host until a
//              commit covers them)
//
// Everything runs in virtual time: the table is identical on every
// machine. Two self-checks print PASS/FAIL lines: same-seed determinism
// and byte-identity of the faulty runs' final backup vs. the clean run.
#include "common/hash.h"
#include "core/crimes.h"
#include "workload/parsec.h"

#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace crimes;

constexpr Nanos kInterval = millis(50);
constexpr std::size_t kEpochs = 24;
constexpr std::size_t kFaultEpochs = 16;  // faults stop; the backlog drains

// One packet per epoch through the output buffer: its worst-case residency
// is the user-visible price of riding out checkpoint failures.
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
    // Dirty a page with values keyed to the epoch *number*, not the clock:
    // fault handling stretches virtual time, and the byte-identity
    // self-check requires the guest's writes to be time-independent.
    for (std::size_t i = 0; i < 8; ++i) {
      kernel_->write_value<std::uint64_t>(
          buffer_ + (i * 64) % kPageSize,
          (static_cast<std::uint64_t>(epoch_) << 8) + i);
    }
    Packet packet;
    packet.kind = PacketKind::Data;
    packet.size_bytes = 256;
    packet.payload = "epoch output";
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

// page_hash chained over every backup page, in PFN order; a
// never-written page folds in a marker instead, so the fingerprint also
// pins which frames exist.
std::uint64_t backup_fingerprint(Crimes& crimes) {
  const Vm& backup = crimes.checkpointer().backup();
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < backup.page_count(); ++i) {
    const Pfn pfn{i};
    h = backup.is_backed(pfn) ? page_hash(backup.page(pfn).bytes(), h)
                              : page_hash({}, h ^ 0x9E);
  }
  return h;
}

struct SweepPoint {
  double rate = 0.0;
  RunSummary summary;
  double max_hold_ms = 0.0;
  std::uint64_t backup_hash = 0;
};

SweepPoint run_one(double rate, std::uint64_t seed = 1) {
  Hypervisor hypervisor(1u << 19);
  GuestConfig gc;
  gc.page_count = 4096;
  Vm& vm = hypervisor.create_domain("guest", gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();

  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(kInterval);
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  if (rate > 0.0) {
    config.faults =
        fault::FaultPlan::transport_storm(rate, 0, kFaultEpochs, seed);
  }

  Crimes crimes(hypervisor, kernel, config);
  EpochTalker app(kernel, crimes.nic(), kEpochs);
  crimes.set_workload(&app);
  crimes.initialize();

  SweepPoint point;
  point.rate = rate;
  point.summary = crimes.run(kInterval * static_cast<std::int64_t>(kEpochs));
  for (const DeliveredPacket& d : crimes.network().log()) {
    const double hold = to_ms(d.released_at - d.packet.sent_at);
    if (hold > point.max_hold_ms) point.max_hold_ms = hold;
  }
  point.backup_hash = backup_fingerprint(crimes);
  return point;
}

}  // namespace

int main() {
  std::printf("CRIMES resilience ablation: transport-storm fault sweep\n");
  std::printf(
      "(%zu epochs of %.0f ms; faults confined to the first %zu epochs)\n\n",
      kEpochs, to_ms(kInterval), kFaultEpochs);
  std::printf(
      "%6s %7s %8s %7s %12s %9s %10s %10s\n", "rate", "faults", "retries",
      "failed", "recovery_ms", "degraded", "hold_ms", "norm_rt");

  std::vector<SweepPoint> points;
  for (const double rate : {0.0, 0.05, 0.1, 0.2, 0.4, 0.8}) {
    points.push_back(run_one(rate));
    const SweepPoint& p = points.back();
    std::printf("%6.2f %7llu %8zu %7zu %12.3f %9zu %10.3f %10.3f\n", p.rate,
                static_cast<unsigned long long>(p.summary.faults_injected),
                p.summary.copy_retries, p.summary.checkpoint_failures,
                to_ms(p.summary.recovery_time), p.summary.degraded_epochs,
                p.max_hold_ms, p.summary.normalized_runtime());
  }

  // Self-check 1: same seed, same run -- every observable must match.
  const SweepPoint a = run_one(0.1);
  const SweepPoint b = run_one(0.1);
  const bool deterministic =
      a.summary == b.summary && a.backup_hash == b.backup_hash;
  std::printf("\nself-check determinism (seed 1, rate 0.10): %s\n",
              deterministic ? "PASS" : "FAIL");

  // Self-check 2: every faulty run's final backup is byte-identical to the
  // fault-free run's (failed epochs retain the dirty bitmap; the post-storm
  // epochs drain the backlog).
  bool converged = true;
  for (const SweepPoint& p : points) {
    if (p.backup_hash != points.front().backup_hash) converged = false;
  }
  std::printf("self-check backup byte-identity across rates: %s\n",
              converged ? "PASS" : "FAIL");

  return deterministic && converged ? 0 : 1;
}
