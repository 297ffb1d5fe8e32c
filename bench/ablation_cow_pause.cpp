// Ablation: stop-copy vs speculative copy-on-write checkpointing
// (DESIGN.md section 12).
//
// The paper's stop-copy pause pays suspend + scan + audit + map + copy +
// resume with the VM frozen. The CoW path CoW-protects the dirty set and
// resumes immediately, draining the copy in the background -- the pause
// keeps only suspend + scan + audit + protect + resume, so tail pause
// should fall by well over 2x at PARSEC dirty rates (the gate below).
//
// Self-checks (exit nonzero on violation):
//   * byte identity: a CoW run's final backup is bit-identical to a
//     stop-copy twin fed the identical write stream -- clean and under an
//     injected transport-fault + torn-write storm;
//   * determinism: two identical CoW runs produce identical backups and
//     identical pause tails.
#include "bench_util.h"

#include "common/hash.h"

#include <cstdio>
#include <cstring>
#include <string>

namespace {

using namespace crimes;
using namespace crimes::bench;

// page_hash chained over every backup page, in PFN order. Read through
// the const Vm, so never-written pages hash as the zero page they read as
// without materializing a frame.
std::uint64_t backup_fingerprint(Checkpointer& cp) {
  const Vm& backup = cp.backup();
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < backup.page_count(); ++i) {
    h = page_hash(backup.page(Pfn{i}).bytes(), h);
  }
  return h;
}

struct TwinRun {
  RunSummary summary;
  std::uint64_t backup_hash = 0;
  std::uint64_t checkpoints = 0;
};

// One full Crimes run of `profile` under `scheme`; the workload's write
// stream is a pure function of the epoch index, so two runs with the same
// profile see identical guest writes regardless of scheme.
TwinRun run_twin(const ParsecProfile& profile, const CheckpointConfig& scheme,
                 const fault::FaultPlan& faults = {}) {
  Hypervisor hypervisor(1u << 21);
  const GuestConfig gc = profile.recommended_guest();
  Vm& vm = hypervisor.create_domain(profile.name, gc.page_count);
  GuestKernel kernel(vm, gc);
  kernel.boot();

  CrimesConfig config;
  config.checkpoint = scheme;
  config.record_execution = false;
  config.faults = faults;
  Crimes crimes(hypervisor, kernel, config);
  ParsecWorkload app(kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  TwinRun run;
  run.summary = crimes.run(millis(profile.duration_ms * 2));
  run.backup_hash = backup_fingerprint(crimes.checkpointer());
  run.checkpoints = crimes.checkpointer().checkpoints_taken();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out <file.trace.json>] "
                   "[--metrics-out <file.jsonl>]\n",
                   argv[0]);
      return 2;
    }
  }

  // The sweep covers the paper's dirty-rate spectrum: light and heavy
  // PARSEC benchmarks, a request-driven web server, and the malware case
  // study's scan-everything write pattern.
  std::vector<ParsecProfile> rows;
  for (const char* name : {"swaptions", "bodytrack", "fluidanimate"}) {
    ParsecProfile p = ParsecProfile::by_name(name);
    p.duration_ms = 4000.0;
    rows.push_back(std::move(p));
  }
  rows.push_back({"webserver-high", 3000, 140.0, 200.0, 4000.0});
  rows.push_back({"malware-scan", 48000, 330.0, 320.0, 4000.0});

  int failures = 0;
  double gate_ratio = 0.0;

  print_header(
      "Ablation: stop-copy vs speculative CoW pause (ms), 200 ms epoch");
  std::printf("%-16s %10s | %8s %8s %8s | %8s %8s %8s | %6s %9s %9s\n",
              "workload", "dirty/ep", "sc p50", "sc p95", "sc p99", "cow p50",
              "cow p95", "cow p99", "p95 x", "1st-touch", "stall ms");
  for (const ParsecProfile& profile : rows) {
    const RunSummary sc =
        run_parsec_scheme(profile, CheckpointConfig::full(millis(200)));
    const RunSummary cow =
        run_parsec_scheme(profile, CheckpointConfig::cow(millis(200)));
    const double ratio =
        cow.p95_pause_ms() > 0 ? sc.p95_pause_ms() / cow.p95_pause_ms() : 0.0;
    if (profile.name == "fluidanimate") gate_ratio = ratio;
    std::printf(
        "%-16s %10.0f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f | %5.1fx "
        "%9zu %9.2f\n",
        profile.name.c_str(), cow.avg_dirty_pages(),
        sc.p50_pause_ms(), sc.p95_pause_ms(), sc.p99_pause_ms(),
        cow.p50_pause_ms(), cow.p95_pause_ms(), cow.p99_pause_ms(), ratio,
        cow.cow_first_touches, to_ms(cow.cow_commit_stall));
    std::fflush(stdout);
  }

  // Gate: at fluidanimate's dirty rate (the paper's worst case) the CoW
  // p95 pause must be at least 2x smaller than stop-copy.
  std::printf("\np95 pause reduction at fluidanimate dirty rate: %.1fx "
              "(gate: >= 2.0x)\n",
              gate_ratio);
  if (gate_ratio < 2.0) {
    std::fprintf(stderr, "FAIL: CoW p95 reduction %.2fx below the 2x gate\n",
                 gate_ratio);
    ++failures;
  }

  // Self-check 1: byte identity against a stop-copy twin, clean run.
  ParsecProfile twin_profile = ParsecProfile::by_name("swaptions");
  twin_profile.duration_ms = 3000.0;
  {
    const TwinRun sc = run_twin(twin_profile, CheckpointConfig::full());
    const TwinRun cow = run_twin(twin_profile, CheckpointConfig::cow());
    const bool ok = sc.backup_hash == cow.backup_hash &&
                    sc.checkpoints == cow.checkpoints;
    std::printf("byte-identity (clean):       %s  (%llu checkpoints, "
                "fingerprint %016llx)\n",
                ok ? "OK" : "FAIL",
                static_cast<unsigned long long>(cow.checkpoints),
                static_cast<unsigned long long>(cow.backup_hash));
    if (!ok) ++failures;
  }

  // Self-check 2: byte identity under a transport-fault + torn-write storm
  // covering the drain. The injector's decisions are a pure function of
  // (seed, kind, epoch, site), so the twins draw identical fault
  // sequences; epochs must commit/fail in lockstep and the surviving
  // backups must still match bit for bit.
  {
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.transport_copy_fail = 0.3;
    plan.torn_write = 0.15;
    plan.until_epoch = 10;
    const TwinRun sc = run_twin(twin_profile, CheckpointConfig::full(), plan);
    const TwinRun cow = run_twin(twin_profile, CheckpointConfig::cow(), plan);
    const bool ok = sc.backup_hash == cow.backup_hash &&
                    sc.checkpoints == cow.checkpoints &&
                    sc.summary.checkpoint_failures ==
                        cow.summary.checkpoint_failures;
    std::printf("byte-identity (fault storm): %s  (%zu failed epoch(s), "
                "%zu retries on the CoW side)\n",
                ok ? "OK" : "FAIL", cow.summary.checkpoint_failures,
                cow.summary.copy_retries);
    if (!ok) ++failures;
  }

  // Self-check 3: determinism -- an identical CoW run reproduces the same
  // backup and the same pause tail.
  {
    const TwinRun a = run_twin(twin_profile, CheckpointConfig::cow());
    const TwinRun b = run_twin(twin_profile, CheckpointConfig::cow());
    const bool ok = a.backup_hash == b.backup_hash &&
                    a.summary.p95_pause_ms() == b.summary.p95_pause_ms() &&
                    a.summary.cow_first_touches == b.summary.cow_first_touches;
    std::printf("determinism (CoW twice):     %s\n", ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }

  if (!trace_out.empty() || !metrics_out.empty()) {
    print_header("traced CoW run (telemetry on)");
    ParsecProfile traced = ParsecProfile::by_name("swaptions");
    traced.duration_ms = 3000.0;
    (void)run_parsec_scheme_traced(traced, CheckpointConfig::cow(millis(200)),
                                   trace_out, metrics_out);
  }
  return failures == 0 ? 0 : 1;
}
