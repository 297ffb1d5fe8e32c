// Ablation: the content-addressed checkpoint store's footprint vs naive
// full-image retention, across retention depth x workload (DESIGN.md
// section 10). For each cell: bytes a naive keep-every-image scheme would
// hold, bytes the store actually holds (dedup + delta-RLE), the resulting
// ratio, and the p95 incremental-GC pause. Every run self-checks that
// each retained generation still materializes byte-identical (per-page
// page_hash against digests recorded at commit time).
//
// Exit code: 0 only if every self-check passes AND the paper-style
// acceptance bar holds -- parsec at retention depth >= 8 stores less than
// 50% of the naive footprint.
#include "checkpoint/checkpointer.h"
#include "common/hash.h"
#include "net/virtual_nic.h"
#include "store/checkpoint_store.h"
#include "workload/malware.h"
#include "workload/parsec.h"
#include "workload/web_server.h"

#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace crimes {
namespace {

constexpr Nanos kInterval = millis(20);
constexpr int kEpochs = 48;

struct CellResult {
  double logical_mb = 0.0;
  double physical_mb = 0.0;
  double physical_pct = 0.0;  // physical / logical
  double dedup_ratio = 0.0;
  double gc_p95_us = 0.0;
  std::size_t generations = 0;
  bool restore_ok = true;
};

// Per-page digests of the primary image -- the ground truth a retained
// generation must reproduce.
std::vector<std::uint64_t> image_digests(const Vm& vm) {
  std::vector<std::uint64_t> out(vm.page_count());
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    out[i] = page_hash(vm.page(Pfn{i}).bytes());
  }
  return out;
}

CellResult run_cell(const std::string& workload_name, std::size_t depth) {
  Hypervisor hypervisor(1u << 21);  // 8 GiB of machine frames
  GuestConfig gc;
  std::unique_ptr<GuestKernel> kernel;
  VirtualNic nic;
  nic.set_sink([](Packet&&) {});  // egress is irrelevant to this ablation
  std::unique_ptr<Workload> app;

  if (workload_name == "parsec") {
    ParsecProfile profile = ParsecProfile::by_name("raytrace");
    gc = profile.recommended_guest();
    Vm& vm = hypervisor.create_domain(workload_name, gc.page_count);
    kernel = std::make_unique<GuestKernel>(vm, gc);
    kernel->boot();
    app = std::make_unique<ParsecWorkload>(*kernel, profile);
  } else if (workload_name == "webserver") {
    gc.page_count = 8192;
    Vm& vm = hypervisor.create_domain(workload_name, gc.page_count);
    kernel = std::make_unique<GuestKernel>(vm, gc);
    kernel->boot();
    app = std::make_unique<WebServerWorkload>(*kernel, nic,
                                              WebServerProfile::medium());
  } else {  // malware: quiet desktop, scripted exfiltration mid-run
    gc.page_count = 8192;
    Vm& vm = hypervisor.create_domain(workload_name, gc.page_count);
    kernel = std::make_unique<GuestKernel>(vm, gc);
    kernel->boot();
    app = std::make_unique<MalwareWorkload>(*kernel, nic,
                                            /*attack_at=*/millis(400));
  }
  Vm& vm = kernel->vm();

  SimClock clock;
  CheckpointConfig config = CheckpointConfig::full(kInterval);
  config.store.enabled = true;
  config.store.retention.keep_last = depth;
  Checkpointer cp(hypervisor, vm, clock, CostModel::defaults(), config);
  cp.initialize();

  // Ground truth for the self-check: per-page digests of the last `depth`
  // committed epochs (exactly the generations keep_last retains).
  std::deque<std::pair<std::uint64_t, std::vector<std::uint64_t>>> truth;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    app->run_epoch(clock.now(), kInterval);
    clock.advance(kInterval);
    (void)cp.run_checkpoint({});
    truth.emplace_back(cp.checkpoints_taken(), image_digests(vm));
    while (truth.size() > depth) truth.pop_front();
  }

  const store::CheckpointStore& store = *cp.store();
  const store::StoreStats stats = store.stats();

  CellResult cell;
  cell.generations = stats.generations;
  cell.logical_mb = static_cast<double>(stats.bytes_logical) / (1 << 20);
  cell.physical_mb = static_cast<double>(stats.bytes_physical) / (1 << 20);
  cell.physical_pct = 100.0 * static_cast<double>(stats.bytes_physical) /
                      static_cast<double>(stats.bytes_logical);
  cell.dedup_ratio = stats.dedup_ratio();
  cell.gc_p95_us = static_cast<double>(store.gc_pauses().p95()) / 1000.0;

  // Self-check: every generation we hold truth for restores to exactly
  // the recorded per-page digests.
  Vm& scratch = hypervisor.create_domain("scratch", vm.page_count());
  ForeignMapping dst = hypervisor.map_foreign(scratch.id());
  for (const auto& [epoch, digests] : truth) {
    if (!store.has_generation(epoch)) {
      cell.restore_ok = false;
      std::fprintf(stderr, "self-check: generation %llu not retained\n",
                   static_cast<unsigned long long>(epoch));
      continue;
    }
    (void)store.materialize(epoch, dst);
    const Vm& view = scratch;
    for (std::size_t i = 0; i < view.page_count(); ++i) {
      if (page_hash(view.page(Pfn{i}).bytes()) != digests[i]) {
        cell.restore_ok = false;
        std::fprintf(stderr,
                     "self-check: generation %llu page %zu diverged\n",
                     static_cast<unsigned long long>(epoch), i);
        break;
      }
    }
  }
  return cell;
}

}  // namespace
}  // namespace crimes

int main() {
  using namespace crimes;

  std::printf("\n=== Ablation: checkpoint store dedup vs retention depth "
              "===\n");
  std::printf("(%d epochs @ %.0f ms; naive = one full image per retained "
              "generation)\n\n",
              kEpochs, to_ms(kInterval));
  std::printf("%-10s %6s %5s %12s %13s %9s %7s %10s %8s\n", "workload",
              "depth", "gens", "naive(MiB)", "stored(MiB)", "stored%",
              "dedup", "gc-p95(us)", "restore");

  bool all_ok = true;
  for (const char* workload : {"parsec", "webserver", "malware"}) {
    for (const std::size_t depth : {2u, 8u, 32u}) {
      const CellResult cell = run_cell(workload, depth);
      std::printf("%-10s %6zu %5zu %12.1f %13.2f %8.1f%% %6.1fx %10.1f %8s\n",
                  workload, depth, cell.generations, cell.logical_mb,
                  cell.physical_mb, cell.physical_pct, cell.dedup_ratio,
                  cell.gc_p95_us, cell.restore_ok ? "ok" : "FAIL");
      std::fflush(stdout);
      if (!cell.restore_ok) all_ok = false;
      // Acceptance bar (ISSUE 4): parsec at depth >= 8 must store less
      // than half of what naive full-copy retention would.
      if (std::string(workload) == "parsec" && depth >= 8 &&
          cell.physical_pct >= 50.0) {
        std::fprintf(stderr,
                     "FAIL: parsec depth %zu stored %.1f%% (bar: < 50%%)\n",
                     depth, cell.physical_pct);
        all_ok = false;
      }
    }
  }
  std::printf("\n%s: content addressing + delta-RLE keep deep histories at "
              "a fraction of naive cost\n",
              all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
