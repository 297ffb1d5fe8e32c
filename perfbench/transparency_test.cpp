// Wrapper transparency test: on a short run of each workload, every virtual
// output (RunSummary fields, client stats, attack timelines) must be
// identical with and without the Workload/ScanModule wrappers, and the
// traced and untraced wrapped runs must agree on those plus the per-epoch
// (start, interval) stream. Exits 1 on the first mismatch.
//
//   transparency_test [seed]
#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

using namespace perfbench;

bool same(const char* what, const std::string& a, const std::string& b) {
  if (a == b) return true;
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  std::printf("  MISMATCH (%s) at byte %zu\n    %s\n    %s\n", what, at,
              a.substr(at, 80).c_str(), b.substr(at, 80).c_str());
  return false;
}

// The part of a fingerprint both wrapped and bare runs produce: every line
// but the per-epoch streams only a wrapper can record.
std::string without_stream(const std::string& fp) {
  std::string out;
  std::size_t at = 0;
  while (at < fp.size()) {
    std::size_t end = fp.find('\n', at);
    end = end == std::string::npos ? fp.size() : end + 1;
    if (fp.compare(at, 7, "stream:") != 0) out += fp.substr(at, end - at);
    at = end;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  bool ok = true;
  for (const WorkloadKind kind :
       {WorkloadKind::CowFluid, WorkloadKind::WebSync,
        WorkloadKind::HostOverload, WorkloadKind::AttackResponse}) {
    RepOptions options;
    options.kind = kind;
    options.seed = seed;
    options.short_run = true;

    options.wrap = false;
    const Rep bare = run_rep(options);
    options.wrap = true;
    const Rep wrapped = run_rep(options);
    SpanLog spans;
    options.spans = &spans;
    const Rep traced = run_rep(options);

    bool pass = bare.errors.empty() && wrapped.errors.empty() &&
                traced.errors.empty();
    for (const Rep* r : {&bare, &wrapped, &traced}) {
      for (const std::string& e : r->errors) {
        std::printf("  CHECK FAILED: %s\n", e.c_str());
      }
    }
    pass = same("bare vs wrapped", bare.fingerprint,
                without_stream(wrapped.fingerprint)) && pass;
    pass = same("untraced vs traced", wrapped.fingerprint,
                traced.fingerprint) && pass;
    pass = pass && wrapped.pause_ms == traced.pause_ms &&
           wrapped.layer == traced.layer && !spans.spans().empty();
    std::printf("%-16s %s (%zu epochs, %zu spans)\n", workload_name(kind),
                pass ? "identical" : "DIFFERENT", wrapped.sim_epochs,
                spans.spans().size());
    ok = ok && pass;
  }
  std::printf("%s\n", ok ? "wrapper transparency: PASS"
                         : "wrapper transparency: FAIL");
  return ok ? 0 : 1;
}
