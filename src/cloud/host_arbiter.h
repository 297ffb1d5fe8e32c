// Cross-tenant host arbiter: SLO-aware load shedding and resource trades
// above the per-tenant control planes (ROADMAP items 1 and 5's leftover).
//
// Each CloudHost scheduling round the host feeds the arbiter one
// HostInputs record -- aggregate frame, copy-overhead and transport
// pressure plus a per-tenant sample -- and the arbiter emits HostDecisions.
// Under pressure it walks a deterministic shedding ladder one rung per
// round on one tenant at a time, in declared priority order (BestEffort
// absorbs everything before any Standard tenant is touched; Critical is
// never shed), and recovers hysteretically one rung per calm round in the
// reverse order. Independently, the cross-tenant trades cap a donor
// tenant's replication window (transport saturation) or store GC budget
// (copy pressure) so a higher-priority neighbour keeps its contract.
//
// The invariants mirror ControlPlane's: decisions are a pure function of
// (config, recorded input stream) -- replay() re-derives the exact stream
// -- every transition is hysteretic, and the SafetyGovernor always wins
// (a tenant whose governor is non-Normal is never actuated).
#pragma once

#include "cloud/host_config.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace crimes {

// Ladder rungs 1-3 plus the arbiter's trade actions. Restore* / Uncap*
// are the inverse moves the recovery path emits.
enum class HostAction : std::uint8_t {
  StretchInterval,   // rung 1: epoch interval * stretch_factor
  RestoreInterval,   // rung 1 undo
  Downgrade,         // rung 2: Synchronous -> BestEffort
  RestoreMode,       // rung 2 undo
  PauseProtection,   // rung 3: pipeline skipped, outputs held
  ResumeProtection,  // rung 3 undo
  CapWindow,         // trade: donor's replication window capped
  UncapWindow,
  CapGcBudget,       // trade: donor's store GC budget capped
  UncapGcBudget,
};

[[nodiscard]] const char* to_string(HostAction action);

// One tenant's slice of a round's sensor readings.
struct HostTenantSample {
  double pause_ms = 0.0;         // host-observed (contended) pause, this round
  double pause_budget_ms = 0.0;  // the tenant's SloBudget.pause_ms
  double copy_ms = 0.0;          // checkpoint copy charged this round
  std::uint8_t priority = 1;     // TenantPriority as int
  std::uint8_t governor = 0;     // GovernorState as int (non-0 = hands off)
  bool live = true;              // scheduled this round
  bool replicated = false;       // has a replication stream (window trades)
  bool has_store = false;        // has a checkpoint store (GC trades)
};

// One scheduling round's worth of host sensor readings. Pure data: the
// replay fuel, exactly like ControlInputs.
struct HostInputs {
  std::uint64_t round = 0;
  double frames_used = 0.0;
  double frame_limit = 0.0;       // capacity * (1 - headroom)
  double copy_ms = 0.0;           // aggregate checkpoint copy, this round
  double work_ms = 0.0;           // aggregate guest time executed, this round
  double inflight = 0.0;          // aggregate replication in-flight
  double transport_slots = 0.0;   // HostConfig.replication_slots
  std::vector<HostTenantSample> tenants;
};

struct HostDecision {
  std::uint64_t round = 0;
  std::uint32_t tenant = 0;  // index into the host's admission order
  HostAction action = HostAction::StretchInterval;
  double from = 0.0;  // shed level / cap before
  double to = 0.0;    // shed level / cap after
  // Always a string literal inside the arbiter (content-compared, like
  // ControlDecision::reason).
  const char* reason = "";
};

[[nodiscard]] bool operator==(const HostDecision& a, const HostDecision& b);

class HostArbiter {
 public:
  explicit HostArbiter(const HostConfig& config);

  HostArbiter(const HostArbiter&) = delete;
  HostArbiter& operator=(const HostArbiter&) = delete;

  // Feed one round of sensor readings; returns the number of decisions
  // appended this round (the trailing entries of decisions()).
  std::size_t observe(const HostInputs& in);

  // Current ladder position per tenant index (0 = unshed .. 3 = paused).
  [[nodiscard]] std::size_t shed_level(std::size_t tenant) const {
    return tenant < shed_.size() ? shed_[tenant].level : 0;
  }
  [[nodiscard]] bool window_capped(std::size_t tenant) const {
    return tenant < shed_.size() && shed_[tenant].window_capped;
  }
  [[nodiscard]] bool gc_capped(std::size_t tenant) const {
    return tenant < shed_.size() && shed_[tenant].gc_capped;
  }
  // The last round's composite pressure (max of the three signals).
  [[nodiscard]] double pressure() const { return pressure_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }

  // Bounded decision log (oldest dropped past decision_capacity) and the
  // recorded input history, oldest first (replay fuel).
  [[nodiscard]] const std::vector<HostDecision>& decisions() const {
    return decisions_;
  }
  [[nodiscard]] std::vector<HostInputs> history() const;

  // Host-observed pause contention: how much the shared copy path inflates
  // every tenant's pause this round. 1.0 when the aggregate copy overhead
  // is inside the configured limit.
  [[nodiscard]] static double contention_factor(const HostConfig& config,
                                                const HostInputs& in);

  // Re-derives the decision stream an arbiter with `config` would produce
  // over `inputs`. Mirrors ControlPlane::replay: the scenario suite's
  // replay-equality gate and the determinism tests are built on it.
  [[nodiscard]] static std::vector<HostDecision> replay(
      const HostConfig& config, std::span<const HostInputs> inputs);

 private:
  struct TenantState {
    std::size_t level = 0;  // ladder rung 0..3
    bool window_capped = false;
    bool gc_capped = false;
  };

  void decide(std::uint64_t round, std::uint32_t tenant, HostAction action,
              double from, double to, const char* reason, std::size_t& made);
  void escalate(const HostInputs& in, std::size_t& made);
  void recover(const HostInputs& in, std::size_t& made);
  void arbitrate(const HostInputs& in, double transport_pressure,
                 double copy_pressure, std::size_t& made);
  // The donor for a trade: lowest-priority live tenant with a Normal
  // governor satisfying the trade's requirement (replicated / has_store)
  // and not already capped; lowest index on ties. Returns the tenant
  // count when none qualifies.
  [[nodiscard]] std::size_t pick_donor(const HostInputs& in,
                                       bool need_replicated) const;

  HostConfig config_;
  std::vector<TenantState> shed_;
  std::size_t calm_rounds_ = 0;
  double pressure_ = 0.0;
  std::size_t rounds_ = 0;

  // Replay fuel: input ring, oldest overwritten (ControlPlane's pattern).
  std::vector<HostInputs> inputs_;
  std::size_t input_next_ = 0;
  bool input_wrapped_ = false;

  std::vector<HostDecision> decisions_;
};

}  // namespace crimes
