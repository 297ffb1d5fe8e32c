// Tests: the commit path at the Crimes level. A stop-copy epoch settles
// right after its checkpoint; a speculative-CoW epoch settles at the next
// barrier. Both go through the same code, so the outside world must not be
// able to tell the two schemes apart: same packets, same order, same
// release counters.
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace crimes {
namespace {

using testing::TestGuest;

constexpr Nanos kInterval = millis(50);

struct Scheme {
  const char* name;
  CheckpointConfig (*make)(Nanos);
};

constexpr Scheme kSchemes[] = {
    {"stop-copy", &CheckpointConfig::full},
    {"cow", &CheckpointConfig::cow},
};

// raytrace that also transmits `per_epoch` packets every epoch; the NIC
// numbers them 1, 2, 3, ... in transmit order.
class ChattyRaytrace final : public Workload {
 public:
  ChattyRaytrace(GuestKernel& kernel, VirtualNic& nic, std::size_t epochs,
                 std::size_t per_epoch)
      : inner_(kernel, profile(epochs), 3), nic_(&nic),
        per_epoch_(per_epoch) {}
  [[nodiscard]] std::string name() const override { return "chatty"; }
  void run_epoch(Nanos start, Nanos duration) override {
    inner_.run_epoch(start, duration);
    for (std::size_t i = 0; i < per_epoch_; ++i) {
      nic_->send(Packet{.kind = PacketKind::Data, .size_bytes = 64},
                 start + duration / 2);
    }
  }
  [[nodiscard]] bool finished() const override { return inner_.finished(); }

 private:
  static ParsecProfile profile(std::size_t epochs) {
    ParsecProfile p = ParsecProfile::by_name("raytrace");
    p.working_set_pages = 512;
    p.duration_ms = to_ms(kInterval) * static_cast<double>(epochs);
    return p;
  }
  ParsecWorkload inner_;
  VirtualNic* nic_;
  std::size_t per_epoch_;
};

std::vector<std::uint64_t> delivered_ids(Crimes& crimes) {
  std::vector<std::uint64_t> ids;
  for (const DeliveredPacket& d : crimes.network().log()) {
    ids.push_back(d.packet.id);
  }
  return ids;
}

TEST(CowCommit, BothSchemesCountEveryReleasedPacket) {
  constexpr std::size_t kEpochs = 20;
  constexpr Nanos kBudget = kInterval * static_cast<std::int64_t>(kEpochs);
  for (const Scheme& scheme : kSchemes) {
    SCOPED_TRACE(scheme.name);
    TestGuest guest;
    CrimesConfig config;
    config.checkpoint = scheme.make(kInterval);
    config.telemetry = true;
    Crimes crimes(guest.hypervisor, *guest.kernel, config);
    ChattyRaytrace app(*guest.kernel, crimes.nic(), kEpochs, 1);
    crimes.set_workload(&app);
    crimes.initialize();
    const RunSummary summary = crimes.run(kBudget);

    EXPECT_EQ(summary.epochs, kEpochs);
    EXPECT_EQ(crimes.network().delivered_count(), kEpochs);
    EXPECT_EQ(crimes.buffer().total_released(), kEpochs);
    EXPECT_EQ(
        crimes.telemetry()->metrics.counter("net.packets_released").value(),
        kEpochs);
  }
}

TEST(CowCommit, StopCopyAndCowDeliverTheSameOrderedStream) {
  constexpr std::size_t kEpochs = 30;
  constexpr Nanos kBudget = kInterval * static_cast<std::int64_t>(kEpochs);
  for (const bool storm : {false, true}) {
    for (const bool replicate : {false, true}) {
      SCOPED_TRACE(std::string(storm ? "storm" : "calm") +
                   (replicate ? ", replicated" : ", unreplicated"));
      std::vector<std::vector<std::uint64_t>> streams;
      for (const Scheme& scheme : kSchemes) {
        SCOPED_TRACE(scheme.name);
        TestGuest guest;
        CrimesConfig config;
        config.checkpoint = scheme.make(kInterval);
        config.record_execution = false;
        config.replication.enabled = replicate;
        if (storm) {
          // Retries exhaust often enough that the governor downgrades
          // (with ack-gated outputs queued, when replicated) and upgrades
          // again.
          config.faults = fault::FaultPlan::transport_storm(0.9, 3, 20);
          config.governor.downgrade_after = 1;
          config.governor.upgrade_after = 2;
        }
        Crimes crimes(guest.hypervisor, *guest.kernel, config);
        ChattyRaytrace app(*guest.kernel, crimes.nic(), kEpochs, 3);
        crimes.set_workload(&app);
        crimes.initialize();
        const RunSummary summary = crimes.run(kBudget);
        EXPECT_EQ(summary.epochs, kEpochs);
        if (storm) EXPECT_GT(summary.governor_downgrades, 0u);

        streams.push_back(delivered_ids(crimes));
        const std::vector<std::uint64_t>& ids = streams.back();
        // Every packet left, or still waits for the standby's ack.
        EXPECT_EQ(ids.size() + crimes.pending_release_count(), kEpochs * 3);
        EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
        EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
      }
      EXPECT_EQ(streams[0], streams[1]);
    }
  }
}

}  // namespace
}  // namespace crimes
