// Unit tests: workloads -- PARSEC dirty-page model, web server + wrk
// closed loop, malware and overflow scripts.
#include "test_helpers.h"
#include "workload/malware.h"
#include "workload/overflow.h"
#include "workload/parsec.h"
#include "workload/web_server.h"
#include "workload/wrk_client.h"

#include <gtest/gtest.h>

#include <cmath>

namespace crimes {
namespace {

using testing::TestGuest;

TEST(ParsecProfile, SuiteCoversThePapersBenchmarks) {
  const auto& suite = ParsecProfile::suite();
  EXPECT_EQ(suite.size(), 11u);
  EXPECT_NO_THROW((void)ParsecProfile::by_name("fluidanimate"));
  EXPECT_THROW((void)ParsecProfile::by_name("doesnotexist"),
               std::out_of_range);
  // fluidanimate must dirty by far the most pages (the paper's outlier).
  double max_dirty = 0;
  std::string max_name;
  for (const auto& p : suite) {
    const double d = p.expected_dirty_pages(200.0);
    if (d > max_dirty) {
      max_dirty = d;
      max_name = p.name;
    }
  }
  EXPECT_EQ(max_name, "fluidanimate");
  EXPECT_GT(max_dirty,
            ParsecProfile::by_name("raytrace").expected_dirty_pages(200.0) *
                20);
}

TEST(ParsecProfile, DirtyPageModelSaturates) {
  const ParsecProfile p = ParsecProfile::by_name("swaptions");
  // More interval -> more dirty pages, but sublinearly (Figure 5c shape).
  const double d60 = p.expected_dirty_pages(60);
  const double d200 = p.expected_dirty_pages(200);
  EXPECT_GT(d200, d60);
  EXPECT_LT(d200, d60 * (200.0 / 60.0));
  EXPECT_LT(d200, static_cast<double>(p.working_set_pages));
}

TEST(ParsecWorkload, ActualDirtyPagesMatchModel) {
  ParsecProfile profile = ParsecProfile::by_name("swaptions");
  profile.working_set_pages = 512;
  profile.touches_per_ms = 20.0;
  GuestConfig config = profile.recommended_guest();
  TestGuest guest(config);
  ParsecWorkload workload(*guest.kernel, profile, 1);

  guest.vm->enable_log_dirty();
  workload.run_epoch(Nanos{0}, millis(100));
  const double expected = profile.expected_dirty_pages(100.0);
  const double actual =
      static_cast<double>(guest.vm->dirty_bitmap().dirty_count());
  // Within 25% of the analytic model (randomness + table/bookkeeping pages).
  EXPECT_NEAR(actual, expected, expected * 0.25);
}

TEST(ParsecWorkload, FinishesAfterConfiguredDuration) {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 128;
  profile.duration_ms = 100.0;
  TestGuest guest;
  ParsecWorkload workload(*guest.kernel, profile);
  EXPECT_FALSE(workload.finished());
  workload.run_epoch(Nanos{0}, millis(60));
  EXPECT_FALSE(workload.finished());
  workload.run_epoch(millis(60), millis(60));
  EXPECT_TRUE(workload.finished());
  EXPECT_GT(workload.total_accesses(), 0u);
}

TEST(ParsecWorkload, DeterministicForSameSeed) {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 128;
  auto run = [&](std::uint64_t seed) {
    TestGuest guest;
    ParsecWorkload w(*guest.kernel, profile, seed);
    guest.vm->enable_log_dirty();
    w.run_epoch(Nanos{0}, millis(50));
    return guest.vm->dirty_bitmap().scan_chunked();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

struct WebFixture {
  WebFixture()
      : guest([] {
          GuestConfig c;
          c.page_count = 8192;
          return c;
        }()),
        net(micros(1350)) {
    nic.set_sink([this](Packet&& p) {
      const Nanos at = p.sent_at;
      net.deliver(std::move(p), at);  // unbuffered (baseline plumbing)
    });
    server = std::make_unique<WebServerWorkload>(
        *guest.kernel, nic, WebServerProfile::medium());
  }

  TestGuest guest;
  VirtualNic nic;
  ExternalNetwork net;
  std::unique_ptr<WebServerWorkload> server;
};

TEST(WebServer, HandshakeThenRequestsFlow) {
  WebFixture f;
  WrkClient client(*f.server, f.net, 4, 2);
  client.start(Nanos{0});
  Nanos t{0};
  for (int epoch = 0; epoch < 40; ++epoch) {
    f.server->run_epoch(t, millis(10));
    t += millis(10);
  }
  EXPECT_GT(client.stats().completed_handshakes, 4u);  // conns reopen
  EXPECT_GT(client.stats().completed_requests, 20u);
  EXPECT_GT(f.server->requests_served(), 0u);
  EXPECT_EQ(f.server->handshakes_served(), client.stats().completed_handshakes);
}

TEST(WebServer, UnbufferedLatencyIsTwoWiresPlusService) {
  WebFixture f;
  WrkClient client(*f.server, f.net, 1, 100);
  client.start(Nanos{0});
  Nanos t{0};
  for (int epoch = 0; epoch < 50; ++epoch) {
    f.server->run_epoch(t, millis(10));
    t += millis(10);
  }
  ASSERT_GT(client.stats().completed_requests, 10u);
  // 2 x 1.35 ms wire + 0.13 ms service = 2.83 ms (the paper's baseline).
  EXPECT_NEAR(client.stats().mean_latency_ms(), 2.83, 0.05);
}

TEST(WebServer, ListenSocketVisibleToForensics) {
  WebFixture f;
  const auto socks = f.guest.kernel->socket_ground_truth();
  ASSERT_FALSE(socks.empty());
  EXPECT_EQ(socks[0].local_port, 80);
  EXPECT_EQ(socks[0].state, 10u);  // LISTEN
}

TEST(WebServer, ChurnDirtiesPagesAtProfileRate) {
  WebFixture f;
  f.guest.vm->enable_log_dirty();
  f.server->run_epoch(Nanos{0}, millis(20));
  const double dirty =
      static_cast<double>(f.guest.vm->dirty_bitmap().dirty_count());
  // Medium profile: ~1.4k dirty pages per 20 ms epoch (Table 1).
  EXPECT_GT(dirty, 1000);
  EXPECT_LT(dirty, 2000);
}

TEST(Malware, LaunchLeavesAllEvidence) {
  GuestConfig config = TestGuest::small_config();
  config.flavor = OsFlavor::Windows;
  TestGuest guest(config);
  VirtualNic nic;
  std::vector<Packet> wire;
  nic.set_sink([&](Packet&& p) { wire.push_back(std::move(p)); });

  MalwareWorkload malware(*guest.kernel, nic, millis(30));
  malware.run_epoch(Nanos{0}, millis(20));
  EXPECT_FALSE(malware.attacked());
  malware.run_epoch(millis(20), millis(20));
  ASSERT_TRUE(malware.attacked());
  EXPECT_EQ(malware.attack_time(), millis(30));

  const auto proc = guest.kernel->find_process(*malware.malware_pid());
  ASSERT_TRUE(proc.has_value());
  EXPECT_EQ(proc->name, MalwareWorkload::kMalwareName);
  EXPECT_EQ(guest.kernel->file_ground_truth().size(), 3u);
  ASSERT_EQ(guest.kernel->socket_ground_truth().size(), 1u);
  EXPECT_EQ(guest.kernel->socket_ground_truth()[0].remote_port, 8080);
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0].dst_ip, malware.exfil_ip());
}

TEST(Overflow, AttackSmashesExactlyTheVictimCanary) {
  TestGuest guest;
  OverflowScript script;
  script.attack_at = millis(25);
  OverflowWorkload workload(*guest.kernel, script);
  workload.run_epoch(Nanos{0}, millis(50));
  ASSERT_TRUE(workload.attacked());
  EXPECT_EQ(workload.attack_time(), millis(25));

  HeapAllocator& heap = guest.kernel->heap();
  for (const auto& [obj, canary] : heap.live_objects()) {
    const auto value = guest.kernel->read_value<std::uint64_t>(canary);
    if (canary == workload.victim_canary()) {
      EXPECT_NE(value, heap.expected_canary(canary));
    } else {
      EXPECT_EQ(value, heap.expected_canary(canary));
    }
  }
}

TEST(Overflow, BenignPhaseNeverTripsCanaries) {
  TestGuest guest;
  OverflowScript script;
  script.attack_at = millis(100000);  // effectively never
  OverflowWorkload workload(*guest.kernel, script);
  for (int i = 0; i < 20; ++i) {
    workload.run_epoch(millis(50.0 * i), millis(50));
  }
  EXPECT_FALSE(workload.attacked());
  HeapAllocator& heap = guest.kernel->heap();
  for (const auto& [obj, canary] : heap.live_objects()) {
    EXPECT_EQ(guest.kernel->read_value<std::uint64_t>(canary),
              heap.expected_canary(canary));
  }
}

TEST(WrkStats, PercentilesFromSamples) {
  WrkStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.samples.push_back(millis(i));
  }
  EXPECT_NEAR(stats.percentile_ms(0), 1.0, 0.01);
  EXPECT_NEAR(stats.percentile_ms(50), 50.5, 1.0);
  EXPECT_NEAR(stats.percentile_ms(99), 99.01, 1.0);
  EXPECT_NEAR(stats.percentile_ms(100), 100.0, 0.01);
  WrkStats empty;
  EXPECT_DOUBLE_EQ(empty.percentile_ms(50), 0.0);
}

}  // namespace
}  // namespace crimes
