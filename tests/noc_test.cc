// Unit and property tests for the NoC: packets, routing, wormhole flow
// control, virtual channels, network interfaces and the rate limiter.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/noc/mesh.h"
#include "src/noc/packet.h"
#include "src/noc/packet_pool.h"
#include "src/noc/rate_limiter.h"
#include "src/sim/payload_arena.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

// Test-local pool for hand-built packets; outlives every PacketRef the
// helpers below hand out (packets may be parked in mesh buffers until a
// test-scope Mesh drains or destructs).
PacketPool& TestPool() {
  // Pooled packets retain payload capacity, so the fallback arena backing
  // those chunks must be constructed first (→ destroyed last at exit).
  FallbackPayloadArena();
  static PacketPool pool;
  return pool;
}

PacketRef MakePacket(TileId src, TileId dst, size_t payload_bytes, uint64_t id = 0,
                     Vc vc = Vc::kRequest) {
  PacketRef p = TestPool().Acquire();
  p->src = src;
  p->dst = dst;
  p->vc = vc;
  p->packet_id = id;
  p->payload.assign(payload_bytes, static_cast<uint8_t>(id));
  return p;
}

TEST(PacketTest, FlitCountRounding) {
  EXPECT_EQ(ComputeFlitCount(*MakePacket(0, 1, 0)), 1u);
  EXPECT_EQ(ComputeFlitCount(*MakePacket(0, 1, 1)), 2u);
  EXPECT_EQ(ComputeFlitCount(*MakePacket(0, 1, kFlitBytes)), 2u);
  EXPECT_EQ(ComputeFlitCount(*MakePacket(0, 1, kFlitBytes + 1)), 3u);
}

TEST(PacketTest, FlitHeadTailFlags) {
  auto p = MakePacket(0, 1, kFlitBytes * 2);  // 3 flits.
  p->flit_count = ComputeFlitCount(*p);
  Flit head{p, 0};
  Flit mid{p, 1};
  Flit tail{p, 2};
  EXPECT_TRUE(head.is_head());
  EXPECT_FALSE(head.is_tail());
  EXPECT_FALSE(mid.is_head());
  EXPECT_FALSE(mid.is_tail());
  EXPECT_TRUE(tail.is_tail());
}

TEST(MeshTest, HopsIsManhattanDistance) {
  Mesh mesh(MeshConfig{4, 4, 8, 64});
  EXPECT_EQ(mesh.Hops(0, 0), 0u);
  EXPECT_EQ(mesh.Hops(0, 3), 3u);
  EXPECT_EQ(mesh.Hops(0, 15), 6u);
  EXPECT_EQ(mesh.Hops(5, 10), 2u);
}

TEST(MeshTest, DeliversSinglePacket) {
  Simulator sim;
  Mesh mesh(MeshConfig{4, 4, 8, 64});
  sim.Register(&mesh);
  auto p = MakePacket(0, 15, 64, 77);
  ASSERT_TRUE(mesh.ni(0).Inject(p, sim.now()));
  ASSERT_TRUE(sim.RunUntil([&] { return mesh.ni(15).HasDeliverable(); }, 1000));
  auto got = mesh.ni(15).Retrieve();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->packet_id, 77u);
  EXPECT_EQ(got->src, 0u);
  EXPECT_EQ(got->payload, p->payload);
}

TEST(MeshTest, SelfSendDelivers) {
  Simulator sim;
  Mesh mesh(MeshConfig{2, 2, 8, 64});
  sim.Register(&mesh);
  ASSERT_TRUE(mesh.ni(3).Inject(MakePacket(3, 3, 16, 5), sim.now()));
  ASSERT_TRUE(sim.RunUntil([&] { return mesh.ni(3).HasDeliverable(); }, 100));
  EXPECT_EQ(mesh.ni(3).Retrieve()->packet_id, 5u);
}

TEST(MeshTest, LatencyGrowsWithHops) {
  // Deliver the same-size packet over 1 hop and over the full diagonal; the
  // diagonal must take strictly longer.
  auto measure = [](TileId src, TileId dst) {
    Simulator sim;
    Mesh mesh(MeshConfig{4, 4, 8, 64});
    sim.Register(&mesh);
    mesh.ni(src).Inject(MakePacket(src, dst, 64), sim.now());
    sim.RunUntil([&] { return mesh.ni(dst).HasDeliverable(); }, 1000);
    return sim.now();
  };
  const Cycle near = measure(0, 1);
  const Cycle far = measure(0, 15);
  EXPECT_GT(far, near);
}

// Property: under random many-to-many traffic, every packet is delivered
// exactly once with an intact payload (no loss, duplication, corruption).
class MeshStressTest : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(MeshStressTest, AllPacketsDeliveredExactlyOnce) {
  const auto [width, height, seed] = GetParam();
  Simulator sim;
  Mesh mesh(MeshConfig{static_cast<uint32_t>(width), static_cast<uint32_t>(height), 4, 128});
  sim.Register(&mesh);
  Rng rng(seed);
  const uint32_t n = mesh.num_tiles();
  const int packets = 200;
  std::map<uint64_t, TileId> expected;  // id -> dst
  int injected = 0;
  uint64_t next_id = 1;

  std::map<uint64_t, PayloadBuf> payloads;
  std::map<uint64_t, int> received;
  auto drain = [&] {
    for (uint32_t t = 0; t < n; ++t) {
      while (auto p = mesh.ni(t).Retrieve()) {
        ++received[p->packet_id];
        EXPECT_EQ(expected[p->packet_id], t) << "packet delivered to wrong tile";
        EXPECT_EQ(payloads[p->packet_id], p->payload) << "payload corrupted";
      }
    }
  };
  while (injected < packets) {
    sim.Run(1);
    drain();
    // Try to inject a few packets per cycle from random sources.
    for (int k = 0; k < 4 && injected < packets; ++k) {
      const TileId src = static_cast<TileId>(rng.NextBelow(n));
      const TileId dst = static_cast<TileId>(rng.NextBelow(n));
      auto p = MakePacket(src, dst, rng.NextBelow(200), next_id,
                          rng.NextBool(0.5) ? Vc::kRequest : Vc::kResponse);
      if (mesh.ni(src).Inject(p, sim.now())) {
        expected[next_id] = dst;
        payloads[next_id] = p->payload;
        ++next_id;
        ++injected;
      }
    }
  }
  const bool drained = sim.RunUntil(
      [&] {
        drain();
        return received.size() == expected.size();
      },
      200000);
  ASSERT_TRUE(drained) << "NoC failed to drain: " << received.size() << "/" << expected.size();
  for (const auto& [id, count] : received) {
    EXPECT_EQ(count, 1) << "packet " << id << " duplicated";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MeshStressTest,
    ::testing::Values(std::make_tuple(2, 2, 1ull), std::make_tuple(4, 4, 2ull),
                      std::make_tuple(8, 8, 3ull), std::make_tuple(1, 8, 4ull),
                      std::make_tuple(8, 1, 5ull), std::make_tuple(3, 5, 6ull)));

TEST(MeshTest, InjectBackpressureWhenQueueFull) {
  Simulator sim;
  MeshConfig cfg{2, 2, 4, 8};  // Tiny 8-flit injection queue.
  Mesh mesh(cfg);
  sim.Register(&mesh);
  // A 256-byte packet is 9 flits > 8: can never inject.
  EXPECT_FALSE(mesh.ni(0).Inject(MakePacket(0, 1, 256), sim.now()));
  // 3-flit packets: two fit (6 flits), the third does not.
  EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 1, 64), sim.now()));
  EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 1, 64), sim.now()));
  EXPECT_FALSE(mesh.ni(0).Inject(MakePacket(0, 1, 64), sim.now()));
  EXPECT_GE(mesh.ni(0).counters().Get("ni.inject_backpressure"), 1u);
}

TEST(MeshTest, LatencyHistogramPopulated) {
  Simulator sim;
  Mesh mesh(MeshConfig{4, 4, 8, 64});
  sim.Register(&mesh);
  for (int i = 0; i < 10; ++i) {
    mesh.ni(0).Inject(MakePacket(0, 15, 32, i), sim.now());
  }
  sim.Run(2000);
  EXPECT_EQ(mesh.AggregateLatency().count(), 10u);
  EXPECT_GT(mesh.AggregateLatency().Mean(), 6.0);  // At least the hop count.
}

TEST(MeshTest, WormholePacketsDoNotInterleaveOnAVc) {
  // Two large packets from different sources to the same destination on the
  // same VC: both must arrive intact (wormhole keeps them contiguous).
  Simulator sim;
  Mesh mesh(MeshConfig{4, 1, 2, 64});
  sim.Register(&mesh);
  auto a = MakePacket(0, 3, 300, 1);
  auto b = MakePacket(1, 3, 300, 2);
  mesh.ni(0).Inject(a, sim.now());
  mesh.ni(1).Inject(b, sim.now());
  int got = 0;
  sim.RunUntil(
      [&] {
        while (auto p = mesh.ni(3).Retrieve()) {
          EXPECT_TRUE(p->packet_id == 1 || p->packet_id == 2);
          ++got;
        }
        return got == 2;
      },
      5000);
  EXPECT_EQ(got, 2);
}

TEST(MeshTest, VcsIsolateRequestAndResponseTraffic) {
  Simulator sim;
  Mesh mesh(MeshConfig{4, 1, 2, 256});
  sim.Register(&mesh);
  // Saturate the request VC along the row.
  for (int i = 0; i < 20; ++i) {
    mesh.ni(0).Inject(MakePacket(0, 3, 200, 100 + i, Vc::kRequest), sim.now());
  }
  // A single response packet should still get through promptly.
  mesh.ni(0).Inject(MakePacket(0, 3, 32, 999, Vc::kResponse), sim.now());
  bool response_arrived = false;
  int requests_arrived = 0;
  sim.RunUntil(
      [&] {
        while (auto p = mesh.ni(3).Retrieve()) {
          if (p->packet_id == 999) {
            response_arrived = true;
          } else {
            ++requests_arrived;
          }
        }
        return response_arrived;
      },
      50000);
  EXPECT_TRUE(response_arrived);
  // The response must not have waited for the whole request backlog.
  EXPECT_LT(requests_arrived, 20);
}

TEST(MeshTest, ResourceCostScalesWithTiles) {
  Mesh small(MeshConfig{2, 2, 8, 64});
  Mesh big(MeshConfig{4, 4, 8, 64});
  EXPECT_EQ(big.LogicCellCost(), 4 * small.LogicCellCost());
}

TEST(TokenBucketTest, UnlimitedByDefault) {
  TokenBucket tb;
  EXPECT_TRUE(tb.unlimited());
  EXPECT_TRUE(tb.TryConsume(0, 1000000));
}

TEST(TokenBucketTest, BurstThenThrottle) {
  TokenBucket tb(100, 10);  // 0.1 tokens/cycle, burst 10.
  // The initial burst is available immediately.
  EXPECT_TRUE(tb.TryConsume(0, 10));
  // Bucket now empty: an immediate request fails.
  EXPECT_FALSE(tb.TryConsume(0, 1));
  // After 10 cycles, one token has accumulated.
  EXPECT_TRUE(tb.TryConsume(10, 1));
  EXPECT_FALSE(tb.TryConsume(10, 1));
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket tb(1000, 5);  // 1 token/cycle, burst 5.
  EXPECT_TRUE(tb.TryConsume(0, 5));
  // A long idle period must not accumulate more than the burst.
  EXPECT_FALSE(tb.TryConsume(1000000, 6));
  EXPECT_TRUE(tb.TryConsume(1000000, 5));
}

TEST(TokenBucketTest, WouldAllowDoesNotConsume) {
  TokenBucket tb(1000, 4);
  EXPECT_TRUE(tb.WouldAllow(0, 4));
  EXPECT_TRUE(tb.WouldAllow(0, 4));
  EXPECT_TRUE(tb.TryConsume(0, 4));
  EXPECT_FALSE(tb.WouldAllow(0, 1));
}

TEST(TokenBucketTest, SustainedRateMatchesConfig) {
  TokenBucket tb(500, 8);  // 0.5 tokens/cycle.
  uint64_t granted = 0;
  for (Cycle c = 0; c < 10000; ++c) {
    if (tb.TryConsume(c, 1)) {
      ++granted;
    }
  }
  // ~0.5/cycle over 10k cycles, plus the initial burst.
  EXPECT_NEAR(static_cast<double>(granted), 5008.0, 16.0);
}

TEST(TokenBucketTest, NoDoubleRefillWithinOneCycle) {
  TokenBucket tb(1000, 5);  // 1 token/cycle, burst 5.
  EXPECT_TRUE(tb.TryConsume(0, 5));
  // Three cycles accrue exactly three tokens — a second consume at the same
  // cycle must not re-apply the refill.
  EXPECT_TRUE(tb.TryConsume(3, 3));
  EXPECT_FALSE(tb.TryConsume(3, 1));
}

TEST(WindowMeterTest, UnlimitedByDefault) {
  WindowMeter wm;
  EXPECT_TRUE(wm.unlimited());
  EXPECT_TRUE(wm.TryConsume(0, 1000000));
  EXPECT_EQ(wm.NextWindowStart(123), 123u);
}

// Regression: the boundary cycle W belongs to window 1 exactly once. A grant
// at cycle W must not draw on window 0's remaining allowance, and must not
// double-count into the allowance available at W+1.
TEST(WindowMeterTest, BoundaryCycleChargedExactlyOnce) {
  WindowMeter wm(1, 100);  // 1 grant per 100-cycle window.
  EXPECT_TRUE(wm.TryConsume(99, 1));    // Window 0's grant, spent at W-1.
  EXPECT_FALSE(wm.TryConsume(99, 1));   // Window 0 exhausted.
  EXPECT_TRUE(wm.TryConsume(100, 1));   // Cycle W: window 1's fresh grant.
  EXPECT_FALSE(wm.TryConsume(100, 1));  // Charged at W: no second grant at W.
  EXPECT_FALSE(wm.TryConsume(101, 1));  // ...and none left at W+1 either.
  EXPECT_FALSE(wm.TryConsume(199, 1));  // Window 1 stays exhausted.
  EXPECT_TRUE(wm.TryConsume(200, 1));   // Window 2 starts fresh.
}

TEST(WindowMeterTest, UnusedAllowanceDoesNotCarryOver) {
  WindowMeter wm(5, 100);
  // Windows 0 and 1 go completely unused; window 2 still grants only 5.
  EXPECT_TRUE(wm.TryConsume(250, 5));
  EXPECT_FALSE(wm.TryConsume(250, 1));
  EXPECT_EQ(wm.used(299), 5u);
}

TEST(WindowMeterTest, WouldAllowDoesNotConsume) {
  WindowMeter wm(2, 100);
  EXPECT_TRUE(wm.WouldAllow(0, 2));
  EXPECT_TRUE(wm.WouldAllow(0, 2));
  EXPECT_TRUE(wm.TryConsume(0, 2));
  EXPECT_FALSE(wm.WouldAllow(0, 1));
  EXPECT_EQ(wm.used(0), 2u);
}

TEST(WindowMeterTest, NextWindowStartPinsBoundary) {
  WindowMeter wm(1, 100);
  EXPECT_EQ(wm.NextWindowStart(0), 100u);
  EXPECT_EQ(wm.NextWindowStart(99), 100u);
  // At the boundary cycle itself the *next* window starts one full window on.
  EXPECT_EQ(wm.NextWindowStart(100), 200u);
}

// Weighted arbitration: with an 8:1 weight split, two saturating flows
// contending for the same output link share it roughly by weight.
TEST(MeshTest, WeightedClassesShareContendedLink) {
  Simulator sim;
  Mesh mesh(MeshConfig{4, 1, 8, 64});
  sim.Register(&mesh);
  mesh.SetArbClassWeight(1, 8);
  mesh.SetArbClassWeight(2, 1);
  uint64_t next_id = 1;
  uint64_t delivered_heavy = 0;
  uint64_t delivered_light = 0;
  for (Cycle c = 0; c < 20000; ++c) {
    auto heavy = MakePacket(0, 3, 256, next_id++);
    heavy->arb_class = 1;
    mesh.ni(0).Inject(heavy, sim.now());
    auto light = MakePacket(1, 3, 256, next_id++);
    light->arb_class = 2;
    mesh.ni(1).Inject(light, sim.now());
    sim.Run(1);
    while (mesh.ni(3).HasDeliverable()) {
      auto got = mesh.ni(3).Retrieve();
      (got->arb_class == 1 ? delivered_heavy : delivered_light) += 1;
    }
  }
  EXPECT_GT(delivered_light, 0u);  // Never starved outright.
  EXPECT_GT(delivered_heavy, 3 * delivered_light);  // ...but 8:1 weights bite.
}

// Work conservation: a weight-1 class running alone must keep the link
// busy — weights divide contended bandwidth, they are not absolute caps.
TEST(MeshTest, WeightedArbitrationIsWorkConserving) {
  auto run_alone = [](bool weighted) {
    Simulator sim;
    Mesh mesh(MeshConfig{4, 1, 8, 64});
    sim.Register(&mesh);
    if (weighted) {
      mesh.SetArbClassWeight(1, 8);
      mesh.SetArbClassWeight(2, 1);
    }
    uint64_t next_id = 1;
    uint64_t delivered = 0;
    for (Cycle c = 0; c < 10000; ++c) {
      auto p = MakePacket(0, 3, 256, next_id++);
      p->arb_class = 2;  // The lightest class, with no competition.
      mesh.ni(0).Inject(p, sim.now());
      sim.Run(1);
      while (mesh.ni(3).HasDeliverable()) {
        mesh.ni(3).Retrieve();
        ++delivered;
      }
    }
    return delivered;
  };
  const uint64_t unweighted = run_alone(false);
  const uint64_t weighted = run_alone(true);
  // Within 10% of the unweighted link rate (DRR rounds cost at most an
  // occasional arbitration cycle).
  EXPECT_GE(weighted * 10, unweighted * 9);
}

// Fixed fault windows for the golden run: router 27 forwards nothing during
// [1500, 1700), and every packet leaving router 36 over a link during
// [2000, 2400) is dropped.
class WindowFaultModel : public NocFaultModel {
 public:
  bool OnLinkTraverse(TileId router_tile, const Flit& flit, Cycle now) override {
    (void)flit;
    return router_tile == 36 && now >= 2000 && now < 2400;
  }
  bool RouterStalled(TileId router_tile, Cycle now) override {
    return router_tile == 27 && now >= 1500 && now < 1700;
  }
};

uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return hash;
}

// Golden digest of the router's observable behaviour. The differential
// tests compare two engines that share the same Router code, so they cannot
// see a router-level change; this pins it to a recorded constant instead.
// A contended 8x8 mesh with shallow buffers carries random multi-flit
// packets on both VCs in three weighted arbitration classes, through a
// router stall window and a link-drop window. The digest covers every
// tile's delivery order with eject cycles, the aggregate counters and the
// packet-latency histogram. Any arbitration, stall-accounting or
// fault-handling change moves it.
TEST(MeshTest, RouterGoldenDigest) {
  Simulator sim;
  Mesh mesh(MeshConfig{8, 8, 4, 64});
  sim.Register(&mesh);
  WindowFaultModel faults;
  mesh.SetFaultModel(&faults);
  mesh.SetArbClassWeight(1, 4);
  mesh.SetArbClassWeight(2, 2);
  Rng rng(12);
  const uint32_t n = mesh.num_tiles();
  uint64_t next_id = 1;
  std::string deliveries;
  auto drain = [&] {
    for (uint32_t t = 0; t < n; ++t) {
      while (auto p = mesh.ni(t).Retrieve()) {
        deliveries += std::to_string(t) + ':' + std::to_string(p->packet_id) + '@' +
                      std::to_string(sim.now()) + ' ';
      }
    }
  };
  for (Cycle c = 0; c < 9000; ++c) {
    if (c < 3000) {
      for (int k = 0; k < 12; ++k) {
        const TileId src = static_cast<TileId>(rng.NextBelow(n));
        // A third of the traffic converges on one hotspot column.
        const TileId dst = rng.NextBool(0.33) ? static_cast<TileId>(rng.NextBelow(8) * 8 + 5)
                                              : static_cast<TileId>(rng.NextBelow(n));
        auto p = MakePacket(src, dst, rng.NextBelow(160), next_id++,
                            rng.NextBool(0.5) ? Vc::kRequest : Vc::kResponse);
        p->arb_class = static_cast<uint8_t>(rng.NextBelow(3));
        mesh.ni(src).Inject(p, sim.now());
      }
    }
    sim.Run(1);
    drain();
  }
  const Histogram latency = mesh.AggregateLatency();
  const std::string counters = mesh.AggregateCounters().ToString();
  uint64_t hash = 0xcbf29ce484222325ull;
  hash = Fnv1a(hash, deliveries);
  hash = Fnv1a(hash, counters);
  hash = Fnv1a(hash, latency.Summary());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    hash = Fnv1a(hash, std::to_string(latency.Percentile(q)));
  }
  // The run must exercise what the digest is meant to pin.
  const CounterSet agg = mesh.AggregateCounters();
  EXPECT_GT(agg.Get("router.stalls"), 0u);
  EXPECT_GT(agg.Get("router.weighted_grants"), 0u);
  EXPECT_GT(agg.Get("router.fault_stalled_cycles"), 0u);
  EXPECT_GT(agg.Get("router.fault_dropped_packets"), 0u);
  EXPECT_GT(agg.Get("ni.inject_backpressure"), 0u);
  EXPECT_EQ(agg.Get("ni.packets_delivered") + agg.Get("ni.packets_dropped_fault"),
            agg.Get("ni.packets_injected"));  // Drained.
  EXPECT_EQ(hash, 0xb83cc7b836358d77ull) << counters << "\n" << latency.Summary();
}

}  // namespace
}  // namespace apiary
