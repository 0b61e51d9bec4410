// Edge-case tests for the spatial decomposition (DomainPartition) and the
// sharded engine driving it (ParallelSimulator): degenerate mesh shapes,
// empty shards, and mid-run unregistration of boundary blocks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/noc/mesh.h"
#include "src/noc/packet_pool.h"
#include "src/sim/parallel/domain_partition.h"
#include "src/sim/parallel/parallel_simulator.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

TEST(DomainPartitionTest, OneByNSplitsAlongTheLongAxis) {
  // 1-wide mesh: the long axis is vertical, so bands are row ranges.
  const DomainPartition p = DomainPartition::Build(1, 8, 4);
  EXPECT_FALSE(p.split_columns);
  EXPECT_EQ(p.num_shards, 4u);
  for (uint32_t t = 0; t < 8; ++t) {
    EXPECT_EQ(p.ShardOfTile(t), t / 2) << "tile " << t;
  }
  // Band s only ever touches bands s-1 and s+1.
  for (uint32_t s = 0; s < 4; ++s) {
    for (const uint32_t n : p.neighbors[s]) {
      EXPECT_TRUE(n + 1 == s || n == s + 1) << "shard " << s << " neighbor " << n;
    }
  }
}

TEST(DomainPartitionTest, NByOneSplitsAlongTheLongAxis) {
  const DomainPartition p = DomainPartition::Build(8, 1, 2);
  EXPECT_TRUE(p.split_columns);
  for (uint32_t t = 0; t < 8; ++t) {
    EXPECT_EQ(p.ShardOfTile(t), t < 4 ? 0u : 1u);
  }
  EXPECT_TRUE(p.SameShard(0, 3));
  EXPECT_FALSE(p.SameShard(3, 4));
}

TEST(DomainPartitionTest, MoreShardsThanAxisLeavesEmptyShards) {
  // 3 rows split 4 ways: one shard ends up with no tiles. That is legal —
  // it simply has no work and no boundary edges.
  const DomainPartition p = DomainPartition::Build(1, 3, 4);
  EXPECT_EQ(p.num_shards, 4u);
  uint32_t total = 0;
  uint32_t empty = 0;
  for (const auto& tiles : p.shard_tiles) {
    total += static_cast<uint32_t>(tiles.size());
    empty += tiles.empty() ? 1 : 0;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(empty, 1u);
  // Every tile still maps to exactly one shard.
  for (uint32_t t = 0; t < 3; ++t) {
    EXPECT_LT(p.ShardOfTile(t), 4u);
  }
}

// Self-driving traffic block for standalone-mesh engine tests: sends
// `count` small packets from `src` to `dst`, one per cycle. Homed at its
// source tile, so the sharded engine ticks it inside that shard's phase.
class PacketSource : public Clocked {
 public:
  PacketSource(Mesh* mesh, TileId src, TileId dst, int count)
      : mesh_(mesh), src_(src), dst_(dst), count_(count) {}

  void Tick(Cycle now) override {
    if (sent_ >= count_) {
      return;
    }
    NetworkInterface& ni = mesh_->ni(src_);
    PacketRef p = ni.pool()->Acquire();
    p->src = src_;
    p->dst = dst_;
    p->packet_id = static_cast<uint64_t>(src_) << 32 | static_cast<uint32_t>(sent_);
    p->payload.assign(16, static_cast<uint8_t>(sent_));
    if (ni.Inject(std::move(p), now)) {
      ++sent_;
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return sent_ < count_ ? now : kNoActivity;
  }
  [[nodiscard]] TileId PartitionHome() const override { return src_; }
  std::string DebugName() const override { return "packet_source"; }

  int sent() const { return sent_; }

 private:
  Mesh* mesh_;
  TileId src_;
  TileId dst_;
  int count_;
  int sent_ = 0;
};

// Drains its tile's delivery queue and fingerprints what arrived.
class PacketSink : public Clocked {
 public:
  PacketSink(Mesh* mesh, TileId tile) : mesh_(mesh), tile_(tile) {
    // This sink is the consumer above the NI (the role a Tile normally
    // plays), so it claims the NI's delivery-side wake channel; without it a
    // parked sink would never see deliveries.
    mesh_->ni(tile_).SetSinkWake(WakeHint(this));
  }

  void Tick(Cycle now) override {
    (void)now;
    while (mesh_->ni(tile_).HasDeliverable()) {
      PacketRef p = mesh_->ni(tile_).Retrieve();
      ++received_;
      digest_ = digest_ * 1099511628211ull + p->packet_id;
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return mesh_->ni(tile_).HasDeliverable() ? now : kNoActivity;
  }
  [[nodiscard]] TileId PartitionHome() const override { return tile_; }
  std::string DebugName() const override { return "packet_sink"; }

  int received() const { return received_; }
  uint64_t digest() const { return digest_; }

 private:
  Mesh* mesh_;
  TileId tile_;
  int received_ = 0;
  uint64_t digest_ = 14695981039346656037ull;
};

struct CrossShardResult {
  int received = 0;
  uint64_t digest = 0;
  uint64_t flits_routed = 0;
  uint64_t handed_off = 0;
  std::string counters;
};

// Runs end-to-end cross-shard traffic on a mesh of the given shape and
// returns everything the run observed, for byte-comparison across thread
// counts.
CrossShardResult RunCrossShardTraffic(uint32_t width, uint32_t height, uint32_t shards,
                                      uint32_t threads, Cycle cycles) {
  Simulator sim;
  Mesh mesh(MeshConfig{width, height, 8, 128}, &sim.context());
  sim.Register(&mesh);
  const TileId last = width * height - 1;
  PacketSource source(&mesh, 0, last, 40);
  PacketSource reverse(&mesh, last, 0, 40);
  PacketSink sink(&mesh, last);
  PacketSink reverse_sink(&mesh, 0);
  sim.Register(&source);
  sim.Register(&reverse);
  sim.Register(&sink);
  sim.Register(&reverse_sink);

  ParallelSimulator psim(&sim, &mesh, ParallelConfig{shards, threads});
  psim.Run(cycles);

  CrossShardResult result;
  result.received = sink.received() + reverse_sink.received();
  result.digest = sink.digest() ^ reverse_sink.digest();
  result.flits_routed = mesh.TotalFlitsRouted();
  result.handed_off = mesh.BoundaryFlitsHandedOff();
  result.counters = mesh.AggregateCounters().ToString();
  return result;
}

class ShapeParamTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint32_t>> {};

TEST_P(ShapeParamTest, CrossShardTrafficIsThreadCountInvariant) {
  const auto [width, height, shards] = GetParam();
  const CrossShardResult serial = RunCrossShardTraffic(width, height, shards, 1, 3000);
  EXPECT_EQ(serial.received, 80);
  EXPECT_GT(serial.handed_off, 0u);
  for (const uint32_t threads : {2u, shards}) {
    const CrossShardResult parallel = RunCrossShardTraffic(width, height, shards, threads, 3000);
    EXPECT_EQ(parallel.received, serial.received) << "threads=" << threads;
    EXPECT_EQ(parallel.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(parallel.flits_routed, serial.flits_routed) << "threads=" << threads;
    EXPECT_EQ(parallel.handed_off, serial.handed_off) << "threads=" << threads;
    EXPECT_EQ(parallel.counters, serial.counters) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(DegenerateShapes, ShapeParamTest,
                         ::testing::Values(std::make_tuple(1u, 8u, 4u),   // 1xN column
                                           std::make_tuple(8u, 1u, 4u),   // Nx1 row
                                           std::make_tuple(1u, 3u, 4u),   // empty shard
                                           std::make_tuple(4u, 4u, 2u))); // square

TEST(ParallelSimulatorTest, RequestMasksStayExactWhenSharded) {
  // A 4x4 mesh with shallow buffers in two column-band shards on two
  // threads: flows cross the cut both ways and converge on shared sinks, so
  // boundary credits, stalls and wormhole blocking all move router input
  // buffers. After every cycle each router's maintained request masks must
  // equal a from-scratch rebuild.
  Simulator sim;
  Mesh mesh(MeshConfig{4, 4, 2, 64}, &sim.context());
  sim.Register(&mesh);
  std::vector<std::unique_ptr<PacketSource>> sources;
  std::vector<std::unique_ptr<PacketSink>> sinks;
  constexpr TileId kFlows[][2] = {{0, 15}, {4, 15}, {8, 15}, {12, 3}, {15, 0}, {11, 0}, {7, 12}};
  for (const auto& flow : kFlows) {
    sources.push_back(std::make_unique<PacketSource>(&mesh, flow[0], flow[1], 300));
    sim.Register(sources.back().get());
  }
  for (const TileId t : {0u, 3u, 12u, 15u}) {
    sinks.push_back(std::make_unique<PacketSink>(&mesh, t));
    sim.Register(sinks.back().get());
  }
  ParallelSimulator psim(&sim, &mesh, ParallelConfig{2, 2});
  uint64_t inexact_masks = 0;
  for (Cycle c = 0; c < 3000; ++c) {
    psim.Run(1);
    for (uint32_t t = 0; t < mesh.num_tiles(); ++t) {
      inexact_masks += mesh.router(t).RequestMasksExact() ? 0 : 1;
    }
  }
  EXPECT_EQ(inexact_masks, 0u);
  int received = 0;
  for (const auto& sink : sinks) {
    received += sink->received();
  }
  EXPECT_EQ(received, 7 * 300);  // Every flow drained.
  EXPECT_GT(mesh.BoundaryFlitsHandedOff(), 0u);
  EXPECT_GT(mesh.AggregateCounters().Get("router.stalls"), 0u);
}

TEST(ParallelSimulatorTest, EmptyShardEngineRuns) {
  // 1x3 mesh split 4 ways: shard 0 owns no tiles. Threads clamp to the
  // shard count and the empty shard's phases are no-ops.
  Simulator sim;
  Mesh mesh(MeshConfig{1, 3, 8, 128}, &sim.context());
  sim.Register(&mesh);
  ParallelSimulator psim(&sim, &mesh, ParallelConfig{4, 8});
  EXPECT_EQ(psim.shards(), 4u);
  EXPECT_EQ(psim.threads(), 4u);  // Clamped from 8.
  psim.Run(100);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(ParallelSimulatorTest, MidRunUnregisterOfBoundaryBlock) {
  // A source living on a shard-boundary tile is unregistered mid-run from
  // root-phase code (an event). It must stop ticking that cycle onward, and
  // in-flight packets it already injected must still drain cleanly across
  // the cut.
  auto run = [](uint32_t threads) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 1, 8, 128}, &sim.context());
    sim.Register(&mesh);
    // Tile 3 is the last tile of shard 0 in an 8x1/2-shard split: every
    // packet it sends to tile 7 crosses the cut.
    PacketSource source(&mesh, 3, 7, 1000000);
    PacketSink sink(&mesh, 7);
    sim.Register(&source);
    sim.Register(&sink);
    ParallelSimulator psim(&sim, &mesh, ParallelConfig{2, threads});
    sim.ScheduleAt(50, [&](Cycle) { sim.Unregister(&source); });
    psim.Run(400);
    // Removal is applied at the end of cycle 50, so the source's last tick
    // is cycle 50 itself: 51 packets, all of which must still arrive.
    EXPECT_EQ(source.sent(), 51);
    EXPECT_EQ(sink.received(), 51);
    return sink.digest();
  };
  const uint64_t serial = run(1);
  EXPECT_EQ(run(2), serial);
}

}  // namespace
}  // namespace apiary
