// Unit tests for RingBuffer, the single-owner queue primitive on the flit
// and message paths (bounded or growing).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/noc/packet_pool.h"
#include "src/sim/payload_arena.h"
#include "src/sim/ring_buffer.h"

namespace apiary {
namespace {

TEST(RingBufferTest, FifoOrderAcrossWraparound) {
  RingBuffer<int> ring(3);  // Rounds slot storage to 4; logical capacity stays 3.
  EXPECT_EQ(ring.capacity(), 3u);
  int next_push = 0;
  int next_pop = 0;
  // Push/pop enough to wrap the index mask many times.
  for (int round = 0; round < 100; ++round) {
    while (!ring.full()) {
      ring.push_back(next_push++);
    }
    EXPECT_EQ(ring.size(), 3u);
    while (!ring.empty()) {
      EXPECT_EQ(ring.take_front(), next_pop++);
    }
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(RingBufferTest, PopResetsSlotImmediately) {
  // Reference-holding elements must release their target the moment they
  // leave the queue — the packet pool's acquire/release balance depends on
  // this, not on the slot being overwritten later.
  RingBuffer<std::shared_ptr<int>> ring(4);
  auto value = std::make_shared<int>(42);
  ring.push_back(value);
  EXPECT_EQ(value.use_count(), 2);
  ring.pop_front();
  EXPECT_EQ(value.use_count(), 1);

  ring.push_back(value);
  auto taken = ring.take_front();
  EXPECT_EQ(value.use_count(), 2);  // `value` + `taken`, nothing in the ring.
  taken.reset();
  EXPECT_EQ(value.use_count(), 1);
}

TEST(RingBufferTest, ClearReleasesEverything) {
  RingBuffer<std::shared_ptr<int>> ring(8);
  auto value = std::make_shared<int>(7);
  for (int i = 0; i < 5; ++i) {
    ring.push_back(value);
  }
  EXPECT_EQ(value.use_count(), 6);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(value.use_count(), 1);
}

TEST(RingBufferTest, GrowingRingKeepsOrderAcrossItsWrapPoint) {
  // Unbounded ring: advance the head so the live elements wrap the slot
  // array, then push past the slot count so the growth has to unwrap them.
  RingBuffer<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 1; round <= 6; ++round) {
    for (int i = 0; i < 3; ++i) {
      ring.push_back(next_push++);
    }
    EXPECT_EQ(ring.take_front(), next_pop++);
    for (int i = 0; i < (1 << round); ++i) {
      ring.push_back(next_push++);
    }
    EXPECT_FALSE(ring.full());  // A growing ring is never full.
    for (uint32_t i = 0; i < ring.size(); ++i) {
      EXPECT_EQ(ring[i], next_pop + static_cast<int>(i));
    }
    for (int i = 0; i < (1 << round); ++i) {
      EXPECT_EQ(ring.take_front(), next_pop++);
    }
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.take_front(), next_pop++);
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(RingBufferTest, PopReleasesPacketAndPayloadStorageAtOnce) {
  // Message FIFOs grow once and keep their slots, but what an element owns
  // must go back the moment it is popped: a pooled packet to its pool, a
  // payload's arena chunk to the arena.
  FallbackPayloadArena();
  PacketPool pool;
  {
    RingBuffer<PacketRef> fifo;
    for (int i = 0; i < 40; ++i) {
      fifo.push_back(pool.Acquire());
    }
    EXPECT_EQ(pool.stats().live, 40u);
    for (uint32_t left = 39; !fifo.empty(); --left) {
      fifo.pop_front();
      EXPECT_EQ(pool.stats().live, left);
    }
  }
  EXPECT_EQ(pool.stats().acquires, pool.stats().releases);

  RingBuffer<PayloadBuf> payloads;
  const uint64_t live_before = PayloadBuf::ArenaStats().live_chunks;
  for (int i = 0; i < 40; ++i) {
    PayloadBuf buf;
    buf.assign(200, static_cast<uint8_t>(i));  // Past the inline bytes: an arena chunk.
    payloads.push_back(std::move(buf));
  }
  EXPECT_EQ(PayloadBuf::ArenaStats().live_chunks, live_before + 40);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(payloads.front().data()[0], static_cast<uint8_t>(i));
    payloads.pop_front();
    EXPECT_EQ(PayloadBuf::ArenaStats().live_chunks, live_before + 39 - i);
  }
}

}  // namespace
}  // namespace apiary
