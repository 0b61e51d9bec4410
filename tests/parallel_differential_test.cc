// Differential determinism for the sharded parallel engine: the 8x8 board
// at threads 2 and 4, in reference and optimized modes, must match the
// threads=1 reference run byte for byte. Run under TSan in CI, this is the
// data-race proof for the parallel engine and its per-shard active sets.
// Harness and workloads: tests/differential_harness.h.
#include <gtest/gtest.h>

#include "tests/differential_harness.h"

namespace apiary::differential {
namespace {

TEST(ParallelDifferentialTest, FullWorkloadIsByteIdenticalAcrossThreadCounts) {
  ExpectShardedBoardIsReal(CheckModes(RunShardedBoard, {Mode::kReference, Mode::kOptimized},
                                      {2, 4}, kShardedBoardEngine));
}

}  // namespace
}  // namespace apiary::differential
