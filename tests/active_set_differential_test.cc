// Differential determinism for the active-set scheduler: the optimized
// engine must match the reference engine byte for byte on the sharded 8x8
// board, and skip exactly the cycles the O(N) NextActivity sweep skipped.
// Harness and workloads: tests/differential_harness.h.
#include <gtest/gtest.h>

#include "tests/differential_harness.h"

namespace apiary::differential {
namespace {

TEST(ActiveSetDifferentialTest, FullWorkloadIsByteIdenticalWithAndWithoutActiveSets) {
  ExpectShardedBoardIsReal(
      CheckModes(RunShardedBoard, {Mode::kOptimized}, {1}, kShardedBoardEngine));
}

}  // namespace
}  // namespace apiary::differential
