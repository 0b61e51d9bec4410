// Differential determinism for the active-set scheduler: the optimized
// engine must match the reference engine byte for byte on the full 8x8
// board, and skip exactly the recorded cycles.
// Harness and workloads: tests/differential_harness.h.
#include <gtest/gtest.h>

#include "tests/differential_harness.h"

namespace apiary::differential {
namespace {

TEST(ActiveSetDifferentialTest, FullWorkloadIsByteIdenticalWithAndWithoutActiveSets) {
  ExpectFullBoardIsReal(CheckModes(RunFullBoard, {Mode::kOptimized}, kFullBoardEngine));
}

}  // namespace
}  // namespace apiary::differential
