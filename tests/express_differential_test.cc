// Differential determinism for express corridors: with express on, every
// workload must match its reference run byte for byte, launch corridors,
// and on the sharded 8x8 board report the same lane stats at threads 1, 2
// and 4. Run under TSan in CI, this is the data-race proof for the
// per-shard express lanes. Harness and workloads:
// tests/differential_harness.h.
#include <gtest/gtest.h>

#include <string>

#include "tests/differential_harness.h"

namespace apiary::differential {
namespace {

TEST(ExpressDifferentialTest, ParallelWorkloadByteIdenticalAcrossExpressAndThreads) {
  ExpectShardedBoardIsReal(
      CheckModes(RunShardedBoard, {Mode::kExpress}, {1, 2, 4}, kShardedBoardEngine));
}

TEST(ExpressDifferentialTest, SerialIpcMatchesNoExpressByteForByte) {
  const RunResult ref = CheckModes(RunSerialIpc, {Mode::kExpress}, {1}, kSerialIpcEngine);
  EXPECT_GT(ref.client_ok, 100u);
}

TEST(ExpressDifferentialTest, SerialChaosMatchesNoExpressByteForByte) {
  const RunResult ref = CheckModes(RunSerialChaos, {Mode::kExpress}, {1}, kSerialChaosEngine);
  EXPECT_NE(ref.injector_counters.find("fault.accel_crash=1"), std::string::npos);
}

// Vacating the service tile mid-stream must leave in-flight corridors to it
// with their exact timing; the optimized run without express is the control.
TEST(ExpressDifferentialTest, UndeployOnCorridorMatchesNoExpress) {
  const RunResult ref = CheckModes(RunMidCorridorUndeploy, {Mode::kOptimized, Mode::kExpress},
                                   {1}, kMidCorridorUndeployEngine);
  EXPECT_GT(ref.client_ok, 0u);
}

TEST(ExpressDifferentialTest, ElasticServiceMatchesNoExpressByteForByte) {
  ExpectElasticServiceIsReal(
      CheckModes(RunElasticService, {Mode::kExpress}, {1}, kElasticServiceEngine));
}

}  // namespace
}  // namespace apiary::differential
