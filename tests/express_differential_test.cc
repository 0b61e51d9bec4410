// Differential determinism for express corridors: with express on, every
// workload must match its reference run byte for byte and launch
// corridors. Harness and workloads: tests/differential_harness.h.
#include <gtest/gtest.h>

#include <string>

#include "tests/differential_harness.h"

namespace apiary::differential {
namespace {

TEST(ExpressDifferentialTest, FullBoardMatchesNoExpressByteForByte) {
  ExpectFullBoardIsReal(CheckModes(RunFullBoard, {Mode::kExpress}, kFullBoardEngine));
}

TEST(ExpressDifferentialTest, SerialIpcMatchesNoExpressByteForByte) {
  const RunResult ref = CheckModes(RunSerialIpc, {Mode::kExpress}, kSerialIpcEngine);
  EXPECT_GT(ref.client_ok, 100u);
}

TEST(ExpressDifferentialTest, SerialChaosMatchesNoExpressByteForByte) {
  const RunResult ref = CheckModes(RunSerialChaos, {Mode::kExpress}, kSerialChaosEngine);
  EXPECT_NE(ref.injector_counters.find("fault.accel_crash=1"), std::string::npos);
}

// Vacating the service tile mid-stream must leave in-flight corridors to it
// with their exact timing; the optimized run without express is the control.
TEST(ExpressDifferentialTest, UndeployOnCorridorMatchesNoExpress) {
  const RunResult ref = CheckModes(RunMidCorridorUndeploy, {Mode::kOptimized, Mode::kExpress},
                                   kMidCorridorUndeployEngine);
  EXPECT_GT(ref.client_ok, 0u);
}

TEST(ExpressDifferentialTest, ElasticServiceMatchesNoExpressByteForByte) {
  ExpectElasticServiceIsReal(
      CheckModes(RunElasticService, {Mode::kExpress}, kElasticServiceEngine));
}

}  // namespace
}  // namespace apiary::differential
