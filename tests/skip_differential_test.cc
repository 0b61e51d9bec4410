// Differential determinism for quiescence skipping: the optimized engine
// (active set + fast-forward, the default) must be invisible on the serial
// 4x4 workloads. Harness and workloads: tests/differential_harness.h.
#include <gtest/gtest.h>

#include <string>

#include "tests/differential_harness.h"

namespace apiary::differential {
namespace {

TEST(SkipDifferentialTest, IpcScenarioMatchesNoSkipByteForByte) {
  const RunResult ref = CheckModes(RunSerialIpc, {Mode::kOptimized}, kSerialIpcEngine);
  EXPECT_GT(ref.client_sent, 100u);
  EXPECT_GT(ref.client_ok, 100u);
}

TEST(SkipDifferentialTest, ChaosScenarioMatchesNoSkipByteForByte) {
  const RunResult ref = CheckModes(RunSerialChaos, {Mode::kOptimized}, kSerialChaosEngine);
  EXPECT_NE(ref.injector_counters.find("fault.accel_crash=1"), std::string::npos);
  EXPECT_GT(ref.client_ok + ref.client_errors, 0u);
}

TEST(SkipDifferentialTest, ElasticScenarioMatchesNoSkipByteForByte) {
  const RunResult ref = CheckModes(RunElasticService, {Mode::kOptimized}, kElasticServiceEngine);
  ExpectElasticServiceIsReal(ref);
}

}  // namespace
}  // namespace apiary::differential
