// Seeded input generation. Every input a workload feeds the library —
// arrival times, payload bytes, KV keys and values, attack and fault seeds —
// comes from here, from the run's --seed alone. The generators are the
// benchmark's own, so a change to the library's RNG cannot move the inputs.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64: a tiny, well-mixed generator; Mix() is its one-shot hash.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, 1).
  double NextDouble();

 private:
  uint64_t state_;
};
uint64_t Mix(uint64_t a, uint64_t b);

// Fills `out` with the byte stream of `stream_key`.
void FillBytes(uint64_t stream_key, std::span<uint8_t> out);

// CRC-32 (IEEE 802.3, reflected, init and xorout 0xffffffff), written here
// independently of the library's accelerator so replies are checked
// against a second implementation.
uint32_t ReferenceCrc32(std::span<const uint8_t> data);

// diurnal-autoscale's trace: a sin^2 diurnal profile (trough at both ends,
// peak mid-run) with two 2x bursts on the shoulders, as non-homogeneous
// Poisson arrivals by thinning.
struct DiurnalShape {
  uint64_t run_cycles = 3'000'000;
  uint64_t first_arrival = 10'000;
  double trough_per_1k = 0.4;
  double peak_per_1k = 4.0;
  double burst_mult = 2.0;
};
std::vector<uint64_t> DiurnalArrivals(uint64_t seed, const DiurnalShape& shape);

// tenant-flood's victim KV sequence: op 2j is PUT(key j, value j) and op
// 2j+1 is GET(key j), over a small keyspace so keys are overwritten.
inline constexpr uint32_t kKvKeys = 16;
inline constexpr uint32_t kKvValueBytes = 64;
uint32_t KvKeyIndex(uint64_t seed, uint64_t pair);
std::string KvKeyName(uint32_t key_index);
std::vector<uint8_t> KvValue(uint64_t seed, uint64_t pair);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
