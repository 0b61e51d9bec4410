#include "perfbench/src/inputs.h"

#include <array>
#include <cmath>
#include <cstring>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix64::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t Mix(uint64_t a, uint64_t b) {
  SplitMix64 g(a ^ (b * 0xd1b54a32d192ed03ull));
  return g.Next();
}

void FillBytes(uint64_t stream_key, std::span<uint8_t> out) {
  SplitMix64 g(stream_key);
  size_t i = 0;
  while (i < out.size()) {
    const uint64_t word = g.Next();
    const size_t n = out.size() - i < 8 ? out.size() - i : 8;
    std::memcpy(out.data() + i, &word, n);
    i += n;
  }
}

uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (const uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::vector<uint64_t> DiurnalArrivals(uint64_t seed, const DiurnalShape& shape) {
  const double run = static_cast<double>(shape.run_cycles);
  const double burst1 = run / 5;
  const double burst2 = run * 3 / 4;
  const double burst_len = run / 50;
  const auto rate_per_cycle = [&](double t) {
    const double phase = std::sin(M_PI * t / run);
    double per_1k =
        shape.trough_per_1k + (shape.peak_per_1k - shape.trough_per_1k) * phase * phase;
    if ((t >= burst1 && t < burst1 + burst_len) || (t >= burst2 && t < burst2 + burst_len)) {
      per_1k *= shape.burst_mult;
    }
    return per_1k / 1000.0;
  };
  const double rate_max = shape.peak_per_1k * shape.burst_mult / 1000.0;
  SplitMix64 g(Mix(seed, 0xa11a1));
  std::vector<uint64_t> arrivals;
  double t = static_cast<double>(shape.first_arrival);
  while (true) {
    t += -std::log(1.0 - g.NextDouble()) / rate_max;
    if (t >= run) {
      break;
    }
    if (g.NextDouble() < rate_per_cycle(t) / rate_max) {
      arrivals.push_back(static_cast<uint64_t>(t));
    }
  }
  return arrivals;
}

uint32_t KvKeyIndex(uint64_t seed, uint64_t pair) {
  return static_cast<uint32_t>(Mix(Mix(seed, 0x6b6579), pair) % kKvKeys);
}

std::string KvKeyName(uint32_t key_index) { return "user:" + std::to_string(key_index); }

std::vector<uint8_t> KvValue(uint64_t seed, uint64_t pair) {
  std::vector<uint8_t> value(kKvValueBytes);
  FillBytes(Mix(Mix(seed, 0x76616c), pair), value);
  return value;
}

}  // namespace perfbench
