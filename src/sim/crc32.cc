#include "src/sim/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define APIARY_CRC32C_X86 1
// Compiles one function for SSE4.2 without raising the whole build's target.
#define APIARY_SSE42 __attribute__((target("sse4.2")))
#endif

namespace apiary {
namespace {

// Slicing-by-8 tables: table[k][b] is the CRC register contribution of
// byte b followed by k zero bytes, so eight input bytes fold in with eight
// independent lookups instead of eight dependent ones.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeTables(uint32_t poly) {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? poly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < t.size(); ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Crc32Tables kIeeeTables = MakeTables(0xedb88320u);
constexpr Crc32Tables kCastagnoliTables = MakeTables(0x82f63b78u);

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint32_t SliceBy8(const Crc32Tables& t, uint32_t crc, const uint8_t* p, size_t len) {
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
          t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  return SliceBy8(kIeeeTables, 0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

uint32_t Crc32cUpdatePortable(uint32_t state, const uint8_t* data, size_t len) {
  return SliceBy8(kCastagnoliTables, state, data, len);
}

#ifdef APIARY_CRC32C_X86

APIARY_SSE42 uint32_t Crc32cUpdateHardware(uint32_t state, const uint8_t* data, size_t len) {
  uint64_t crc = state;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++data, --len) {
    crc32 = _mm_crc32_u8(crc32, *data);
  }
  return crc32;
}

bool Crc32cHardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}

#else

uint32_t Crc32cUpdateHardware(uint32_t state, const uint8_t* data, size_t len) {
  return Crc32cUpdatePortable(state, data, len);  // Unreachable: no hardware path.
}

bool Crc32cHardwareAvailable() { return false; }

#endif

uint32_t Crc32cUpdate(uint32_t state, const uint8_t* data, size_t len) {
  // One CPU check per process; every later call is a predictable branch.
  static const bool kHardware = Crc32cHardwareAvailable();
  return kHardware ? Crc32cUpdateHardware(state, data, len)
                   : Crc32cUpdatePortable(state, data, len);
}

}  // namespace apiary
