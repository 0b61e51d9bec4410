// CRC-32 checksums: the IEEE 802.3 polynomial (the checksum accelerator's
// function) and CRC-32C (Castagnoli, the NoC's end-to-end wire checksum).
//
// Both are reflected CRCs with init and xorout 0xffffffff, computed eight
// bytes per step. CRC-32C uses the SSE4.2 `crc32` instruction when a
// one-time runtime CPU check finds it, and otherwise a portable slicing-by-8
// table walk that produces the same values; IEEE always takes the table
// walk. CRC-32C is exposed as a streaming init/update/finalize API so a
// packet's head region and payload fold into one pass without a contiguous
// copy: splitting the input anywhere gives the same value.
#ifndef SRC_SIM_CRC32_H_
#define SRC_SIM_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace apiary {

// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320).
uint32_t Crc32(std::span<const uint8_t> data);

// CRC-32C (Castagnoli, reflected polynomial 0x82f63b78), streaming form:
//   uint32_t state = kCrc32cInit;
//   state = Crc32cUpdate(state, a, a_len);
//   state = Crc32cUpdate(state, b, b_len);
//   uint32_t crc = Crc32cFinalize(state);   // == Crc32c(a ++ b)
inline constexpr uint32_t kCrc32cInit = 0xffffffffu;
uint32_t Crc32cUpdate(uint32_t state, const uint8_t* data, size_t len);
inline uint32_t Crc32cFinalize(uint32_t state) { return state ^ 0xffffffffu; }

inline uint32_t Crc32c(const uint8_t* data, size_t len) {
  return Crc32cFinalize(Crc32cUpdate(kCrc32cInit, data, len));
}

// The two CRC-32C implementations behind Crc32cUpdate, exposed so tests can
// check they agree. Crc32cUpdateHardware may only be called when
// Crc32cHardwareAvailable() is true.
uint32_t Crc32cUpdatePortable(uint32_t state, const uint8_t* data, size_t len);
uint32_t Crc32cUpdateHardware(uint32_t state, const uint8_t* data, size_t len);
bool Crc32cHardwareAvailable();

}  // namespace apiary

#endif  // SRC_SIM_CRC32_H_
