// Fundamental typedefs shared across the Apiary simulation.
#ifndef SRC_SIM_TYPES_H_
#define SRC_SIM_TYPES_H_

#include <cstdint>

namespace apiary {

// Simulated time, measured in clock cycles of the single global clock domain.
// The board model maps cycles to nanoseconds via its configured frequency.
using Cycle = uint64_t;

// Sentinel returned by NextActivity hooks (Clocked, Accelerator) meaning
// "idle until external input arrives" — the block schedules nothing on its
// own and only wakes because some other block or the harness driving the
// simulator pushes work into it.
inline constexpr Cycle kNoActivity = ~Cycle{0};

// Identifies a tile on the NoC. Tiles are numbered row-major over the mesh.
using TileId = uint32_t;

// Sentinel for "no tile" / broadcast-invalid destinations.
inline constexpr TileId kInvalidTile = 0xffffffffu;

// Identifies a logical service name (the API-level destination in Section 4.3
// of the paper). Logical ids are resolved to TileIds by the per-tile monitor.
using ServiceId = uint32_t;

inline constexpr ServiceId kInvalidService = 0xffffffffu;

// Identifies a process: one user context running on one accelerator (4.2).
using ProcessId = uint32_t;

// Identifies an application: a set of mutually trusting processes (4.1).
using AppId = uint32_t;

inline constexpr AppId kInvalidApp = 0xffffffffu;

// Index of a capability reference inside a tile's partitioned capability
// table. The accelerator only ever holds a CapRef, never the capability
// itself (4.6).
using CapRef = uint32_t;

inline constexpr CapRef kInvalidCapRef = 0xffffffffu;

}  // namespace apiary

#endif  // SRC_SIM_TYPES_H_
