// Suppressed: a cold-path deque in the KV store carrying its reason.
#ifndef SRC_ACCEL_KV_STORE_H_
#define SRC_ACCEL_KV_STORE_H_

#include <deque>

namespace apiary {

struct Snapshot {};

class KvStoreAccelerator {
  // NOLINTNEXTLINE(apiary-hot-path): preemption snapshots, one per context swap
  std::deque<Snapshot> snapshots_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_KV_STORE_H_
