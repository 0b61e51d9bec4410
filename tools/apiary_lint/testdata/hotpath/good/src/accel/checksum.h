// Good: the checksum engine's per-request job queue is a growing ring.
#ifndef SRC_ACCEL_CHECKSUM_H_
#define SRC_ACCEL_CHECKSUM_H_

#include "src/sim/ring_buffer.h"

namespace apiary {

struct Job {};

class ChecksumAccelerator {
  RingBuffer<Job> jobs_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_CHECKSUM_H_
