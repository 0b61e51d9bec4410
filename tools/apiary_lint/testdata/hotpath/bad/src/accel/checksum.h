// Bad: the checksum engine's per-request job queue on std::deque.
#ifndef SRC_ACCEL_CHECKSUM_H_
#define SRC_ACCEL_CHECKSUM_H_

#include <deque>

namespace apiary {

struct Job {};

class ChecksumAccelerator {
  std::deque<Job> jobs_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_CHECKSUM_H_
