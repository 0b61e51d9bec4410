// Good: the per-message FIFO is a growing RingBuffer.
#ifndef SRC_CORE_MONITOR_H_
#define SRC_CORE_MONITOR_H_

#include "src/sim/ring_buffer.h"

namespace apiary {

struct Message {};

class Monitor {
  RingBuffer<Message> inbox_;
};

}  // namespace apiary

#endif  // SRC_CORE_MONITOR_H_
