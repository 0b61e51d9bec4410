// Bad: a per-message FIFO on std::deque, which churns the heap as it drains.
#ifndef SRC_CORE_MONITOR_H_
#define SRC_CORE_MONITOR_H_

#include <deque>

namespace apiary {

struct Message {};

class Monitor {
  std::deque<Message> inbox_;
};

}  // namespace apiary

#endif  // SRC_CORE_MONITOR_H_
