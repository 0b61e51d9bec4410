// Suppressed: a cold-path deque carrying the in-line marker.
#ifndef SRC_CORE_MONITOR_H_
#define SRC_CORE_MONITOR_H_

#include <deque>

namespace apiary {

struct Message {};

class Monitor {
  // NOLINTNEXTLINE(apiary-hot-path): crash-dump history, appended once per fail-stop
  std::deque<Message> fault_history_;
};

}  // namespace apiary

#endif  // SRC_CORE_MONITOR_H_
