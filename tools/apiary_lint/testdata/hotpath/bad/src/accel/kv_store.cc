// Bad: the KV store's boot backlog on std::deque.
#include <deque>

namespace apiary {

struct Message {};

class KvBacklog {
  std::deque<Message> boot_backlog_;
};

}  // namespace apiary
