// Counting replacement of the global operator new/delete.
//
// Every heap allocation the process makes through operator new lands in the
// tally the sink currently points at. The harness points the sink at the
// workload tally while the simulator runs and at the bookkeeping tally while
// it reads stats accessors, so its own maps and strings never count as
// simulator allocations. The process runs the simulator on one thread, so
// the tallies are plain integers.
#ifndef PERFBENCH_SRC_ALLOC_COUNT_H_
#define PERFBENCH_SRC_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocTally {
  uint64_t calls = 0;
  uint64_t bytes = 0;

  AllocTally operator-(const AllocTally& base) const {
    return AllocTally{calls - base.calls, bytes - base.bytes};
  }
};

// Allocations made by the simulator and the workload's clients.
AllocTally& WorkloadAllocs();

// Routes allocations to the bookkeeping tally for the guard's lifetime.
class BookkeepingScope {
 public:
  BookkeepingScope();
  ~BookkeepingScope();
  BookkeepingScope(const BookkeepingScope&) = delete;
  BookkeepingScope& operator=(const BookkeepingScope&) = delete;

 private:
  AllocTally* saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ALLOC_COUNT_H_
