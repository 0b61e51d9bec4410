// Named-counter registry: each simulated component exposes its event counts
// through a CounterSet so experiments can dump machine-readable metrics.
// Names are interned to dense slots: hot paths bump ids resolved at
// construction (an array add), and string-keyed calls never allocate after
// a name's first sighting. A name shows in Get/ToString/Merge only once
// bumped or set (Add(name, 0) counts); interning alone adds nothing.
#ifndef SRC_STATS_SUMMARY_H_
#define SRC_STATS_SUMMARY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace apiary {

enum class CounterId : uint32_t {};

class CounterSet {
 public:
  // The slot for `name`, created absent on first sight; valid across Reset.
  CounterId Intern(std::string_view name);

  void Add(CounterId id, uint64_t delta = 1) {
    Slot& slot = slots_[static_cast<uint32_t>(id)];
    slot.value += delta;
    slot.present = true;
  }
  void Add(std::string_view name, uint64_t delta = 1) { Add(Intern(name), delta); }
  void Set(std::string_view name, uint64_t value) {
    slots_[static_cast<uint32_t>(Intern(name))] = Slot{value, true};
  }
  uint64_t Get(std::string_view name) const;
  // Zeroes every slot and makes every name absent; ids stay valid.
  void Reset() { slots_.assign(slots_.size(), Slot{}); }

  // Merge `other` into this set (summing matching names).
  void Merge(const CounterSet& other);

  // "name=value name=value ..." in sorted order, present names only.
  std::string ToString() const;

 private:
  struct Slot {
    uint64_t value = 0;
    bool present = false;
  };
  std::map<std::string, CounterId, std::less<>> index_;
  std::vector<Slot> slots_;
};

// Basic running statistics over doubles (for rates, utilizations).
class RunningStat {
 public:
  void Record(double x);
  uint64_t count() const { return n_; }
  double Mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double Min() const { return n_ == 0 ? 0.0 : min_; }
  double Max() const { return n_ == 0 ? 0.0 : max_; }
  double StdDev() const;

 private:
  uint64_t n_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace apiary

#endif  // SRC_STATS_SUMMARY_H_
