#include "src/stats/summary.h"

#include <cmath>
#include <sstream>

namespace apiary {

CounterId CounterSet::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    it = index_.emplace(std::string(name), static_cast<CounterId>(slots_.size())).first;
    slots_.emplace_back();
  }
  return it->second;
}

uint64_t CounterSet::Get(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0 : slots_[static_cast<uint32_t>(it->second)].value;
}

void CounterSet::Merge(const CounterSet& other) {
  for (const auto& [name, id] : other.index_) {
    const Slot& slot = other.slots_[static_cast<uint32_t>(id)];
    if (slot.present) {
      Add(name, slot.value);
    }
  }
}

std::string CounterSet::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, id] : index_) {
    if (const Slot& slot = slots_[static_cast<uint32_t>(id)]; slot.present) {
      out << (first ? "" : " ") << name << '=' << slot.value;
      first = false;
    }
  }
  return out.str();
}

void RunningStat::Record(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) {
      min_ = x;
    }
    if (x > max_) {
      max_ = x;
    }
  }
  ++n_;
  sum_ += x;
  sum_sq_ += x * x;
}

double RunningStat::StdDev() const {
  if (n_ == 0) {
    return 0.0;
  }
  const double mean = Mean();
  const double var = sum_sq_ / static_cast<double>(n_) - mean * mean;
  return var <= 0 ? 0.0 : std::sqrt(var);
}

}  // namespace apiary
