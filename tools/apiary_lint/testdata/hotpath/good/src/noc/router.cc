// Good: the router bumps counter ids interned at construction.
namespace apiary {

void Router::RouteCycle(Cycle now) {
  counters_.Add(stalls_id_);
  counters_.Add(fault_stalled_id_, now);
}

}  // namespace apiary
