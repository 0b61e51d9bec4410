// Bad: string-literal counter bumps in an interned-counter file.
namespace apiary {

void Router::RouteCycle(Cycle now) {
  counters_.Add("router.stalls");
  counters_.Set( "router.fault_stalled_cycles", now);
}

}  // namespace apiary
