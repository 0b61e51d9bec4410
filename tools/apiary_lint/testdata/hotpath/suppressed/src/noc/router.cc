// Suppressed: a one-off literal bump carrying the in-line marker.
namespace apiary {

void Router::Debug() {
  counters_.Add("router.debug_dumps");  // NOLINT(apiary-hot-path): debug-only entry point, never on the flit path
}

}  // namespace apiary
