// Seeded R14 violations: metric names built from a per-node id intern one
// metric family per node. Each flagged line carries an expectation marker
// the fixture runner matches against the lint output.
#include <string>

#include "milback/obs/registry.hpp"

namespace milback::fix {

void register_node(const std::string& prefix, const std::string& id) {
  auto& r = obs::Registry::global();
  (void)r.counter("tag." + id + ".sweeps_skipped");  // lint-expect: R14
  (void)r.histogram(prefix + id + ".latency_s");  // lint-expect: R14
  (void)r.gauge(id);  // lint-expect: R14
  (void)r.trace_name(  // lint-expect: R14
      "node." + id);
}

}  // namespace milback::fix
