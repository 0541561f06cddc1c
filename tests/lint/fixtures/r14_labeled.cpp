// Clean control for R14: literal names, and a bounded label prefix (one per
// cell or mesh, not one per node) joined to a literal, stay unflagged.
#include <string>

#include "milback/obs/registry.hpp"

namespace milback::fix {

void register_cell(const std::string& prefix) {
  auto& r = obs::Registry::global();
  (void)r.counter("cell.sweeps");
  (void)r.counter(prefix + "events.join");
  (void)r.histogram(prefix + "latency_s", obs::HistogramSpec{1e-6, 1.3, 80});
  (void)r.gauge(prefix + "queue_depth", obs::MetricClass::kSim);
  (void)obs::Registry::global().counter("dsp.window.hits");
  (void)r.trace_name(
      "cell.blockage");
}

}  // namespace milback::fix
