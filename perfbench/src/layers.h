// Per-layer replay: each layer's public functions called on one workload's
// own data, with a span around every call (see spans.h).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct LayerReplay {
  /// exec.*, core.* (but core.pipelined_over_barrier), storage.* and
  /// net.exchange_s, in replay order.
  std::vector<Metric> metrics;
  /// Replay outputs that disagree with the reference or the join driver.
  std::vector<std::string> errors;
};

/// Replays the exec, core, storage and net layers on `input` under
/// `config` (the workload's own settings). Spans are recorded into
/// `recorder`, which must be enabled; metrics are derived from them.
LayerReplay ReplayLayers(const tj::Workload& input,
                         const tj::JoinConfig& config,
                         const Reference& reference, SpanRecorder* recorder);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
