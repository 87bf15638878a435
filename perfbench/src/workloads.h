// The benchmark's workloads: inputs generated from a seed, the join
// configuration each one runs, and the single-node reference its outputs
// are checked against.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/join_types.h"
#include "workload/generator.h"

namespace perfbench {

/// One workload: input shape, driver and execution settings.
struct WorkloadDef {
  std::string name;
  /// Zipf keys on both sides (else the uniform synthetic generator with
  /// random placement).
  bool zipf = false;
  /// Pipelined 4TJ (TryRunPipelinedTrackJoin) instead of barrier 4TJ.
  bool pipelined = false;
  /// Worker threads of the per-node phase pool; 0 runs phases sequentially.
  uint32_t threads = 0;
  /// Uniform: matched keys. Zipf: key domain and rows per side.
  uint64_t keys = 0;
  /// Inputs an end-to-end run measures, each from its own seed.
  uint32_t inputs = 1;
};

/// Names one generated input: its seed and size multiplier.
struct InputKey {
  uint64_t seed = 0;
  double scale = 1.0;

  bool operator<(const InputKey& other) const {
    return seed != other.seed ? seed < other.seed : scale < other.scale;
  }
};

/// Seed of a run's `index`-th input; distinct for every (seed, index).
inline uint64_t InputSeed(uint64_t seed, uint32_t index) {
  return seed * 64 + index;
}

/// The named workload, or nullptr.
const WorkloadDef* FindWorkload(const std::string& name);

/// Comma-separated names of every workload (for usage messages).
std::string WorkloadNames();

/// Generates the workload's inputs from `seed`, with every size multiplied
/// by `scale` (1 = the benchmark's size; tests use a small fraction).
tj::Workload Generate(const WorkloadDef& def, uint64_t seed, double scale);

/// The join configuration of a workload. `pool` may be null; it must
/// outlive every join run with the returned config.
tj::JoinConfig MakeConfig(const WorkloadDef& def, tj::ThreadPool* pool);

/// One 4TJ call through the public API: pipelined or barrier.
tj::Result<tj::JoinResult> RunJoin(bool pipelined, const tj::Workload& input,
                                   const tj::JoinConfig& config);

/// The join output of a single-node hash join over all rows of both
/// tables: row count and order-independent digest.
struct Reference {
  uint64_t rows = 0;
  uint64_t digest = 0;
};
Reference ComputeReference(const tj::Workload& input);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
