#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/pipelined_track_join.h"
#include "core/track_join.h"
#include "exec/local_join.h"

namespace perfbench {
namespace {

constexpr uint32_t kNodes = 4;
constexpr uint32_t kPayload = 16;

// Why each workload exists is recorded in perfbench/README.md.
const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"uniform-4tj", /*zipf=*/false, /*pipelined=*/false, /*threads=*/2,
       /*keys=*/1000000, /*inputs=*/3},
      {"zipf-4tj", /*zipf=*/true, /*pipelined=*/false, /*threads=*/0,
       /*keys=*/200000, /*inputs=*/6},
      {"pipelined-4tj", /*zipf=*/false, /*pipelined=*/true, /*threads=*/0,
       /*keys=*/200000, /*inputs=*/10},
  };
  return defs;
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadDef& def : Workloads()) {
    if (!out.empty()) out += ",";
    out += def.name;
  }
  return out;
}

tj::Workload Generate(const WorkloadDef& def, uint64_t seed, double scale) {
  const uint64_t keys = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(static_cast<double>(def.keys) *
                                            scale)));
  if (def.zipf) {
    tj::ZipfWorkloadSpec spec;
    spec.num_nodes = kNodes;
    spec.seed = seed;
    spec.key_domain = keys;
    spec.r_rows = keys;
    spec.s_rows = keys;
    spec.r_theta = 0.8;
    spec.s_theta = 0.8;
    spec.r_payload = kPayload;
    spec.s_payload = kPayload;
    return tj::GenerateZipfWorkload(spec);
  }
  tj::WorkloadSpec spec;
  spec.num_nodes = kNodes;
  spec.seed = seed;
  spec.matched_keys = keys;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.collocation = tj::Collocation::kRandom;
  spec.r_payload = kPayload;
  spec.s_payload = kPayload;
  return tj::GenerateWorkload(spec);
}

tj::JoinConfig MakeConfig(const WorkloadDef& def, tj::ThreadPool* pool) {
  tj::JoinConfig config;
  config.key_bytes = 4;
  config.thread_pool = pool;
  if (def.zipf) {
    config.balance_loads = true;
    config.hot_key_threshold = 200000;
  }
  return config;
}

tj::Result<tj::JoinResult> RunJoin(bool pipelined, const tj::Workload& input,
                                   const tj::JoinConfig& config) {
  if (pipelined) {
    return tj::TryRunPipelinedTrackJoin(input.r, input.s, config,
                                        tj::TrackJoinVersion::k4Phase);
  }
  return tj::TryRunTrackJoin(input.r, input.s, config,
                             tj::TrackJoinVersion::k4Phase);
}

namespace {

tj::TupleBlock Gather(const tj::PartitionedTable& table) {
  tj::TupleBlock all(table.payload_width());
  all.Reserve(table.TotalRows());
  for (uint32_t node = 0; node < table.num_nodes(); ++node) {
    const tj::TupleBlock& block = table.node(node);
    for (uint64_t row = 0; row < block.size(); ++row) {
      all.Append(block.Key(row), block.Payload(row));
    }
  }
  return all;
}

}  // namespace

Reference ComputeReference(const tj::Workload& input) {
  // A hash join on one node: a different algorithm and no routing, so it
  // shares nothing with the distributed sort-merge path but the checksum.
  const tj::TupleBlock r = Gather(input.r);
  const tj::TupleBlock s = Gather(input.s);
  tj::JoinChecksum checksum;
  const uint64_t rows = tj::HashTableJoin(
      r, s,
      tj::ChecksumSink(&checksum, input.r.payload_width(),
                       input.s.payload_width()));
  return Reference{rows, checksum.digest()};
}

}  // namespace perfbench
