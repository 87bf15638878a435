#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/key_aggregate.h"
#include "exec/local_join.h"
#include "exec/partition.h"
#include "exec/radix_sort.h"
#include "net/fabric.h"

namespace perfbench {
namespace {

using tj::KeyCount;
using tj::Message;
using tj::MessageType;
using tj::TrackEntry;
using tj::TupleBlock;

/// rows / seconds, or 0 when nothing was timed.
double Rate(double rows, double seconds) {
  return seconds > 0 ? rows / seconds : 0;
}

/// Tracking messages of one table: [src][dst] encoded buffers.
using TrackingMessages = std::vector<std::vector<tj::ByteBuffer>>;

/// One tracker-side tracking stream (one source, one table) as the
/// pipelined driver receives it: entry-aligned chunks with watermarks.
struct Stream {
  uint32_t src = 0;
  bool is_r = true;
  std::vector<tj::WireChunk> chunks;
  size_t next_chunk = 0;
  std::vector<TrackEntry> pending;
  size_t head = 0;
  uint64_t watermark = 0;
  bool started = false;
  bool eos = false;

  uint64_t Bound() const {
    if (eos) return ~0ULL;
    return started ? watermark : 0;
  }
};

/// Cuts tracker `tracker`'s incoming tracking streams into the frontier
/// batches the pipelined driver merges: chunks arrive one per stream per
/// round, and after each arrival every entry below the minimum stream
/// watermark forms the next batch (pipelined_track_join.cc,
/// advance_frontier).
void FrontierBatches(const TrackingMessages& r_msgs,
                     const TrackingMessages& s_msgs, uint32_t tracker,
                     const tj::JoinConfig& config,
                     std::vector<std::vector<TrackEntry>>* batches_r,
                     std::vector<std::vector<TrackEntry>>* batches_s) {
  const uint32_t n = static_cast<uint32_t>(r_msgs.size());
  const uint32_t entry_bytes = config.key_bytes + config.count_bytes;
  std::vector<Stream> streams;
  for (int table = 0; table < 2; ++table) {
    const TrackingMessages& msgs = table == 0 ? r_msgs : s_msgs;
    for (uint32_t src = 0; src < n; ++src) {
      Stream stream;
      stream.src = src;
      stream.is_r = table == 0;
      const tj::ByteBuffer& buf = msgs[src][tracker];
      if (!buf.empty()) {
        stream.chunks = tj::SliceEntryMessage(
            buf, entry_bytes, config.key_bytes, config.pipeline.chunk_bytes);
      }
      streams.push_back(std::move(stream));
    }
  }

  uint64_t frontier = 0;
  bool final_posted = false;
  auto advance = [&] {
    uint64_t bound = ~0ULL;
    for (const Stream& stream : streams) {
      bound = std::min(bound, stream.Bound());
    }
    const bool final_batch = bound == ~0ULL;
    if (final_batch ? final_posted : bound <= frontier) return;
    std::vector<TrackEntry> batch_r, batch_s;
    for (Stream& stream : streams) {
      auto& batch = stream.is_r ? batch_r : batch_s;
      while (stream.head < stream.pending.size() &&
             (final_batch || stream.pending[stream.head].key < bound)) {
        batch.push_back(stream.pending[stream.head++]);
      }
    }
    frontier = bound;
    if (final_batch) final_posted = true;
    if (batch_r.empty() && batch_s.empty()) return;
    batches_r->push_back(std::move(batch_r));
    batches_s->push_back(std::move(batch_s));
  };

  for (bool delivered = true; delivered;) {
    delivered = false;
    for (Stream& stream : streams) {
      if (stream.eos) continue;
      delivered = true;
      if (stream.next_chunk < stream.chunks.size()) {
        const tj::WireChunk& chunk = stream.chunks[stream.next_chunk++];
        tj::ByteReader reader(chunk.data);
        while (!reader.Done()) {
          TrackEntry entry;
          entry.key = reader.GetUint(config.key_bytes);
          entry.node = stream.src;
          entry.count = reader.GetUint(config.count_bytes);
          stream.pending.push_back(entry);
        }
        stream.started = true;
        stream.watermark = chunk.watermark;
      }
      if (stream.next_chunk == stream.chunks.size()) stream.eos = true;
      advance();
    }
  }
}

}  // namespace

LayerReplay ReplayLayers(const tj::Workload& input,
                         const tj::JoinConfig& config,
                         const Reference& reference, SpanRecorder* recorder) {
  LayerReplay out;
  const uint32_t n = input.r.num_nodes();
  const uint32_t kb = config.key_bytes;
  tj::ThreadPool* pool = config.thread_pool;
  const tj::PartitionedTable* tables[2] = {&input.r, &input.s};

  // --- exec: sort, aggregate and partition each node's R and S block, then
  // merge-join the hash-routed, sorted per-node inputs.
  std::vector<std::vector<KeyCount>> keys[2];  // [table][node]
  {
    ScopedSpan layer(recorder, "replay.exec");
    std::vector<tj::PartitionLayout> layouts[2];
    double rows = 0;
    for (int t = 0; t < 2; ++t) {
      for (uint32_t node = 0; node < n; ++node) {
        const TupleBlock& block = tables[t]->node(node);
        TupleBlock sorted = block;
        {
          ScopedSpan span(recorder, "exec.sort");
          tj::SortBlockByKey(&sorted, pool);
        }
        {
          ScopedSpan span(recorder, "exec.aggregate");
          keys[t].push_back(tj::AggregateSortedKeys(sorted));
        }
        tj::Result<tj::PartitionLayout> layout = [&] {
          ScopedSpan span(recorder, "exec.partition");
          return tj::TryRadixPartition(block, n, pool);
        }();
        if (!layout.ok()) {
          out.errors.push_back("partition: " + layout.status().ToString());
          return out;
        }
        layouts[t].push_back(std::move(layout).value());
        rows += static_cast<double>(block.size());
      }
    }
    out.metrics.push_back(
        {"exec.sort_tps", Rate(rows, recorder->TotalSeconds("exec.sort")),
         "1/s"});
    out.metrics.push_back(
        {"exec.aggregate_tps",
         Rate(rows, recorder->TotalSeconds("exec.aggregate")), "1/s"});
    out.metrics.push_back(
        {"exec.partition_tps",
         Rate(rows, recorder->TotalSeconds("exec.partition")), "1/s"});

    tj::JoinChecksum checksum;
    uint64_t joined = 0;
    for (uint32_t dst = 0; dst < n; ++dst) {
      TupleBlock routed[2] = {TupleBlock(input.r.payload_width()),
                              TupleBlock(input.s.payload_width())};
      for (int t = 0; t < 2; ++t) {
        for (const tj::PartitionLayout& layout : layouts[t]) {
          for (uint64_t row = layout.Begin(dst); row < layout.End(dst); ++row) {
            routed[t].AppendFrom(layout.tuples, row);
          }
        }
        tj::SortBlockByKey(&routed[t], pool);
      }
      ScopedSpan span(recorder, "exec.merge_join");
      joined += tj::MergeJoinSorted(
          routed[0], routed[1],
          tj::ChecksumSink(&checksum, input.r.payload_width(),
                           input.s.payload_width()));
    }
    if (joined != reference.rows || checksum.digest() != reference.digest) {
      out.errors.push_back("replayed merge join disagrees with the reference");
    }
    out.metrics.push_back({"exec.merge_join_rows_per_s",
                           Rate(static_cast<double>(joined),
                                recorder->TotalSeconds("exec.merge_join")),
                           "1/s"});
  }

  // --- core: tracking encode + k-way merge, the pipelined driver's frontier
  // batch merge over the same entries, and per-key scheduling.
  {
    ScopedSpan layer(recorder, "replay.core");
    TrackingMessages msgs[2];
    std::vector<std::vector<Message>> inbox[2];
    std::vector<std::vector<TrackEntry>> merged[2];  // [table][tracker]
    for (int t = 0; t < 2; ++t) {
      inbox[t].resize(n);
      for (uint32_t src = 0; src < n; ++src) {
        ScopedSpan span(recorder, "core.track_encode");
        msgs[t].push_back(tj::EncodeTrackingMessages(keys[t][src], config,
                                                     /*with_counts=*/true, n));
      }
      for (uint32_t src = 0; src < n; ++src) {
        for (uint32_t dst = 0; dst < n; ++dst) {
          if (msgs[t][src][dst].empty()) continue;
          inbox[t][dst].push_back(Message{
              src, t == 0 ? MessageType::kTrackR : MessageType::kTrackS,
              msgs[t][src][dst]});
        }
      }
      merged[t].resize(n);
      for (uint32_t tracker = 0; tracker < n; ++tracker) {
        ScopedSpan span(recorder, "core.track_merge");
        tj::Status status = tj::TryMergeTrackingMessages(
            inbox[t][tracker], config, /*with_counts=*/true,
            &merged[t][tracker]);
        if (!status.ok()) {
          out.errors.push_back("tracking merge: " + status.ToString());
          return out;
        }
      }
    }
    out.metrics.push_back({"core.track_merge_s",
                           recorder->TotalSeconds("core.track_encode") +
                               recorder->TotalSeconds("core.track_merge"),
                           "host_s"});

    for (uint32_t tracker = 0; tracker < n; ++tracker) {
      std::vector<std::vector<TrackEntry>> batches[2];
      FrontierBatches(msgs[0], msgs[1], tracker, config, &batches[0],
                      &batches[1]);
      {
        ScopedSpan span(recorder, "core.frontier_merge");
        for (size_t b = 0; b < batches[0].size(); ++b) {
          tj::MergeTrackEntries(&batches[0][b]);
          tj::MergeTrackEntries(&batches[1][b]);
        }
      }
      for (int t = 0; t < 2; ++t) {
        std::vector<TrackEntry> joined;
        for (const auto& batch : batches[t]) {
          joined.insert(joined.end(), batch.begin(), batch.end());
        }
        if (joined != merged[t][tracker]) {
          out.errors.push_back("frontier batch merge disagrees with the "
                               "k-way tracking merge");
        }
      }
    }
    out.metrics.push_back({"core.frontier_merge_s",
                           recorder->TotalSeconds("core.frontier_merge"),
                           "host_s"});

    const uint32_t width_r = kb + input.r.payload_width();
    const uint32_t width_s = kb + input.s.payload_width();
    double planned = 0;
    uint64_t cost = 0;
    for (uint32_t tracker = 0; tracker < n; ++tracker) {
      ScopedSpan span(recorder, "core.schedule");
      tj::PlacementIterator it(merged[0][tracker], merged[1][tracker], width_r,
                               width_s, tracker, config.MsgBytes());
      while (it.Next()) {
        ++planned;
        cost += tj::PlanOptimal(it.placement()).plan.cost;
        if (config.hot_key_threshold > 0 &&
            it.OutputProductAtLeast(config.hot_key_threshold)) {
          cost += tj::PlanHotSplit(it.placement(), width_r, width_s,
                                   config.hot_key_max_split)
                      .cost;
        }
      }
    }
    if (planned > 0 && cost == 0) {
      out.errors.push_back("scheduler planned every key for free");
    }
    out.metrics.push_back(
        {"core.schedule_keys_per_s",
         Rate(planned, recorder->TotalSeconds("core.schedule")), "1/s"});
  }

  // --- storage: append node 0's R rows into one block in pipeline-chunk
  // sized pieces, as the pipelined joiner receives them.
  {
    ScopedSpan layer(recorder, "replay.storage");
    const TupleBlock& block = input.r.node(0);
    const uint64_t rows_per_chunk = std::max<uint64_t>(
        1, config.pipeline.chunk_bytes / block.RowBytes(kb));
    std::vector<tj::ByteBuffer> chunks;
    for (uint64_t begin = 0; begin < block.size(); begin += rows_per_chunk) {
      chunks.emplace_back();
      block.SerializeRows(begin, std::min(block.size(), begin + rows_per_chunk),
                          kb, &chunks.back());
    }
    TupleBlock appended(block.payload_width());
    {
      ScopedSpan span(recorder, "storage.append");
      for (const tj::ByteBuffer& chunk : chunks) {
        tj::ByteReader reader(chunk);
        tj::Status status = appended.TryDeserializeRows(&reader, kb);
        if (!status.ok()) {
          out.errors.push_back("append: " + status.ToString());
          return out;
        }
      }
    }
    if (appended.keys() != block.keys()) {
      out.errors.push_back("appended block differs from its source");
    }
    out.metrics.push_back({"storage.append_rows_per_s",
                           Rate(static_cast<double>(block.size()),
                                recorder->TotalSeconds("storage.append")),
                           "1/s"});
  }

  // --- net: one all-to-all of every tuple, hash-routed, through the
  // barrier fabric (serialize + Send, barrier, TakeInbox).
  {
    ScopedSpan layer(recorder, "replay.net");
    std::vector<std::vector<std::vector<uint32_t>>> indexes[2];
    uint64_t expected_bytes = 0;
    for (int t = 0; t < 2; ++t) {
      for (uint32_t node = 0; node < n; ++node) {
        const TupleBlock& block = tables[t]->node(node);
        auto routed = tj::TryHashPartitionIndexes(block, n, pool);
        if (!routed.ok()) {
          out.errors.push_back("route: " + routed.status().ToString());
          return out;
        }
        indexes[t].push_back(std::move(routed).value());
        expected_bytes += block.size() * block.RowBytes(kb);
      }
    }
    uint64_t received = 0;
    tj::Fabric fabric(n);
    fabric.SetThreadPool(pool);
    {
      ScopedSpan span(recorder, "net.exchange");
      fabric.RunPhase("exchange", [&](uint32_t node) {
        for (int t = 0; t < 2; ++t) {
          for (uint32_t dst = 0; dst < n; ++dst) {
            tj::ByteBuffer buf;
            tables[t]->node(node).SerializeRowsIndexed(indexes[t][node][dst],
                                                       kb, &buf);
            fabric.Send(node, dst,
                        t == 0 ? MessageType::kDataR : MessageType::kDataS,
                        std::move(buf));
          }
        }
      });
      for (uint32_t node = 0; node < n; ++node) {
        for (const Message& msg : fabric.TakeInbox(node)) {
          received += msg.data.size();
        }
      }
    }
    if (received != expected_bytes ||
        fabric.traffic().TotalNetworkBytes() +
                fabric.traffic().TotalLocalBytes() !=
            expected_bytes) {
      out.errors.push_back("exchange lost or duplicated bytes");
    }
    out.metrics.push_back(
        {"net.exchange_s", recorder->TotalSeconds("net.exchange"), "host_s"});
  }
  return out;
}

}  // namespace perfbench
