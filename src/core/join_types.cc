#include "core/join_types.h"

namespace tj {

const char* DirectionName(Direction dir) {
  return dir == Direction::kRtoS ? "R->S" : "S->R";
}

const char* TrackJoinName(TrackJoinVersion version, Direction direction) {
  if (version == TrackJoinVersion::k2Phase) {
    return direction == Direction::kRtoS ? "2tj-r" : "2tj-s";
  }
  return version == TrackJoinVersion::k3Phase ? "3tj" : "4tj";
}

const char* JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kBroadcastR:
      return "BJ-R";
    case JoinAlgorithm::kBroadcastS:
      return "BJ-S";
    case JoinAlgorithm::kHash:
      return "HJ";
    case JoinAlgorithm::kTrack2R:
      return "2TJ-R";
    case JoinAlgorithm::kTrack2S:
      return "2TJ-S";
    case JoinAlgorithm::kTrack3:
      return "3TJ";
    case JoinAlgorithm::kTrack4:
      return "4TJ";
  }
  return "?";
}

Status AppendMessageRows(const std::vector<Message>& messages,
                         uint32_t key_bytes, TupleBlock* block) {
  uint64_t bytes = 0;
  for (const Message& msg : messages) bytes += msg.data.size();
  block->Reserve(block->size() + bytes / block->RowBytes(key_bytes));
  for (const Message& msg : messages) {
    ByteReader reader(msg.data);
    TJ_RETURN_IF_ERROR(block->TryDeserializeRows(&reader, key_bytes));
  }
  return Status::OK();
}

}  // namespace tj
