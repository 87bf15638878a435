#include "storage/tuple_block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace tj {
namespace {

TupleBlock MakeBlock(std::vector<uint64_t> keys, uint32_t width) {
  TupleBlock block(width);
  std::vector<uint8_t> payload(width);
  for (uint64_t k : keys) {
    for (uint32_t i = 0; i < width; ++i) {
      payload[i] = static_cast<uint8_t>(k + i);
    }
    block.Append(k, payload.data());
  }
  return block;
}

TEST(TupleBlockTest, AppendAndAccess) {
  TupleBlock block = MakeBlock({10, 20, 30}, 4);
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(block.Key(1), 20u);
  EXPECT_EQ(block.Payload(1)[0], 20);
  EXPECT_EQ(block.Payload(1)[3], 23);
  EXPECT_FALSE(block.empty());
}

TEST(TupleBlockTest, ZeroWidthPayload) {
  TupleBlock block(0);
  block.Append(7, nullptr);
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(block.Payload(0), nullptr);
  EXPECT_EQ(block.MemoryBytes(), 8u);
}

TEST(TupleBlockTest, SerializeDeserializeRoundTrip) {
  TupleBlock block = MakeBlock({1, 2, 300}, 6);
  ByteBuffer buf;
  block.SerializeRows(0, block.size(), /*key_bytes=*/4, &buf);
  EXPECT_EQ(buf.size(), 3u * (4 + 6));

  TupleBlock out(6);
  ByteReader reader(buf);
  out.DeserializeRows(&reader, 4);
  ASSERT_EQ(out.size(), 3u);
  for (uint64_t row = 0; row < 3; ++row) {
    EXPECT_EQ(out.Key(row), block.Key(row));
    EXPECT_EQ(0, std::memcmp(out.Payload(row), block.Payload(row), 6));
  }
}

TEST(TupleBlockTest, SerializeIndexedSubset) {
  TupleBlock block = MakeBlock({5, 6, 7, 8}, 2);
  ByteBuffer buf;
  block.SerializeRowsIndexed({3, 1}, 8, &buf);
  TupleBlock out(2);
  ByteReader reader(buf);
  out.DeserializeRows(&reader, 8);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.Key(0), 8u);
  EXPECT_EQ(out.Key(1), 6u);
}

TEST(TupleBlockTest, AppendFromCopiesPayload) {
  TupleBlock src = MakeBlock({42}, 3);
  TupleBlock dst(3);
  dst.AppendFrom(src, 0);
  EXPECT_EQ(dst.Key(0), 42u);
  EXPECT_EQ(0, std::memcmp(dst.Payload(0), src.Payload(0), 3));
}

TEST(TupleBlockTest, PermuteMovesPayloadsWithKeys) {
  TupleBlock block = MakeBlock({10, 20, 30}, 2);
  block.Permute({2, 0, 1});  // output[i] = input[perm[i]]
  EXPECT_EQ(block.Key(0), 30u);
  EXPECT_EQ(block.Key(1), 10u);
  EXPECT_EQ(block.Key(2), 20u);
  EXPECT_EQ(block.Payload(0)[0], 30);
  EXPECT_EQ(block.Payload(1)[0], 10);
}

TEST(TupleBlockTest, FilterKeepsMatchingRows) {
  TupleBlock block = MakeBlock({1, 2, 3, 4, 5}, 2);
  uint64_t removed =
      block.Filter([&](uint64_t row) { return block.Key(row) % 2 == 1; });
  EXPECT_EQ(removed, 2u);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block.Key(0), 1u);
  EXPECT_EQ(block.Key(1), 3u);
  EXPECT_EQ(block.Key(2), 5u);
  EXPECT_EQ(block.Payload(2)[1], 6);  // Payload moved with the key.
}

TEST(TupleBlockTest, EqualRangeOnSortedKeys) {
  TupleBlock block = MakeBlock({1, 3, 3, 3, 7}, 0);
  auto [lo, hi] = block.EqualRange(3);
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 4u);
  auto [lo2, hi2] = block.EqualRange(5);
  EXPECT_EQ(lo2, hi2);
  auto [lo3, hi3] = block.EqualRange(0);
  EXPECT_EQ(lo3, 0u);
  EXPECT_EQ(hi3, 0u);
}

TEST(TupleBlockTest, ClearKeepsWidth) {
  TupleBlock block = MakeBlock({1, 2}, 4);
  block.Clear();
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.payload_width(), 4u);
}

TEST(TupleBlockTest, RowBytes) {
  TupleBlock block(12);
  EXPECT_EQ(block.RowBytes(4), 16u);
}

TEST(TupleBlockTest, ChunkedAppendsGrowGeometrically) {
  // Appending a stream one row per chunk must not copy the whole block on
  // every chunk: capacity may change only O(log n) times, and the rows come
  // out identical to one bulk append of the same bytes.
  constexpr uint64_t kRows = 10000;
  constexpr uint32_t kKeyBytes = 4;
  TupleBlock source(3);
  for (uint64_t row = 0; row < kRows; ++row) {
    const uint8_t payload[3] = {static_cast<uint8_t>(row),
                                static_cast<uint8_t>(row >> 8),
                                static_cast<uint8_t>(row * 7)};
    source.Append(row * 31 % 65536, payload);
  }
  TupleBlock chunked(3);
  uint64_t capacity_changes = 0;
  uint64_t last_capacity = chunked.keys().capacity();
  for (uint64_t row = 0; row < kRows; ++row) {
    ByteBuffer chunk;
    source.SerializeRows(row, row + 1, kKeyBytes, &chunk);
    ByteReader reader(chunk);
    ASSERT_TRUE(chunked.TryDeserializeRows(&reader, kKeyBytes).ok());
    if (chunked.keys().capacity() != last_capacity) {
      ++capacity_changes;
      last_capacity = chunked.keys().capacity();
    }
  }
  EXPECT_LE(capacity_changes,
            static_cast<uint64_t>(2 * std::ceil(std::log2(kRows))));

  ByteBuffer all;
  source.SerializeRows(0, kRows, kKeyBytes, &all);
  TupleBlock bulk(3);
  ByteReader reader(all);
  ASSERT_TRUE(bulk.TryDeserializeRows(&reader, kKeyBytes).ok());
  ASSERT_EQ(chunked.size(), kRows);
  EXPECT_EQ(chunked.keys(), bulk.keys());
  EXPECT_EQ(0, std::memcmp(chunked.Payload(0), bulk.Payload(0), kRows * 3));
  // A single bulk append into an empty block reserves exactly.
  EXPECT_EQ(bulk.keys().capacity(), kRows);
}

TEST(TupleBlockTest, CorruptAppendLeavesBlockUntouched) {
  TupleBlock block = MakeBlock({1, 2, 3}, 2);
  const uint64_t capacity = block.keys().capacity();
  ByteBuffer bad;
  ByteWriter writer(&bad);
  for (int i = 0; i < 7; ++i) writer.PutUint(i, 1);  // Row width is 6.
  ByteReader reader(bad);
  Status status = block.TryDeserializeRows(&reader, 4);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(block.keys().capacity(), capacity);
  EXPECT_EQ(block.Key(2), 3u);
}

// Checks every key of `probes`, through one GallopingProbe, against
// EqualRange, in the given order.
void ExpectProbeMatchesEqualRange(const TupleBlock& block,
                                  const std::vector<uint64_t>& probes) {
  GallopingProbe probe(block);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probe.EqualRange(probes[i]), block.EqualRange(probes[i]))
        << "probe " << i << " key " << probes[i];
  }
}

TEST(TupleBlockTest, GallopingProbeMatchesEqualRange) {
  Rng rng(12);
  for (uint64_t rows : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    for (uint64_t universe : {3u, 50u, 5000u}) {
      std::vector<uint64_t> keys;
      for (uint64_t i = 0; i < rows; ++i) {
        keys.push_back(1 + rng.Below(universe));  // Key 0 is always absent.
      }
      std::sort(keys.begin(), keys.end());
      const TupleBlock block = MakeBlock(keys, 1);

      // Ascending with repeats, absent keys and keys past the end.
      std::vector<uint64_t> ascending;
      for (uint64_t i = 0; i < 200; ++i) {
        ascending.push_back(rng.Below(universe + 10));
      }
      std::sort(ascending.begin(), ascending.end());
      ExpectProbeMatchesEqualRange(block, ascending);

      // Descending: every probe restarts the search.
      std::vector<uint64_t> descending(ascending.rbegin(), ascending.rend());
      ExpectProbeMatchesEqualRange(block, descending);

      // Arbitrary order: ascending runs broken by random drops.
      std::vector<uint64_t> mixed;
      for (uint64_t i = 0; i < 200; ++i) {
        mixed.push_back(rng.Below(universe + 10));
      }
      ExpectProbeMatchesEqualRange(block, mixed);

      // Every present key in order, each probed twice in a row.
      std::vector<uint64_t> present;
      for (uint64_t k : keys) {
        if (present.empty() || present.back() != k) {
          present.push_back(k);
          present.push_back(k);
        }
      }
      ExpectProbeMatchesEqualRange(block, present);
    }
  }
}

TEST(TupleBlockTest, GallopingProbeRestartsOnDescendingKey) {
  const TupleBlock block = MakeBlock({2, 4, 4, 4, 9, 9, 15, 20}, 1);
  GallopingProbe probe(block);
  EXPECT_EQ(probe.EqualRange(15), std::make_pair(uint64_t{6}, uint64_t{7}));
  EXPECT_EQ(probe.EqualRange(25), std::make_pair(uint64_t{8}, uint64_t{8}));
  // Lower than the previous key: must still find all three rows of 4.
  EXPECT_EQ(probe.EqualRange(4), std::make_pair(uint64_t{1}, uint64_t{4}));
  EXPECT_EQ(probe.EqualRange(4), std::make_pair(uint64_t{1}, uint64_t{4}));
  EXPECT_EQ(probe.EqualRange(0), std::make_pair(uint64_t{0}, uint64_t{0}));
  EXPECT_EQ(probe.EqualRange(9), std::make_pair(uint64_t{4}, uint64_t{6}));
  EXPECT_EQ(probe.EqualRange(20), std::make_pair(uint64_t{7}, uint64_t{8}));
}

}  // namespace
}  // namespace tj
