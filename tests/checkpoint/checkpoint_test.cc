#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/wire.h"
#include "runtime/fault_injection.h"
#include "runtime/spouts.h"

namespace spear {
namespace {

CheckpointSnapshot SampleSnapshot(std::uint64_t sequence = 3) {
  CheckpointSnapshot snap;
  snap.stage = "stateful";
  snap.task = 1;
  snap.sequence = sequence;
  snap.watermark = 4200;
  snap.source_offset = 1234;
  snap.payload = "opaque operator state \x00\x01\x02 with binary bytes";
  return snap;
}

TEST(WireTest, RoundTripsAllTypes) {
  std::string buf;
  wire::AppendU8(&buf, 0x7F);
  wire::AppendU32(&buf, 0xDEADBEEF);
  wire::AppendU64(&buf, 0x0123456789ABCDEFull);
  wire::AppendI64(&buf, -42);
  wire::AppendF64(&buf, 3.5);
  wire::AppendString(&buf, "hello");

  wire::Reader reader(buf);
  Result<std::uint8_t> u8 = reader.ReadU8();
  Result<std::uint32_t> u32 = reader.ReadU32();
  Result<std::uint64_t> u64 = reader.ReadU64();
  Result<std::int64_t> i64 = reader.ReadI64();
  Result<double> f64 = reader.ReadF64();
  Result<std::string> str = reader.ReadString();
  ASSERT_TRUE(u8.ok());
  ASSERT_TRUE(u32.ok());
  ASSERT_TRUE(u64.ok());
  ASSERT_TRUE(i64.ok());
  ASSERT_TRUE(f64.ok());
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(*u8, 0x7F);
  EXPECT_EQ(*u32, 0xDEADBEEFu);
  EXPECT_EQ(*u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(*i64, -42);
  EXPECT_DOUBLE_EQ(*f64, 3.5);
  EXPECT_EQ(*str, "hello");
  EXPECT_TRUE(reader.exhausted());
}

TEST(WireTest, ReaderRejectsTruncation) {
  std::string buf;
  wire::AppendU64(&buf, 7);
  buf.resize(buf.size() - 1);
  wire::Reader reader(buf);
  EXPECT_TRUE(reader.ReadU64().status().IsOutOfRange());
}

TEST(WireTest, FixedWidthFieldsAreLittleEndian) {
  std::string buf;
  wire::AppendU32(&buf, 0x04030201u);
  wire::AppendU64(&buf, 0x0C0B0A0908070605ull);
  wire::AppendI64(&buf, -2);
  wire::AppendF64(&buf, 1.0);  // 0x3FF0000000000000
  const std::string expected =
      std::string("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0A\x0B\x0C", 12) +
      std::string("\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF", 8) +
      std::string("\x00\x00\x00\x00\x00\x00\xF0\x3F", 8);
  EXPECT_EQ(buf, expected);
}

TEST(WireTest, ReaderStopsAtItsLimit) {
  std::string buf;
  wire::AppendU32(&buf, 7);
  wire::AppendU32(&buf, 9);
  wire::Reader reader(buf, 4);
  Result<std::uint32_t> first = reader.ReadU32();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 7u);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(reader.ReadU32().status().IsOutOfRange());
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

// The eight-bytes-per-step CRC must equal the plain bytewise definition at
// every length and alignment, so snapshots written by either stay valid.
TEST(Crc32Test, MatchesBytewiseDefinitionAtEveryLengthAndOffset) {
  auto bytewise = [](const char* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= static_cast<unsigned char>(data[i]);
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  std::string data;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 300; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    data.push_back(static_cast<char>(x >> 56));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; offset + size <= data.size(); ++size) {
      ASSERT_EQ(Crc32(data.data() + offset, size),
                bytewise(data.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
  EXPECT_EQ(Crc32(data), bytewise(data.data(), data.size()));
}

TEST(SnapshotCodecTest, RoundTrips) {
  const CheckpointSnapshot snap = SampleSnapshot();
  const std::string bytes = EncodeSnapshot(snap);
  Result<CheckpointSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, snap.version);
  EXPECT_EQ(decoded->stage, snap.stage);
  EXPECT_EQ(decoded->task, snap.task);
  EXPECT_EQ(decoded->sequence, snap.sequence);
  EXPECT_EQ(decoded->watermark, snap.watermark);
  EXPECT_EQ(decoded->source_offset, snap.source_offset);
  EXPECT_EQ(decoded->payload, snap.payload);
}

TEST(SnapshotCodecTest, DetectsEveryCorruptedByte) {
  const std::string bytes = EncodeSnapshot(SampleSnapshot());
  // Flipping any single byte (envelope, payload, or the checksum itself)
  // must be caught — the decoder never returns silently wrong state.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_FALSE(DecodeSnapshot(corrupt).ok()) << "byte " << i;
  }
}

TEST(SnapshotCodecTest, RejectsTruncationAndTrailingGarbage) {
  const std::string bytes = EncodeSnapshot(SampleSnapshot());
  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(DecodeSnapshot(bytes.substr(1)).ok());
  EXPECT_FALSE(DecodeSnapshot(bytes + "x").ok());
  EXPECT_FALSE(DecodeSnapshot("").ok());
}

TEST(InMemoryCheckpointStoreTest, LatestIsNotFoundBeforeAnyPut) {
  InMemoryCheckpointStore store;
  EXPECT_TRUE(store.Latest("stateful", 0).status().IsNotFound());
}

TEST(InMemoryCheckpointStoreTest, PutThenLatestRoundTrips) {
  InMemoryCheckpointStore store;
  ASSERT_TRUE(store.Put(SampleSnapshot(1)).ok());
  Result<CheckpointSnapshot> latest = store.Latest("stateful", 1);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->sequence, 1u);
  // Keys are per (stage, task): the neighbour worker has nothing.
  EXPECT_TRUE(store.Latest("stateful", 0).status().IsNotFound());
  EXPECT_EQ(store.puts(), 1u);
}

TEST(InMemoryCheckpointStoreTest, CorruptCurrentFallsBackToPrevious) {
  InMemoryCheckpointStore store;
  ASSERT_TRUE(store.Put(SampleSnapshot(1)).ok());
  ASSERT_TRUE(store.Put(SampleSnapshot(2)).ok());
  store.CorruptLatestForTesting("stateful", 1);
  Result<CheckpointSnapshot> latest = store.Latest("stateful", 1);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->sequence, 1u);  // the surviving previous generation
}

TEST(InMemoryCheckpointStoreTest, CorruptOnlyGenerationIsNotFound) {
  InMemoryCheckpointStore store;
  ASSERT_TRUE(store.Put(SampleSnapshot(1)).ok());
  store.CorruptLatestForTesting("stateful", 1);
  EXPECT_TRUE(store.Latest("stateful", 1).status().IsNotFound());
}

TEST(FileCheckpointStoreTest, RoundTripsAcrossStoreInstances) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ckpt_roundtrip")
          .string();
  {
    FileCheckpointStore store(dir);
    ASSERT_TRUE(store.Put(SampleSnapshot(7)).ok());
  }
  // A fresh store over the same directory — i.e. a restarted process —
  // still finds the snapshot.
  FileCheckpointStore reopened(dir);
  Result<CheckpointSnapshot> latest = reopened.Latest("stateful", 1);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->sequence, 7u);
  EXPECT_EQ(latest->payload, SampleSnapshot().payload);
  std::filesystem::remove_all(dir);
}

TEST(FileCheckpointStoreTest, CorruptFileFallsBackToPreviousGeneration) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ckpt_fallback")
          .string();
  FileCheckpointStore store(dir);
  ASSERT_TRUE(store.Put(SampleSnapshot(1)).ok());
  ASSERT_TRUE(store.Put(SampleSnapshot(2)).ok());

  // Trash the current generation on disk (torn write / bit rot).
  bool corrupted_one = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") {
      std::ofstream f(entry.path(), std::ios::trunc | std::ios::binary);
      f << "garbage";
      corrupted_one = true;
    }
  }
  ASSERT_TRUE(corrupted_one);

  Result<CheckpointSnapshot> latest = store.Latest("stateful", 1);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->sequence, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ReplayableSpoutTest, VectorSpoutReportsAndSeeksOffsets) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) {
    tuples.emplace_back(i, std::vector<Value>{Value(static_cast<double>(i))});
  }
  VectorSpout spout(tuples);
  ReplayableSpout* replay = spout.replayable();
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->ReplayOffset(), 0u);

  Tuple t;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(spout.Next(&t));
  EXPECT_EQ(replay->ReplayOffset(), 4u);
  EXPECT_EQ(t.event_time(), 3);

  // Seek back and the stream replays identically.
  ASSERT_TRUE(replay->SeekTo(2).ok());
  ASSERT_TRUE(spout.Next(&t));
  EXPECT_EQ(t.event_time(), 2);

  EXPECT_TRUE(replay->SeekTo(11).IsOutOfRange());
  ASSERT_TRUE(replay->SeekTo(10).ok());  // end-of-stream position is valid
  EXPECT_FALSE(spout.Next(&t));
}

TEST(ReplayableSpoutTest, FaultInjectingSpoutForwardsToInner) {
  auto inner = std::make_shared<VectorSpout>(std::vector<Tuple>{
      Tuple(0, {Value(1.0)}), Tuple(1, {Value(2.0)})});
  FaultInjectingSpout wrapped(inner, nullptr);
  ASSERT_EQ(wrapped.replayable(), inner->replayable());

  GeneratorSpout opaque([](Tuple*) { return false; });
  EXPECT_EQ(opaque.replayable(), nullptr);
}

}  // namespace
}  // namespace spear
