#include "window/tuple_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "window/single_buffer_manager.h"
#include "window/window_assigner.h"

namespace spear {
namespace {

Tuple T(Timestamp t) { return Tuple(t, {Value(static_cast<double>(t))}); }

/// Every buffered tuple, fetching the spill run back first.
Result<std::vector<Tuple>> Materialize(TupleBuffer* buf) {
  SPEAR_RETURN_NOT_OK(buf->Unspill());
  std::vector<Tuple> out;
  buf->ForEachIn(WindowBounds{kMinTimestamp, kMaxTimestamp},
                 [&](const Tuple& t, std::uint32_t) {
                   out.push_back(t);
                   return true;
                 });
  return out;
}

// The SpillingBufferTest cases below cover TupleBuffer's spill path; they
// keep the suite name of the test-only spilling buffer they replaced.

TEST(SpillingBufferTest, UnlimitedNeverSpills) {
  TupleBuffer buf(0, nullptr, "k");
  for (int i = 0; i < 1000; ++i) buf.Append(i, T(i));
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(buf.spilled_size(), 0u);
  EXPECT_FALSE(buf.HasSpilled());
}

TEST(SpillingBufferTest, SpillsBeyondCapacity) {
  SecondaryStorage storage;
  TupleBuffer buf(10, &storage, "k");
  for (int i = 0; i < 25; ++i) buf.Append(i, T(i));
  EXPECT_EQ(buf.memory_size(), 10u);
  EXPECT_EQ(buf.spilled_size(), 15u);
  EXPECT_EQ(buf.size(), 25u);
  EXPECT_TRUE(buf.HasSpilled());
  EXPECT_EQ(storage.CountFor("k/0"), 15u);
}

TEST(SpillingBufferTest, MaterializeReturnsAllInOrder) {
  SecondaryStorage storage;
  TupleBuffer buf(5, &storage, "k");
  for (int i = 0; i < 12; ++i) buf.Append(i, T(i));
  auto all = Materialize(&buf);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ((*all)[i].event_time(), i);
}

TEST(SpillingBufferTest, MaterializeWithoutSpillAvoidsStorage) {
  SecondaryStorage storage;
  TupleBuffer buf(100, &storage, "k");
  buf.Append(1, T(1));
  auto all = Materialize(&buf);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(storage.get_calls(), 0u);
}

TEST(SpillingBufferTest, ClearErasesSpilledRun) {
  SecondaryStorage storage;
  TupleBuffer buf(2, &storage, "k");
  for (int i = 0; i < 5; ++i) buf.Append(i, T(i));
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(storage.CountFor("k/0"), 0u);
}

TEST(SpillingBufferTest, MemoryBytesCoversResidentOnly) {
  SecondaryStorage storage;
  TupleBuffer buf(3, &storage, "k");
  for (int i = 0; i < 10; ++i) buf.Append(i, T(i));
  const std::size_t bytes = buf.MemoryBytes();
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, 10 * T(0).ByteSize());  // only 3 resident
}

// --- Differential tests against a brute-force model ----------------------

/// One admitted tuple as the model sees it.
struct ModelTuple {
  std::int64_t coord;
  std::int64_t id;
  std::string key;
};

/// Field 0: arrival id; field 1: group key. The event time differs from
/// the coord so a spill round trip that loses it shows.
Tuple MakeTuple(const ModelTuple& m) {
  return Tuple(1'000'000 + m.id, {Value(m.id), Value(m.key)});
}

/// Coords that advance slowly (about ten tuples per coord unit) and lag
/// the newest coord by up to `disorder`.
class DisorderedStream {
 public:
  DisorderedStream(std::uint64_t seed, std::int64_t disorder)
      : rng_(seed), disorder_(disorder) {}

  ModelTuple Next(std::int64_t floor) {
    if (rng_.NextBounded(10) == 0) ++frontier_;
    const auto lag = static_cast<std::int64_t>(
        rng_.NextBounded(static_cast<std::uint64_t>(disorder_) + 1));
    ModelTuple m;
    m.coord = std::max(floor, frontier_ - lag);
    m.id = next_id_++;
    m.key = std::string("k").append(std::to_string(rng_.NextBounded(40)));
    return m;
  }

  std::int64_t frontier() const { return frontier_; }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  const std::int64_t disorder_;
  std::int64_t frontier_ = 0;
  std::int64_t next_id_ = 0;
};

/// Drives a TupleBuffer and a brute-force model of it (memory list in
/// buffer order, spill run in spill order) through appends, unspills and
/// evictions, comparing them after every eviction.
void RunBufferDifferential(bool grouped, std::size_t capacity,
                           std::uint64_t seed) {
  SCOPED_TRACE("grouped=" + std::to_string(grouped) +
               " capacity=" + std::to_string(capacity) +
               " seed=" + std::to_string(seed));
  SecondaryStorage storage;
  KeyDictionary keys;
  TupleBuffer buf(capacity, capacity == 0 ? nullptr : &storage, "diff");
  if (grouped) buf.TrackKeys(&keys, KeyField(1));

  std::vector<ModelTuple> memory;
  std::vector<ModelTuple> spilled;
  DisorderedStream stream(seed, /*disorder=*/60);
  std::int64_t cutoff = 0;
  std::size_t evictions = 0;
  bool crossed_chunks = false;
  for (int i = 0; i < 6000; ++i) {
    const ModelTuple m = stream.Next(cutoff);
    const std::uint32_t key_id =
        grouped ? keys.Intern(m.key) : KeyDictionary::kNoId;
    const TupleBuffer::Custody custody =
        buf.Append(m.coord, MakeTuple(m), key_id);
    if (capacity == 0 || memory.size() < capacity) {
      ASSERT_EQ(custody, TupleBuffer::Custody::kMemory);
      memory.push_back(m);
    } else {
      ASSERT_EQ(custody, TupleBuffer::Custody::kSpilled);
      spilled.push_back(m);
    }
    crossed_chunks |= memory.size() > TupleBuffer::kChunkTuples;
    if (i % 50 != 49) continue;

    // A watermark: sometimes the owner reads the spill run back first.
    if (stream.rng().NextBounded(3) == 0) {
      ASSERT_TRUE(buf.Unspill().ok());
      memory.insert(memory.end(), spilled.begin(), spilled.end());
      spilled.clear();
    }
    cutoff = std::max(cutoff, stream.frontier() - 100);
    std::size_t model_evicted = 0;
    std::vector<ModelTuple> kept;
    for (const ModelTuple& t : memory) {
      if (t.coord < cutoff) {
        ++model_evicted;
      } else {
        kept.push_back(t);
      }
    }
    memory.swap(kept);
    bool run_expired = true;
    for (const ModelTuple& t : spilled) run_expired &= t.coord < cutoff;
    if (run_expired) spilled.clear();
    ASSERT_EQ(buf.EvictBelow(cutoff), model_evicted);
    ++evictions;

    ASSERT_EQ(buf.memory_size(), memory.size());
    ASSERT_EQ(buf.spilled_size(), spilled.size());
    ASSERT_EQ(buf.size(), memory.size() + spilled.size());
    ASSERT_EQ(storage.TotalTuples(), spilled.size());

    // Window reads: every in-memory tuple in bounds, in buffer order, with
    // its own event time.
    for (int probe = 0; probe < 4; ++probe) {
      const std::int64_t start =
          cutoff + static_cast<std::int64_t>(stream.rng().NextBounded(120));
      const WindowBounds bounds{start, start + 40};
      std::vector<std::int64_t> want;
      for (const ModelTuple& t : memory) {
        if (bounds.Contains(t.coord)) want.push_back(t.id);
      }
      std::vector<std::int64_t> got;
      buf.ForEachIn(bounds, [&](const Tuple& t, std::uint32_t key_id) {
        got.push_back(t.field(0).AsInt64());
        EXPECT_EQ(t.event_time(), 1'000'000 + t.field(0).AsInt64());
        if (grouped) {
          EXPECT_EQ(keys.KeyOf(key_id), t.field(1).AsString());
        } else {
          EXPECT_EQ(key_id, KeyDictionary::kNoId);
        }
        return true;
      });
      ASSERT_EQ(got, want) << "bounds [" << start << ", " << bounds.end
                           << ")";

    }
    std::int64_t want_min = kMaxTimestamp;
    for (const ModelTuple& t : memory) want_min = std::min(want_min, t.coord);
    ASSERT_EQ(buf.MinCoord(), want_min);

    if (grouped) {
      std::set<std::string> distinct;
      for (const ModelTuple& t : memory) distinct.insert(t.key);
      ASSERT_EQ(keys.live(), distinct.size()) << "after eviction " << i;
    }
  }
  EXPECT_GE(evictions, 100u);
  EXPECT_TRUE(crossed_chunks) << "the stream never filled a chunk";

  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(storage.TotalTuples(), 0u);
  EXPECT_EQ(keys.live(), 0u);
}

TEST(TupleBufferTest, ScalarMatchesBruteForceModel) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    RunBufferDifferential(/*grouped=*/false, /*capacity=*/0, seed);
  }
}

TEST(TupleBufferTest, ScalarSpillingMatchesBruteForceModel) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    RunBufferDifferential(/*grouped=*/false, /*capacity=*/700, seed);
  }
}

TEST(TupleBufferTest, GroupedKeyIdsMatchBruteForceModel) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    RunBufferDifferential(/*grouped=*/true, /*capacity=*/0, seed);
  }
}

TEST(TupleBufferTest, GroupedSpillingKeyIdsMatchBruteForceModel) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    RunBufferDifferential(/*grouped=*/true, /*capacity=*/700, seed);
  }
}

/// Feeds SingleBufferWindowManager a disordered stream with occasional
/// late tuples and checks, after every watermark, its buffered count and
/// every emitted window against brute force over the admitted tuples.
void RunSingleBufferDifferential(const WindowSpec& spec, std::size_t capacity,
                                 std::uint64_t seed) {
  SCOPED_TRACE("capacity=" + std::to_string(capacity) +
               " seed=" + std::to_string(seed));
  SecondaryStorage storage;
  SingleBufferWindowManager mgr(spec, capacity,
                                capacity == 0 ? nullptr : &storage, "sb");
  DisorderedStream stream(seed, /*disorder=*/2 * spec.slide);
  std::vector<ModelTuple> admitted;  // arrival order
  std::int64_t last_watermark = kMinTimestamp;
  std::size_t windows_checked = 0;
  std::size_t late = 0;
  for (int i = 0; i < 5000; ++i) {
    const ModelTuple m = stream.Next(kMinTimestamp);
    mgr.OnTuple(m.coord, MakeTuple(m));
    if (m.coord >= last_watermark) {
      admitted.push_back(m);
    } else {
      ++late;
    }
    if (i % 40 != 39) continue;

    // Watermarks trail the newest coord by up to three slides, so a few
    // tuples arrive late.
    const std::int64_t watermark =
        stream.frontier() - static_cast<std::int64_t>(stream.rng().NextBounded(
                                static_cast<std::uint64_t>(3 * spec.slide)));
    auto windows = mgr.OnWatermark(watermark);
    ASSERT_TRUE(windows.ok()) << windows.status().ToString();
    if (watermark <= last_watermark) {
      ASSERT_TRUE(windows->empty());
      continue;
    }

    // Brute force: the windows completed by this watermark, not by the
    // previous one, with their admitted tuples in arrival order.
    std::map<std::int64_t, std::vector<std::int64_t>> want;
    for (const ModelTuple& t : admitted) {
      for (const WindowBounds& w : AssignWindows(spec, t.coord)) {
        if (w.end <= watermark && w.end > last_watermark) {
          want[w.start].push_back(t.id);
        }
      }
    }
    last_watermark = watermark;
    ASSERT_EQ(windows->size(), want.size()) << "watermark " << watermark;
    auto it = want.begin();
    for (const CompleteWindow& w : *windows) {
      ASSERT_EQ(w.bounds.start, it->first);
      ASSERT_EQ(w.bounds.end, it->first + spec.range);
      std::vector<std::int64_t> got;
      for (const Tuple& t : w.tuples) {
        got.push_back(t.field(0).AsInt64());
        EXPECT_EQ(t.event_time(), 1'000'000 + t.field(0).AsInt64());
      }
      ASSERT_EQ(got, it->second) << "window " << w.bounds.start;
      ++windows_checked;
      ++it;
    }

    const std::int64_t cutoff = FirstIncompleteWindowStart(spec, watermark);
    std::size_t live = 0;
    for (const ModelTuple& t : admitted) live += t.coord >= cutoff ? 1 : 0;
    ASSERT_EQ(mgr.BufferedTuples(), live) << "watermark " << watermark;
  }
  EXPECT_GT(windows_checked, 20u);
  EXPECT_GT(late, 0u) << "no tuple was late: the late path went untested";
  if (capacity != 0) {
    EXPECT_GT(storage.store_calls(), 0u);
  }
}

TEST(TupleBufferTest, SingleBufferSlidingWindowsMatchBruteForce) {
  for (const std::uint64_t seed : {4, 5}) {
    RunSingleBufferDifferential(WindowSpec::SlidingTime(100, 25), 0, seed);
    RunSingleBufferDifferential(WindowSpec::SlidingTime(100, 25), 700, seed);
  }
}

TEST(TupleBufferTest, SingleBufferTumblingWindowsMatchBruteForce) {
  for (const std::uint64_t seed : {6, 7}) {
    RunSingleBufferDifferential(WindowSpec::TumblingTime(20), 0, seed);
    RunSingleBufferDifferential(WindowSpec::TumblingTime(20), 200, seed);
  }
}

// The spill run is discarded unread once, and only once, every spilled
// coord is below the cutoff.
TEST(TupleBufferTest, SpillRunDroppedOnceEveryCoordExpires) {
  SecondaryStorage storage;
  TupleBuffer buf(1, &storage, "k");
  for (const std::int64_t coord : {5, 12, 10}) buf.Append(coord, T(coord));
  ASSERT_EQ(buf.spilled_size(), 2u);
  EXPECT_EQ(buf.EvictBelow(12), 1u);
  EXPECT_EQ(buf.spilled_size(), 2u);  // coord 12 is still live
  EXPECT_EQ(storage.CountFor("k/0"), 2u);
  EXPECT_EQ(buf.EvictBelow(13), 0u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(storage.TotalTuples(), 0u);
  EXPECT_EQ(storage.get_calls(), 0u);
}

// A window read stops as soon as the visitor says so (the exact
// fallback's deadline check relies on it).
TEST(TupleBufferTest, WindowReadStopsEarly) {
  TupleBuffer buf;
  for (int i = 0; i < 2000; ++i) buf.Append(i, T(i));
  int visited = 0;
  const bool finished =
      buf.ForEachIn(WindowBounds{0, 2000}, [&](const Tuple&, std::uint32_t) {
        return ++visited < 700;
      });
  EXPECT_FALSE(finished);
  EXPECT_EQ(visited, 700);
}

// Eviction drops whole expired chunks and compacts the straddling one, in
// order; the freed chunk is reused by later appends.
TEST(TupleBufferTest, EvictionKeepsSurvivorsInArrivalOrder) {
  TupleBuffer buf;
  const int n = static_cast<int>(3 * TupleBuffer::kChunkTuples);
  for (int i = 0; i < n; ++i) buf.Append(i, T(i));
  const std::int64_t cutoff = TupleBuffer::kChunkTuples + 10;
  EXPECT_EQ(buf.EvictBelow(cutoff), static_cast<std::size_t>(cutoff));
  for (int i = n; i < n + 600; ++i) buf.Append(i, T(i));
  std::int64_t expect = cutoff;
  buf.ForEachIn(WindowBounds{kMinTimestamp, kMaxTimestamp},
                [&](const Tuple& t, std::uint32_t) {
                  EXPECT_EQ(t.event_time(), expect++);
                  return true;
                });
  EXPECT_EQ(expect, n + 600);
  EXPECT_EQ(buf.size(), static_cast<std::size_t>(n + 600 - cutoff));
}

}  // namespace
}  // namespace spear
