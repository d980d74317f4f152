#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/retry_policy.h"
#include "stats/key_dictionary.h"
#include "storage/secondary_storage.h"
#include "tuple/field_extractor.h"
#include "window/window_spec.h"

/// \file tuple_buffer.h
/// Raw-tuple custody of the single-buffer design (paper Sec. 2), held by
/// the exact single-buffer manager and SPEAr's alike: each admitted tuple
/// is stored once, in arrival order; past the memory budget it spills to S.
///
/// Entries sit in fixed-capacity, arrival-ordered chunks that record their
/// coord range (the pane layout of "Spreadsheets for Stream Partitions and
/// Windows"). Eviction drops every chunk wholly below the cutoff without
/// moving any other tuple and compacts only the chunks straddling it; a
/// window read skips every chunk outside its bounds.
///
/// Spilled tuples form one run in S under `<spill_key>/<run sequence>`,
/// each carrying its coord as event time and its own event time as a
/// trailing field; only the coords (the run's manifest) stay in memory.

namespace spear {

/// \brief Arrival-ordered, chunked tuple buffer with spill to S.
/// Single-threaded, like the managers that own it.
class TupleBuffer {
 public:
  static constexpr std::size_t kChunkTuples = 512;

  /// Where Append put a tuple. kSpillFailed: past the budget, but S stayed
  /// unavailable after retries, so the tuple was kept in memory.
  enum class Custody { kMemory, kSpilled, kSpillFailed };

  /// Told the retries a storage call took and whether they recovered it.
  using RetryHook = std::function<void(std::uint64_t, std::uint64_t)>;

  /// `memory_capacity` tuples stay in memory (0 = unlimited, `storage` may
  /// then be null); later ones spill under `spill_key`. Every Store/Get
  /// retries under `retry`, its backoff jitter seeded from `retry_seed`.
  explicit TupleBuffer(std::size_t memory_capacity = 0,
                       SecondaryStorage* storage = nullptr,
                       std::string spill_key = "buffer",
                       RetryPolicy retry = RetryPolicy::None(),
                       std::uint64_t retry_seed = 0);

  TupleBuffer(const TupleBuffer&) = delete;
  TupleBuffer& operator=(const TupleBuffer&) = delete;

  /// Grouped mode: every in-memory tuple holds one reference on its key id
  /// in `keys`. Append hands it over; eviction, spill and Clear drop it;
  /// Unspill re-interns the key `key_extractor` reads. Call before the
  /// first Append; `keys` must outlive the buffer.
  void TrackKeys(KeyDictionary* keys, KeyExtractor key_extractor) {
    SPEAR_CHECK(size() == 0);
    keys_ = keys;
    key_extractor_ = std::move(key_extractor);
  }

  void SetRetryHook(RetryHook hook) { retry_hook_ = std::move(hook); }

  /// Appends one tuple, spilling it when the memory budget is used up.
  /// `key_id` (grouped mode only) carries one reference for the buffer.
  Custody Append(std::int64_t coord, Tuple tuple,
                 std::uint32_t key_id = KeyDictionary::kNoId);

  /// Fetches the spill run (paying S latency), appends its tuples in spill
  /// order after the in-memory ones, and erases it. No-op without a run.
  Status Unspill();

  /// Drops every tuple with coord < `cutoff`, and the spill run once all
  /// its coords are below it (S is never read just to discard). Returns
  /// the number of in-memory tuples dropped.
  std::size_t EvictBelow(std::int64_t cutoff);

  /// Drops every in-memory tuple and erases the run.
  void Clear();

  /// Restore path: Clear(), then continue a snapshot's run numbering and
  /// failure count. A run the snapshot had is erased and a fresh one
  /// started, since the replay that follows spills its tuples again.
  void ResumeFrom(std::uint64_t spill_seq, std::uint64_t spill_failures,
                  bool had_run);

  /// Calls `fn(tuple, key_id)` (key_id is kNoId unless keys are tracked)
  /// on every in-memory tuple whose coord lies in `bounds`, in buffer
  /// order, reading only the chunks that overlap them. `fn` returns false
  /// to stop; ForEachIn then returns false.
  template <typename Fn>
  bool ForEachIn(const WindowBounds& bounds, Fn&& fn) const {
    for (const Chunk& chunk : chunks_) {
      if (chunk.max_coord < bounds.start) continue;
      if (chunk.min_coord >= bounds.end) continue;
      for (std::size_t i = 0; i < chunk.entries.size(); ++i) {
        if (!bounds.Contains(chunk.entries[i].coord)) continue;
        const std::uint32_t key_id =
            keys_ != nullptr ? chunk.keys[i] : KeyDictionary::kNoId;
        if (!fn(chunk.entries[i].tuple, key_id)) return false;
      }
    }
    return true;
  }

  /// Smallest in-memory coord, or kMaxTimestamp when memory is empty.
  std::int64_t MinCoord() const {
    std::int64_t min = kMaxTimestamp;
    for (const Chunk& chunk : chunks_) min = std::min(min, chunk.min_coord);
    return min;
  }

  /// Tuples held, in memory and in S.
  std::size_t size() const { return memory_size_ + spilled_coords_.size(); }
  std::size_t memory_size() const { return memory_size_; }
  std::size_t spilled_size() const { return spilled_coords_.size(); }
  bool HasSpilled() const { return !spilled_coords_.empty(); }
  std::uint64_t spill_failures() const { return spill_failures_; }

  /// The current run's manifest (its coords, in spill order) and number.
  const std::vector<std::int64_t>& spilled_coords() const {
    return spilled_coords_;
  }
  std::uint64_t spill_seq() const { return spill_seq_; }

  /// Approximate resident bytes of the in-memory tuples (Fig. 7).
  std::size_t MemoryBytes() const;

 private:
  struct Entry {
    std::int64_t coord;
    Tuple tuple;
  };

  struct Chunk {
    std::vector<Entry> entries;
    /// Key id per entry, grouped mode only: scalar entries stay narrow.
    std::vector<std::uint32_t> keys;
    std::int64_t min_coord = kMaxTimestamp;
    std::int64_t max_coord = kMinTimestamp;
  };

  void PushMemory(std::int64_t coord, Tuple tuple, std::uint32_t key_id);
  /// Keeps the entries of `chunk` at or above `cutoff`, in order; returns
  /// how many it dropped.
  std::size_t Compact(Chunk* chunk, std::int64_t cutoff);
  void ReleaseKeys(const Chunk& chunk);
  /// Runs a storage call under the retry policy, reporting its retries.
  template <typename Op>
  Status Retried(std::uint64_t salt, Op&& op);
  std::string RunKey() const {
    return std::string(spill_key_).append("/").append(
        std::to_string(spill_seq_));
  }
  /// Erases the current run from S and starts the next one.
  void DropRun();

  const std::size_t memory_capacity_;
  SecondaryStorage* const storage_;
  const std::string spill_key_;
  const RetryPolicy retry_;
  const std::uint64_t retry_seed_;
  KeyDictionary* keys_ = nullptr;
  KeyExtractor key_extractor_;
  RetryHook retry_hook_;

  std::deque<Chunk> chunks_;
  std::size_t memory_size_ = 0;

  std::vector<std::int64_t> spilled_coords_;
  std::int64_t spilled_max_coord_ = kMinTimestamp;
  std::uint64_t spill_seq_ = 0;
  std::uint64_t spill_failures_ = 0;
};

}  // namespace spear
