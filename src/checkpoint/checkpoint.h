#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/time.h"

/// \file checkpoint.h
/// Versioned, checksummed worker snapshots and the stores that hold them.
///
/// A CheckpointSnapshot is the unit of fault tolerance: one stateful
/// worker's O(b) budget state (opaque payload, see checkpointable.h) plus
/// the bookkeeping recovery needs — the watermark the state is consistent
/// with, the source replay offset at snapshot time, and a monotonically
/// increasing sequence number. Snapshots are byte-encoded with a CRC32
/// trailer; a store never returns a snapshot whose checksum (or envelope)
/// does not validate, falling back to the previous generation instead.
/// Keeping exactly two generations per worker is enough: a snapshot only
/// becomes the fallback after its successor was durably written.

namespace spear {

/// \brief One worker's recovery point.
struct CheckpointSnapshot {
  /// Format version of the envelope (payload versioning is the owner's).
  std::uint32_t version = 1;
  std::string stage;
  int task = 0;
  /// Per-worker snapshot counter, monotonically increasing.
  std::uint64_t sequence = 0;
  /// The state is consistent with every window emitted up to here.
  Timestamp watermark = 0;
  /// Source replay offset at snapshot time (0 when the spout is not
  /// replayable).
  std::uint64_t source_offset = 0;
  /// Opaque operator state (Checkpointable::SnapshotState).
  std::string payload;
};

/// \brief CRC-32 (IEEE 802.3, reflected) over `data`.
std::uint32_t Crc32(const std::string& data);
/// \brief CRC-32 over the `size` bytes at `data`.
std::uint32_t Crc32(const char* data, std::size_t size);

/// Byte-encodes the snapshot: magic, envelope fields, payload, CRC32
/// trailer over everything preceding it.
std::string EncodeSnapshot(const CheckpointSnapshot& snapshot);

/// Decodes and validates (magic, version, checksum, exact length).
Result<CheckpointSnapshot> DecodeSnapshot(const std::string& bytes);

/// \brief Durable home of worker snapshots. Thread-safe: concurrent
/// workers Put/Latest their own (stage, task) keys during a run.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  /// Stores `snapshot` as the newest generation for (stage, task),
  /// demoting the previous one to the fallback generation.
  virtual Status Put(const CheckpointSnapshot& snapshot) = 0;

  /// Returns the latest snapshot for (stage, task) that validates;
  /// falls back to the previous generation if the newest is corrupt.
  /// kNotFound when the worker has no valid snapshot.
  virtual Result<CheckpointSnapshot> Latest(const std::string& stage,
                                            int task) = 0;
};

/// \brief In-process store. Snapshots are kept *encoded* so every
/// Put/Latest round-trips the wire format and its checksum — the
/// in-memory store exercises exactly the code paths the file store does.
class InMemoryCheckpointStore : public CheckpointStore {
 public:
  Status Put(const CheckpointSnapshot& snapshot) override;
  Result<CheckpointSnapshot> Latest(const std::string& stage,
                                    int task) override;

  /// Number of Put calls observed (testing/telemetry).
  std::uint64_t puts() const;

  /// Flips one payload byte of the newest generation for (stage, task) —
  /// lets tests prove Latest falls back to the previous generation.
  void CorruptLatestForTesting(const std::string& stage, int task);

 private:
  struct Generations {
    std::string current;
    std::string previous;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, int>, Generations> snapshots_;
  std::uint64_t puts_ = 0;
};

/// \brief File-backed store: one `<stage>-<task>.ckpt` per worker in
/// `directory` (plus a `.ckpt.prev` fallback), written atomically via
/// rename so a crash mid-write can never destroy the last good snapshot.
class FileCheckpointStore : public CheckpointStore {
 public:
  /// Creates `directory` if missing (SPEAR_CHECKed).
  explicit FileCheckpointStore(std::string directory);

  Status Put(const CheckpointSnapshot& snapshot) override;
  Result<CheckpointSnapshot> Latest(const std::string& stage,
                                    int task) override;

  const std::string& directory() const { return directory_; }

 private:
  std::string PathFor(const std::string& stage, int task) const;

  const std::string directory_;
  std::mutex mutex_;
};

/// \brief Checkpointing policy of a topology (Topology::checkpoint).
struct CheckpointConfig {
  /// Master switch; when false the executor runs exactly as before (no
  /// replay logging, no snapshots, no recovery — a crash fails the run).
  bool enabled = false;
  /// Snapshot a stateful worker when its local watermark has advanced at
  /// least this much event time (ms) since its last snapshot. Snapshots
  /// happen only at watermark boundaries, right after window emission, so
  /// the serialized state is O(b).
  DurationMs interval = 1;
  /// Recovery attempts per worker before its failure cancels the run.
  int max_recoveries_per_worker = 8;
  /// Bound on the per-worker replay log. Tuples consumed since the last
  /// snapshot beyond this bound are lost on recovery; the loss is folded
  /// into ε̂_w (NoteRecoveryLoss) instead of silently ignored.
  std::size_t max_replay_tuples = 8192;
  /// Where snapshots live. Not owned; null means the executor creates a
  /// run-private InMemoryCheckpointStore (sufficient for in-process
  /// worker restarts).
  CheckpointStore* store = nullptr;
};

}  // namespace spear
