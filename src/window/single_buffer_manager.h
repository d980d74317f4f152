#pragma once

#include <string>

#include "storage/secondary_storage.h"
#include "window/tuple_buffer.h"
#include "window/window_manager.h"

/// \file single_buffer_manager.h
/// Storm's buffering design (paper Sec. 2, Fig. 3 left): every tuple is
/// stored exactly once in an arrival-ordered buffer. At watermark arrival
/// the worker reads the buffer to (i) collect each complete window's tuples
/// and (ii) evict tuples that no future window can need. Memory per tuple
/// is minimal; the cost is the per-watermark read of each window's chunks.

namespace spear {

/// \brief Single arrival-ordered buffer with optional spill to S.
class SingleBufferWindowManager : public WindowManager {
 public:
  /// \param spec            window definition
  /// \param memory_capacity max tuples resident in memory before spilling
  ///                        (0 = unlimited, no storage needed)
  /// \param storage         spill target (may be null when capacity is 0)
  /// \param spill_key       S key prefix for this worker's runs
  SingleBufferWindowManager(WindowSpec spec, std::size_t memory_capacity = 0,
                            SecondaryStorage* storage = nullptr,
                            std::string spill_key = "single-buffer");

  void OnTuple(std::int64_t coord, Tuple tuple) override;

  Result<std::vector<CompleteWindow>> OnWatermark(
      std::int64_t watermark) override;

  std::size_t BufferedTuples() const override { return buffer_.size(); }

  std::size_t MemoryBytes() const override { return buffer_.MemoryBytes(); }

  std::uint64_t late_tuples() const override { return late_tuples_; }

  /// Number of tuples evicted so far (test/bench observability).
  std::uint64_t evicted_tuples() const { return evicted_tuples_; }

  /// Whether any tuple of the current buffer lives in S.
  bool HasSpilled() const { return buffer_.HasSpilled(); }

  const WindowSpec& spec() const { return spec_; }

 private:
  const WindowSpec spec_;
  /// Spills are not retried: a failed one keeps the tuple in memory.
  TupleBuffer buffer_;

  /// End of the last window already emitted; windows are emitted in
  /// ascending order and never twice.
  std::int64_t next_window_start_;
  bool saw_any_tuple_ = false;
  std::int64_t last_watermark_;

  std::uint64_t late_tuples_ = 0;
  std::uint64_t evicted_tuples_ = 0;
};

}  // namespace spear
