#include "window/single_buffer_manager.h"

#include <algorithm>

#include "window/window_assigner.h"

namespace spear {

SingleBufferWindowManager::SingleBufferWindowManager(
    WindowSpec spec, std::size_t memory_capacity, SecondaryStorage* storage,
    std::string spill_key)
    : spec_(spec),
      buffer_(memory_capacity, storage, std::move(spill_key)),
      next_window_start_(0),
      last_watermark_(kMinTimestamp) {
  SPEAR_CHECK(spec_.IsValid());
}

void SingleBufferWindowManager::OnTuple(std::int64_t coord, Tuple tuple) {
  if (coord < last_watermark_) {
    ++late_tuples_;
    return;
  }
  if (!saw_any_tuple_) {
    next_window_start_ = FirstWindowStartFor(spec_, coord);
    saw_any_tuple_ = true;
  } else {
    // Out-of-order tuples ahead of the watermark may open earlier windows;
    // coords behind emitted windows were filtered above (see header).
    next_window_start_ =
        std::min(next_window_start_, FirstWindowStartFor(spec_, coord));
  }
  buffer_.Append(coord, std::move(tuple));
}

Result<std::vector<CompleteWindow>> SingleBufferWindowManager::OnWatermark(
    std::int64_t watermark) {
  std::vector<CompleteWindow> out;
  // Clamp (the end-of-stream watermark is kMaxTimestamp) so the window
  // arithmetic below cannot overflow.
  watermark = ClampWatermark(spec_, watermark);
  if (watermark <= last_watermark_) return out;
  last_watermark_ = watermark;
  if (!saw_any_tuple_) return out;
  // Nothing can complete: O(1) exit (count-based callers invoke this per
  // tuple, so the reads below must not run on every call).
  if (next_window_start_ + spec_.range > watermark) return out;

  // Windows are staged from memory: fetch the spill run back first.
  SPEAR_RETURN_NOT_OK(buffer_.Unspill());

  // A complete window that holds no buffered tuple can never gain one
  // (future tuples are >= the watermark), so complete-but-empty stretches
  // are skipped wholesale instead of iterated slide by slide. Tuples below
  // the next window are evicted first (no later window needs them), so
  // the buffer's smallest coord is the next one that matters; with none
  // left, the skip stops at the first incomplete window.
  auto evict_and_skip_empty_stretch = [&] {
    evicted_tuples_ += buffer_.EvictBelow(next_window_start_);
    next_window_start_ = std::max(
        next_window_start_,
        FirstWindowStartFor(spec_, std::min(buffer_.MinCoord(), watermark)));
  };

  evict_and_skip_empty_stretch();
  // Stage every complete window, reading the buffer chunks it overlaps.
  while (next_window_start_ + spec_.range <= watermark) {
    CompleteWindow window;
    window.bounds = WindowBounds{next_window_start_,
                                 next_window_start_ + spec_.range};
    buffer_.ForEachIn(window.bounds, [&](const Tuple& t, std::uint32_t) {
      window.tuples.push_back(t);
      return true;
    });
    next_window_start_ += spec_.slide;
    if (window.tuples.empty()) {
      evict_and_skip_empty_stretch();  // jump the gap instead of walking it
    } else {
      out.push_back(std::move(window));
    }
  }
  evicted_tuples_ += buffer_.EvictBelow(next_window_start_);
  return out;
}

}  // namespace spear
