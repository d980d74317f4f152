#pragma once

#include <vector>

#include "window/window_spec.h"

/// \file window_assigner.h
/// Maps a tuple coordinate to the window(s) it participates in. Windows are
/// aligned so starts are integral multiples of the slide (the convention in
/// Storm/Flink); negative coordinates are supported.

namespace spear {

/// \brief Start of the earliest window containing `coord`.
std::int64_t FirstWindowStartFor(const WindowSpec& spec, std::int64_t coord);

/// \brief Start of the window-aligned slot containing `coord` (the latest
/// window start <= coord).
std::int64_t LastWindowStartFor(const WindowSpec& spec, std::int64_t coord);

/// \brief Calls `fn(const WindowBounds&)` for every window [s, s+range)
/// with s = k*slide containing `coord`, in ascending start order (at most
/// ceil(range/slide) calls). Allocates nothing, so per-tuple callers use it
/// rather than AssignWindows.
template <typename Fn>
void ForEachWindow(const WindowSpec& spec, std::int64_t coord, Fn&& fn) {
  SPEAR_DCHECK(spec.IsValid());
  const std::int64_t last = LastWindowStartFor(spec, coord);
  // Windows starting at last - j*slide contain `coord` while
  // j*slide < last + range - coord; that bound is positive because
  // slide <= range, so `last`'s window always qualifies.
  const std::int64_t reach = last + spec.range - coord;
  std::int64_t start = last - (reach - 1) / spec.slide * spec.slide;
  for (;;) {
    fn(WindowBounds{start, start + spec.range});
    if (start == last) break;
    start += spec.slide;
  }
}

/// \brief ForEachWindow's windows collected into a vector.
std::vector<WindowBounds> AssignWindows(const WindowSpec& spec,
                                        std::int64_t coord);

/// \brief Start of the earliest window NOT complete at `watermark`, i.e.
/// the smallest aligned s with s + range > watermark. Callers must clamp
/// `watermark` below kMaxTimestamp - range - slide (see ClampWatermark).
std::int64_t FirstIncompleteWindowStart(const WindowSpec& spec,
                                        std::int64_t watermark);

/// \brief Clamps a watermark so window-start arithmetic cannot overflow
/// (the end-of-stream watermark is kMaxTimestamp). The clamped value still
/// completes every window that can ever hold data.
std::int64_t ClampWatermark(const WindowSpec& spec, std::int64_t watermark);

}  // namespace spear
