#include "window/window_assigner.h"

namespace spear {

namespace {

/// Largest multiple of `slide` that is <= coord (floor division that is
/// correct for negative coordinates too).
std::int64_t FloorToSlide(std::int64_t coord, std::int64_t slide) {
  std::int64_t q = coord / slide;
  if (coord % slide != 0 && coord < 0) --q;
  return q * slide;
}

}  // namespace

std::int64_t LastWindowStartFor(const WindowSpec& spec, std::int64_t coord) {
  SPEAR_DCHECK(spec.IsValid());
  return FloorToSlide(coord, spec.slide);
}

std::int64_t FirstWindowStartFor(const WindowSpec& spec, std::int64_t coord) {
  // Earliest start s with s + range > coord, i.e. s > coord - range;
  // starts step by slide from the latest one.
  const std::int64_t last = LastWindowStartFor(spec, coord);
  std::int64_t first = last;
  while (first - spec.slide + spec.range > coord) {
    first -= spec.slide;
  }
  return first;
}

std::int64_t FirstIncompleteWindowStart(const WindowSpec& spec,
                                        std::int64_t watermark) {
  // Latest aligned start, then walk back while the previous window is
  // still incomplete (end > watermark).
  std::int64_t s = LastWindowStartFor(spec, watermark) + spec.slide;
  while (s - spec.slide + spec.range > watermark) {
    s -= spec.slide;
  }
  return s;
}

std::int64_t ClampWatermark(const WindowSpec& spec, std::int64_t watermark) {
  const std::int64_t limit = kMaxTimestamp - spec.range - 2 * spec.slide;
  return watermark > limit ? limit : watermark;
}

std::vector<WindowBounds> AssignWindows(const WindowSpec& spec,
                                        std::int64_t coord) {
  std::vector<WindowBounds> out;
  out.reserve(static_cast<std::size_t>(spec.WindowsPerCoordinate()));
  ForEachWindow(spec, coord,
                [&out](const WindowBounds& w) { out.push_back(w); });
  return out;
}

}  // namespace spear
