#include "window/window_spec.h"

namespace spear {

std::string WindowSpec::ToString() const {
  std::string out = type == WindowType::kTimeBased ? "time" : "count";
  out += IsTumbling() ? "-tumbling(" : "-sliding(";
  out += "range=" + std::to_string(range);
  if (!IsTumbling()) out += ", slide=" + std::to_string(slide);
  out += ")";
  return out;
}

std::string WindowBounds::ToString() const {
  // Appended piecewise: GCC 12 reports a -Wrestrict false positive on
  // `"[" + std::to_string(...)` at -O3.
  std::string out(1, '[');
  out += std::to_string(start);
  out += ", ";
  out += std::to_string(end);
  out += ')';
  return out;
}

}  // namespace spear
