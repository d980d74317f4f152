#pragma once

#include <map>

#include "window/window_assigner.h"
#include "window/window_manager.h"

/// \file multi_buffer_manager.h
/// Flink's buffering design (paper Sec. 2, Fig. 3 right): a copy of each
/// tuple is stored in a dedicated buffer for every window it participates
/// in. Watermark arrival just picks the completed buffers — no scan — at
/// the cost of ceil(range/slide) copies per tuple. Included as the
/// comparison point for the Ablation A bench.

namespace spear {

/// \brief Per-window buffers keyed by window start.
class MultiBufferWindowManager : public WindowManager {
 public:
  explicit MultiBufferWindowManager(WindowSpec spec) : spec_(spec) {
    SPEAR_CHECK(spec_.IsValid());
  }

  void OnTuple(std::int64_t coord, Tuple tuple) override {
    if (coord < last_watermark_) {
      ++late_tuples_;
      return;
    }
    ForEachWindow(spec_, coord, [&](const WindowBounds& w) {
      buffers_[w.start].push_back(tuple);  // one copy per window
      ++buffered_;
    });
  }

  Result<std::vector<CompleteWindow>> OnWatermark(
      std::int64_t watermark) override {
    std::vector<CompleteWindow> out;
    if (watermark <= last_watermark_) return out;
    last_watermark_ = watermark;
    auto it = buffers_.begin();
    while (it != buffers_.end() && it->first + spec_.range <= watermark) {
      CompleteWindow window;
      window.bounds = WindowBounds{it->first, it->first + spec_.range};
      window.tuples = std::move(it->second);
      buffered_ -= window.tuples.size();
      it = buffers_.erase(it);
      out.push_back(std::move(window));
    }
    return out;
  }

  std::size_t BufferedTuples() const override { return buffered_; }

  std::size_t MemoryBytes() const override {
    std::size_t total = 0;
    for (const auto& [start, tuples] : buffers_) {
      for (const auto& t : tuples) total += t.ByteSize();
    }
    return total;
  }

  std::uint64_t late_tuples() const override { return late_tuples_; }

  std::size_t active_windows() const { return buffers_.size(); }

 private:
  const WindowSpec spec_;
  std::map<std::int64_t, std::vector<Tuple>> buffers_;
  std::size_t buffered_ = 0;
  std::int64_t last_watermark_ = kMinTimestamp;
  std::uint64_t late_tuples_ = 0;
};

}  // namespace spear
