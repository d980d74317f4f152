#include "runtime/window_join_bolt.h"

#include <algorithm>
#include <unordered_map>

#include "common/time.h"

namespace spear {

WindowJoinBolt::WindowJoinBolt(WindowJoinConfig config)
    : config_(std::move(config)) {
  SPEAR_CHECK(config_.window.IsValid());
  SPEAR_CHECK(static_cast<bool>(config_.left_key));
  SPEAR_CHECK(static_cast<bool>(config_.right_key));
}

Status WindowJoinBolt::Prepare(const BoltContext& ctx) {
  metrics_ = ctx.metrics;
  manager_ = std::make_unique<SingleBufferWindowManager>(config_.window);
  return Status::OK();
}

Status WindowJoinBolt::Execute(const Tuple& tuple, Emitter* out) {
  std::int64_t coord;
  if (config_.window.type == WindowType::kCountBased) {
    coord = sequence_++;
  } else {
    coord = tuple.event_time();
  }
  manager_->OnTuple(coord, tuple);
  if (config_.window.type == WindowType::kCountBased) {
    return ProcessWatermark(sequence_, out);
  }
  return Status::OK();
}

Status WindowJoinBolt::OnWatermark(Timestamp watermark, Emitter* out) {
  if (config_.window.type == WindowType::kCountBased) return Status::OK();
  return ProcessWatermark(watermark, out);
}

Status WindowJoinBolt::ProcessWatermark(std::int64_t watermark,
                                        Emitter* out) {
  SPEAR_ASSIGN_OR_RETURN(std::vector<CompleteWindow> staged,
                         manager_->OnWatermark(watermark));
  for (const CompleteWindow& window : staged) {
    std::int64_t join_ns = 0;
    {
      ScopedTimerNs timer(&join_ns);
      // Build on the left side, probe with the right.
      std::unordered_map<std::string, std::vector<const Tuple*>> build;
      for (const Tuple& t : window.tuples) {
        if (t.field(config_.tag_field).AsInt64() == 0) {
          build[config_.left_key(t)].push_back(&t);
        }
      }
      for (const Tuple& t : window.tuples) {
        if (t.field(config_.tag_field).AsInt64() != 0) {
          const std::string key = config_.right_key(t);
          const auto it = build.find(key);
          if (it == build.end()) continue;
          for (const Tuple* left : it->second) {
            std::vector<Value> fields;
            fields.reserve(2 + left->num_fields() + t.num_fields());
            fields.emplace_back(window.bounds.start);
            fields.emplace_back(window.bounds.end);
            fields.emplace_back(key);
            for (std::size_t i = 0; i < left->num_fields(); ++i) {
              if (i == config_.tag_field) continue;
              fields.push_back(left->field(i));
            }
            for (std::size_t i = 0; i < t.num_fields(); ++i) {
              if (i == config_.tag_field) continue;
              fields.push_back(t.field(i));
            }
            out->Emit(Tuple(window.bounds.end, std::move(fields)));
          }
        }
      }
    }
    if (metrics_ != nullptr) metrics_->RecordWindowNs(join_ns);
  }
  return Status::OK();
}

std::vector<Tuple> MergeStreams(const std::vector<Tuple>& left,
                                const std::vector<Tuple>& right) {
  auto tag = [](const Tuple& t, std::int64_t side) {
    std::vector<Value> fields;
    fields.reserve(t.num_fields() + 1);
    fields.emplace_back(side);
    for (std::size_t i = 0; i < t.num_fields(); ++i) {
      fields.push_back(t.field(i));
    }
    return Tuple(t.event_time(), std::move(fields));
  };
  std::vector<Tuple> merged;
  merged.reserve(left.size() + right.size());
  std::size_t l = 0, r = 0;
  while (l < left.size() || r < right.size()) {
    const bool take_left =
        r >= right.size() ||
        (l < left.size() && left[l].event_time() <= right[r].event_time());
    if (take_left) {
      merged.push_back(tag(left[l++], 0));
    } else {
      merged.push_back(tag(right[r++], 1));
    }
  }
  return merged;
}

}  // namespace spear
