#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

/// \file replay_log.h
/// The bounded replay log of a checkpointing worker (see Executor).

namespace spear {

/// \brief The tuples a worker consumed since its last snapshot, kept so a
/// restored bolt can be re-fed the newest `max_tuples` of them.
///
/// The log holds the popped batches themselves, moved in whole once they
/// ran (a bolt's Execute only reads its tuple), so logging costs no
/// per-tuple copy. `Element` is a channel item with a `kind` member
/// (`Element::Kind::kTuple` for tuples) and a `tuple` member; only tuples
/// are counted and replayed. A snapshot may land inside a batch: the log
/// then restarts at the element after the snapshot's watermark. The log
/// keeps exactly the newest `max_tuples` consumed tuples, trimmed at the
/// front element by element; the older ones are the recovery loss a
/// restore reports (Checkpointable::NoteRecoveryLoss).
template <typename Element>
class ReplayLog {
 public:
  explicit ReplayLog(std::size_t max_tuples) : max_tuples_(max_tuples) {}

  /// A new batch was popped; nothing of it is logged yet.
  void BeginBatch() { batch_begin_ = 0; }

  /// A snapshot was taken at element `at` of the current batch: nothing
  /// consumed up to it needs replaying any more.
  void SnapshotAt(std::size_t at) {
    batches_.clear();
    front_begin_ = 0;
    logged_ = 0;
    dropped_ = 0;
    batch_begin_ = at + 1;
  }

  /// The current batch ran through: it becomes the newest log entry.
  void Keep(std::vector<Element>&& batch) {
    if (batch_begin_ >= batch.size()) return;
    logged_ += TuplesIn(batch, batch_begin_, batch.size());
    if (batches_.empty()) front_begin_ = batch_begin_;
    batches_.push_back(std::move(batch));
    while (logged_ > max_tuples_) {
      const std::vector<Element>& front = batches_.front();
      if (front[front_begin_++].kind == Element::Kind::kTuple) {
        --logged_;
        ++dropped_;
      }
      if (front_begin_ == front.size()) {
        batches_.pop_front();
        front_begin_ = 0;
      }
    }
  }

  /// Calls `fn(tuple)`, in consumption order, for the newest `max_tuples`
  /// tuples consumed since the snapshot: the logged batches, then
  /// `batch[.., end)`, the current batch's consumed prefix. Returns how
  /// many tuples consumed since the snapshot are not replayed.
  template <typename Fn>
  std::uint64_t Replay(const std::vector<Element>& batch, std::size_t end,
                       Fn&& fn) const {
    const std::uint64_t available =
        logged_ + TuplesIn(batch, std::min(batch_begin_, end), end);
    std::uint64_t skip =
        available - std::min<std::uint64_t>(available, max_tuples_);
    const std::uint64_t lost = dropped_ + skip;
    auto feed = [&](const std::vector<Element>& elements, std::size_t from,
                    std::size_t to) {
      for (std::size_t k = from; k < to; ++k) {
        if (elements[k].kind != Element::Kind::kTuple) continue;
        if (skip > 0) {
          --skip;
        } else {
          fn(elements[k].tuple);
        }
      }
    };
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      feed(batches_[b], b == 0 ? front_begin_ : 0, batches_[b].size());
    }
    feed(batch, batch_begin_, end);
    return lost;
  }

 private:
  static std::uint64_t TuplesIn(const std::vector<Element>& elements,
                                std::size_t from, std::size_t to) {
    return static_cast<std::uint64_t>(
        std::count_if(elements.begin() + static_cast<std::ptrdiff_t>(from),
                      elements.begin() + static_cast<std::ptrdiff_t>(to),
                      [](const Element& e) {
                        return e.kind == Element::Kind::kTuple;
                      }));
  }

  const std::size_t max_tuples_;
  std::deque<std::vector<Element>> batches_;
  /// First live element of batches_.front().
  std::size_t front_begin_ = 0;
  /// Tuples in the live part of the log.
  std::uint64_t logged_ = 0;
  /// Tuples trimmed off the front since the snapshot.
  std::uint64_t dropped_ = 0;
  /// First element of the current batch after the last snapshot.
  std::size_t batch_begin_ = 0;
};

}  // namespace spear
