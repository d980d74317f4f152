#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/time.h"

/// \file blocking_queue.h
/// Bounded multi-producer multi-consumer queue used between runtime workers.
/// Bounding the queue is what gives the engine back-pressure: a fast
/// upstream stage blocks in Push() until the downstream drains.
///
/// The batch API (PushAll/PopAll/TryPopAll) moves many items under a single
/// lock acquisition and notification, amortizing the per-element channel
/// cost that otherwise dominates light stages. Storage is a FIFO of batch
/// nodes (vectors), so the common case — a producer's whole batch handed to
/// a consumer asking for at least as much — transfers ownership of one
/// vector in O(1) with zero per-element moves. Batches count element-wise
/// against the capacity, so back-pressure is unchanged: a batch larger than
/// the remaining room is enqueued in chunks as the consumer drains (the one
/// path that does pay per-element moves). Single-element Push() appends to
/// an open tail node, matching the historical per-tuple cost profile.
///
/// Two rules keep the handoff from costing a context switch per batch:
/// - A producer that finds the queue full parks until a quarter of it is
///   free (size <= resume_mark()), and consumers signal it only when a take
///   crosses that mark while a producer is parked. A saturated queue thus
///   wakes its producer once per capacity/4 items, not once per pop, yet
///   still reads >= 3/4 full at every pop, so occupancy-based overload
///   detection (shed above a 0.75 high watermark) keeps its signal.
/// - Batch storage circulates. A whole-node PopAll keeps the consumer's
///   drained vector (cleared, capacity kept) as a spare, and the next
///   whole-batch PushAll hands a spare back to its producer, so a steady
///   producer/consumer pair stops allocating on one thread and freeing on
///   the other.

namespace spear {

/// \brief Bounded MPMC blocking queue with close semantics.
///
/// After Close(), Push() returns false and Pop() drains remaining items
/// then returns std::nullopt.
template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity)
      : capacity_(capacity),
        resume_mark_(capacity -
                     std::min(capacity,
                              std::max<std::size_t>(1, capacity / 4))) {}

  /// Blocks until space is available. Returns false iff the queue closed.
  /// When `blocked_ns` is non-null, time spent waiting for room (the
  /// back-pressure stall) is added to it; the unblocked fast path never
  /// reads the clock.
  bool Push(T item, std::int64_t* blocked_ns = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    WaitForRoomLocked(lock, blocked_ns);
    if (closed_) return false;
    AppendLocked(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Control push: enqueues without waiting for capacity. Control elements
  /// (watermarks, flush markers) are rare — bounded by the watermark
  /// cadence, not the data rate — and must not sit behind a saturated data
  /// queue, so they get reserved headroom: the queue may transiently exceed
  /// `capacity()` by the in-flight control elements, and data producers
  /// keep blocking until the overflow drains. Returns false iff closed.
  bool PushControl(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return false;
    AppendLocked(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Moves every item of `items` into the queue under as few lock
  /// acquisitions as capacity allows. When the whole batch fits the
  /// remaining capacity, its vector is handed to the queue as one node —
  /// one lock acquisition, one notify, no per-element work. Blocks for
  /// room like Push; a batch larger than the remaining capacity is
  /// enqueued in FIFO chunks as the consumer drains. `items` is left
  /// empty afterwards. After a whole-batch handoff it holds a spare
  /// vector a consumer returned, when the queue has one, so its capacity
  /// may be nonzero or zero: reserve() before refilling it, which costs
  /// nothing once storage circulates. Returns false iff the queue closed
  /// before the whole batch was enqueued (any un-enqueued remainder is
  /// dropped). `blocked_ns` accumulates back-pressure stall time as in
  /// Push().
  bool PushAll(std::vector<T>&& items, std::int64_t* blocked_ns = nullptr) {
    if (items.empty()) return true;
    std::size_t next = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      WaitForRoomLocked(lock, blocked_ns);
      if (closed_) {
        lock.unlock();
        items.clear();
        return false;
      }
      const std::size_t room = capacity_ - count_;
      const std::size_t remaining = items.size() - next;
      if (next == 0 && remaining <= room) {
        // Whole-batch handoff: the vector itself becomes a queue node, and
        // a consumer's spare takes its place in the producer's hands.
        count_ += remaining;
        nodes_.push_back(std::move(items));
        back_open_ = false;
        items.clear();
        if (!spares_.empty()) {
          items.swap(spares_.back());
          spares_.pop_back();
        }
        lock.unlock();
        // One batch can satisfy several blocked consumers.
        not_empty_.notify_all();
        return true;
      }
      // Back-pressure: peel off as many elements as fit and keep waiting.
      const std::size_t take = std::min(room, remaining);
      std::vector<T> chunk;
      chunk.reserve(take);
      chunk.insert(chunk.end(),
                   std::make_move_iterator(
                       items.begin() + static_cast<std::ptrdiff_t>(next)),
                   std::make_move_iterator(
                       items.begin() +
                       static_cast<std::ptrdiff_t>(next + take)));
      count_ += take;
      nodes_.push_back(std::move(chunk));
      back_open_ = false;
      next += take;
      lock.unlock();
      not_empty_.notify_all();
      if (next == items.size()) break;
      lock.lock();
    }
    items.clear();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed.
  bool TryPush(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_ || count_ >= capacity_) return false;
    AppendLocked(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || count_ > 0; });
    if (count_ == 0) return std::nullopt;
    T item = TakeOneLocked();
    WakeProducersAndUnlock(std::move(lock));
    return item;
  }

  /// Blocks until at least one item is available (or the queue is closed
  /// and drained), then moves up to `max` items into `*out` under one lock
  /// acquisition — O(1) when `*out` is empty and the front node fits in
  /// `max` (the node's vector is handed over whole). Returns the number of
  /// items appended; 0 means closed and fully drained — the batch analogue
  /// of Pop() returning nullopt.
  std::size_t PopAll(std::vector<T>* out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || count_ > 0; });
    return DrainLocked(std::move(lock), out, max);
  }

  /// Non-blocking PopAll: moves up to `max` immediately-available items
  /// into `*out`; returns the number appended (0 when empty).
  std::size_t TryPopAll(std::vector<T>* out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    return DrainLocked(std::move(lock), out, max);
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ == 0) return std::nullopt;
    T item = TakeOneLocked();
    WakeProducersAndUnlock(std::move(lock));
    return item;
  }

  /// Closes the queue: producers fail fast, consumers drain then stop.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Unconsumed elements. Can transiently exceed capacity() by in-flight
  /// PushControl() elements.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  std::size_t capacity() const { return capacity_; }

  /// Occupancy a parked producer waits for before it resumes:
  /// capacity - max(1, capacity/4), always below capacity().
  std::size_t resume_mark() const { return resume_mark_; }

  /// Producers currently parked on a full queue.
  std::size_t parked_producers() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return parked_producers_;
  }

 private:
  /// Bound on nodes grown element-wise by Push (keeps the drain latency of
  /// a singles-only producer similar to the historical deque).
  static constexpr std::size_t kAppendNodeCap = 64;
  /// Spare batch vectors kept for producers: enough for a few producers
  /// sharing the queue, small enough that idle storage stays bounded.
  static constexpr std::size_t kMaxSpares = 4;

  /// Returns when the queue has room or is closed. A producer that finds
  /// it full parks until the occupancy falls to resume_mark(), timing the
  /// wait into `*blocked_ns` when requested. The predicate is checked
  /// before any clock read, so an unblocked push costs nothing extra.
  void WaitForRoomLocked(std::unique_lock<std::mutex>& lock,
                         std::int64_t* blocked_ns) {
    if (closed_ || count_ < capacity_) return;
    const std::int64_t start = blocked_ns != nullptr ? NowNs() : 0;
    ++parked_producers_;
    not_full_.wait(lock, [&] { return closed_ || count_ <= resume_mark_; });
    --parked_producers_;
    if (blocked_ns != nullptr) *blocked_ns += NowNs() - start;
  }

  /// Ends a take: releases `lock`, then wakes the parked producers iff the
  /// take left the occupancy at or below the resume mark. Every pop path
  /// ends here, so a parked producer misses no crossing.
  void WakeProducersAndUnlock(std::unique_lock<std::mutex> lock) {
    const bool wake = parked_producers_ > 0 && count_ <= resume_mark_;
    lock.unlock();
    if (wake) not_full_.notify_all();
  }

  void AppendLocked(T item) {
    if (nodes_.empty() || !back_open_ ||
        nodes_.back().size() >= kAppendNodeCap) {
      nodes_.emplace_back();
      nodes_.back().reserve(std::min(kAppendNodeCap, capacity_));
      back_open_ = true;
    }
    nodes_.back().push_back(std::move(item));
    ++count_;
  }

  T TakeOneLocked() {
    std::vector<T>& front = nodes_.front();
    T item = std::move(front[front_pos_]);
    ++front_pos_;
    --count_;
    if (front_pos_ == front.size()) {
      nodes_.pop_front();
      front_pos_ = 0;
    }
    return item;
  }

  /// Moves up to `max` items into `*out`, then wakes parked producers as
  /// WakeProducersAndUnlock decides (a multi-slot drain can unblock
  /// several of them).
  std::size_t DrainLocked(std::unique_lock<std::mutex> lock,
                          std::vector<T>* out, std::size_t max) {
    std::size_t take = 0;
    if (out->empty() && front_pos_ == 0 && !nodes_.empty() &&
        nodes_.front().size() <= max) {
      // Whole-node handoff: no per-element moves. The consumer's empty
      // vector becomes a spare for the next PushAll instead of being
      // freed here, far from the producer that allocated it.
      out->swap(nodes_.front());
      if (nodes_.front().capacity() > 0 && spares_.size() < kMaxSpares) {
        spares_.push_back(std::move(nodes_.front()));
      }
      nodes_.pop_front();
      take = out->size();
      count_ -= take;
    } else {
      take = std::min(max, count_);
      for (std::size_t k = 0; k < take; ++k) {
        out->push_back(TakeOneLocked());
      }
    }
    WakeProducersAndUnlock(std::move(lock));
    return take;
  }

  const std::size_t capacity_;
  const std::size_t resume_mark_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  /// FIFO of batch nodes; elements [front_pos_, size) of the front node
  /// are the queue's head. count_ is the total unconsumed elements.
  std::deque<std::vector<T>> nodes_;
  std::size_t front_pos_ = 0;
  std::size_t count_ = 0;
  /// True while the back node may still be grown by Push().
  bool back_open_ = false;
  /// Producers waiting in WaitForRoomLocked for the resume mark.
  std::size_t parked_producers_ = 0;
  /// Empty vectors with capacity, drained by consumers, waiting to be
  /// handed back to a producer by PushAll (at most kMaxSpares).
  std::vector<std::vector<T>> spares_;
  bool closed_ = false;
};

}  // namespace spear
