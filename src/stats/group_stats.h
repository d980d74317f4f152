#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats/key_dictionary.h"
#include "stats/running_stats.h"

/// \file group_stats.h
/// Per-group frequency + moment tracking for grouped stateful operations.
/// This is what SPEAr stores in the budget b while a window is active
/// (Sec. 4.1, Grouped): each group's frequency and the variance of the
/// aggregated value — the inputs to congress allocation and to per-group
/// accuracy estimation. Memory is bounded by a configurable group capacity;
/// exceeding it makes SPEAr revert to exact processing.
///
/// Groups are addressed by KeyDictionary ids. Each group the tracker sees
/// gets a dense *slot* (0, 1, 2, ... in order of first appearance); the
/// per-group state lives in flat slot-indexed arrays, and an id -> slot
/// array replaces the per-tuple string hash. Every slot holds one
/// reference on its id, released when the tracker is reset or destroyed.

namespace spear {

/// \brief Bounded map: group id -> running statistics of the aggregation
/// value within the current window.
class GroupStatsTracker {
 public:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Stand-alone tracker with a private key dictionary.
  /// \param max_groups capacity ceiling derived from the budget b via
  ///        floor(b / (r + 4 + f)) in the paper's notation; 0 = unlimited.
  explicit GroupStatsTracker(std::size_t max_groups = 0)
      : max_groups_(max_groups),
        owned_keys_(std::make_unique<KeyDictionary>()),
        keys_(owned_keys_.get()) {}

  /// Tracker whose ids come from a shared dictionary (a window manager's),
  /// which must outlive it.
  GroupStatsTracker(std::size_t max_groups, KeyDictionary* keys)
      : max_groups_(max_groups), keys_(keys) {}

  GroupStatsTracker(GroupStatsTracker&& other) noexcept
      : max_groups_(other.max_groups_),
        owned_keys_(std::move(other.owned_keys_)),
        keys_(other.keys_),
        slot_of_(std::move(other.slot_of_)),
        ids_(std::move(other.ids_)),
        stats_(std::move(other.stats_)),
        total_count_(other.total_count_),
        shed_(other.shed_),
        bytes_(other.bytes_),
        overflowed_(other.overflowed_) {
    other.ids_.clear();  // the references moved with the slots
  }
  GroupStatsTracker& operator=(GroupStatsTracker&&) = delete;
  GroupStatsTracker(const GroupStatsTracker&) = delete;
  GroupStatsTracker& operator=(const GroupStatsTracker&) = delete;

  ~GroupStatsTracker() {
    if (!owned_keys_) ReleaseSlots();  // a private dictionary dies with us
  }

  /// Records one observation for group `id` and returns the group's slot.
  /// Returns kNoSlot — leaving the tracker in the overflowed state — when
  /// a *new* group would exceed capacity; existing groups always update.
  std::uint32_t Observe(std::uint32_t id, double value) {
    std::uint32_t slot = SlotOf(id);
    if (slot == kNoSlot) {
      slot = AddSlot(id);
      if (slot == kNoSlot) return kNoSlot;
    }
    stats_[slot].Update(value);
    ++total_count_;
    return slot;
  }

  /// Observe() by id; false when the group overflowed capacity.
  bool Update(std::uint32_t id, double value) {
    return Observe(id, value) != kNoSlot;
  }

  /// Interns `key` in the tracker's dictionary, then updates by id. A
  /// key that is already live needs no reference of its own: a new slot
  /// takes one.
  bool Update(const std::string& key, double value) {
    const std::uint32_t live = keys_->Find(key);
    if (live != KeyDictionary::kNoId) return Update(live, value);
    const std::uint32_t id = keys_->Intern(key);
    const bool ok = Update(id, value);
    keys_->Unref(id);
    return ok;
  }

  /// True when the group cardinality exceeded the budget capacity at some
  /// point in this window; SPEAr must then process exactly.
  bool overflowed() const { return overflowed_; }

  std::size_t num_groups() const { return ids_.size(); }
  std::uint64_t total_count() const { return total_count_; }
  std::size_t max_groups() const { return max_groups_; }

  /// Records `n` window tuples shed at admission before their group key
  /// was extracted. They belong to the window's population but to no
  /// tracked group: per-group frequencies become lower bounds with
  /// inclusion probability total_count/effective_total, and the window
  /// manager folds shed/effective_total into ε̂_w.
  void NoteShed(std::uint64_t n) { shed_ += n; }

  /// Tuples shed upstream of this tracker.
  std::uint64_t shed() const { return shed_; }

  /// Window population the tracked groups stand for: observed + shed.
  std::uint64_t effective_total() const { return total_count_ + shed_; }

  /// Slot of group `id`, or kNoSlot when the tracker has not seen it.
  std::uint32_t SlotOf(std::uint32_t id) const {
    return id < slot_of_.size() ? slot_of_[id] : kNoSlot;
  }

  /// Per-slot accessors; slots are 0 .. num_groups()-1.
  const RunningStats& stats_at(std::size_t slot) const { return stats_[slot]; }
  const std::string& key_at(std::size_t slot) const {
    return keys_->KeyOf(ids_[slot]);
  }

  /// Slots ordered by key: the output order of grouped results. Sorts on
  /// each key's first eight bytes as a big-endian integer (the same order
  /// as std::string's byte-wise compare) and compares whole strings only
  /// on ties, so short keys sort without touching their strings.
  std::vector<std::uint32_t> SlotsByKey() const {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(ids_.size());
    for (std::uint32_t s = 0; s < order.size(); ++s) {
      const std::string& key = key_at(s);
      std::uint64_t prefix = 0;
      std::memcpy(&prefix, key.data(), std::min<std::size_t>(key.size(), 8));
      order[s] = {__builtin_bswap64(prefix), s};
    }
    std::sort(order.begin(), order.end(),
              [this](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return key_at(a.second) < key_at(b.second);
              });
    std::vector<std::uint32_t> slots(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) slots[i] = order[i].second;
    return slots;
  }

  /// Statistics of one group by key (null when absent).
  const RunningStats* Find(const std::string& key) const {
    const std::uint32_t slot = SlotOf(keys_->Find(key));
    return slot == kNoSlot ? nullptr : &stats_[slot];
  }

  /// Frequency of one group (0 when absent).
  std::uint64_t FrequencyOf(const std::string& key) const {
    const RunningStats* stats = Find(key);
    return stats == nullptr ? 0 : stats->count();
  }

  void Reset() {
    ReleaseSlots();
    ids_.clear();
    stats_.clear();
    total_count_ = 0;
    shed_ = 0;
    bytes_ = 0;
    overflowed_ = false;
  }

  /// Checkpoint restore: installs a group's accumulated stats wholesale
  /// (same capacity discipline as Update — a new group beyond capacity
  /// marks overflow and is dropped).
  bool RestoreGroup(const std::string& key, const RunningStats& stats) {
    const std::uint32_t id = keys_->Intern(key);
    std::uint32_t slot = SlotOf(id);
    if (slot == kNoSlot) slot = AddSlot(id);
    keys_->Unref(id);
    if (slot == kNoSlot) return false;
    stats_[slot] = stats;
    total_count_ += stats.count();
    return true;
  }

  /// Checkpoint restore: the snapshotted tracker had overflowed.
  void MarkOverflowed() { overflowed_ = true; }

  /// Estimated bytes consumed, for budget accounting: per group the paper
  /// charges r (key) + 4 (frequency) + f (variance accumulator) bytes.
  /// Kept as a running total, so reading it is O(1).
  std::size_t EstimatedBytes() const { return bytes_; }

 private:
  std::uint32_t AddSlot(std::uint32_t id) {
    if (overflowed_ || (max_groups_ != 0 && ids_.size() >= max_groups_)) {
      overflowed_ = true;
      return kNoSlot;
    }
    if (id >= slot_of_.size()) {
      slot_of_.resize(std::max<std::size_t>(keys_->id_bound(), id + 1),
                      kNoSlot);
    }
    const auto slot = static_cast<std::uint32_t>(ids_.size());
    slot_of_[id] = slot;
    ids_.push_back(id);
    stats_.emplace_back();
    keys_->Ref(id);
    bytes_ += keys_->KeyOf(id).size() + 4 + sizeof(double);
    return slot;
  }

  /// Clears the id -> slot index and drops the slots' id references.
  void ReleaseSlots() {
    for (const std::uint32_t id : ids_) {
      slot_of_[id] = kNoSlot;
      keys_->Unref(id);
    }
  }

  const std::size_t max_groups_;
  std::unique_ptr<KeyDictionary> owned_keys_;  ///< stand-alone trackers only
  KeyDictionary* keys_;
  std::vector<std::uint32_t> slot_of_;  ///< id -> slot (kNoSlot when absent)
  std::vector<std::uint32_t> ids_;      ///< slot -> id
  std::vector<RunningStats> stats_;     ///< slot -> moments
  std::uint64_t total_count_ = 0;
  std::uint64_t shed_ = 0;
  std::size_t bytes_ = 0;
  bool overflowed_ = false;
};

}  // namespace spear
