#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

/// \file key_dictionary.h
/// Dense integer ids for group keys. A grouped operator hashes a tuple's
/// key string once, on arrival; from then on every per-window structure
/// (group stats slots, per-group reservoirs, the stratified-sample scan)
/// indexes flat arrays by id instead of re-hashing the string.
///
/// Ids are reference-counted. Whoever holds an id (a buffered tuple, a
/// window's group slot) holds one reference; when the last one goes, the
/// key is forgotten and its id returns to a free list for reuse. The
/// dictionary is therefore bounded by the keys that are live right now,
/// not by every key a long run has seen (routes that rotate out of a
/// stream release their ids once their windows close).

namespace spear {

/// \brief Reference-counted key string <-> dense uint32 id map.
class KeyDictionary {
 public:
  static constexpr std::uint32_t kNoId =
      std::numeric_limits<std::uint32_t>::max();

  KeyDictionary() = default;
  KeyDictionary(const KeyDictionary&) = delete;
  KeyDictionary& operator=(const KeyDictionary&) = delete;

  /// Returns the id of `key`, adding it when new, and takes one reference
  /// on it for the caller. The key is copied only when it is new.
  std::uint32_t Intern(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      std::uint32_t id;
      if (free_.empty()) {
        id = static_cast<std::uint32_t>(keys_.size());
        keys_.push_back(nullptr);
        refs_.push_back(0);
      } else {
        id = free_.back();
        free_.pop_back();
      }
      it = index_.emplace(key, id).first;
      keys_[id] = &it->first;  // node keys never move
    }
    ++refs_[it->second];
    return it->second;
  }

  /// Takes one more reference on a live id.
  void Ref(std::uint32_t id) { ++refs_[id]; }

  /// Drops one reference; the last one frees the id for reuse.
  void Unref(std::uint32_t id) {
    if (--refs_[id] != 0) return;
    index_.erase(index_.find(*keys_[id]));
    keys_[id] = nullptr;
    free_.push_back(id);
  }

  /// The key of a live id.
  const std::string& KeyOf(std::uint32_t id) const { return *keys_[id]; }

  /// The id of `key`, or kNoId when it is not live.
  std::uint32_t Find(const std::string& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? kNoId : it->second;
  }

  /// Keys currently live (at least one reference).
  std::size_t live() const { return index_.size(); }

  /// Every id ever handed out is below this bound; arrays indexed by id
  /// size themselves to it. It only grows when more keys are live at once
  /// than ever before.
  std::size_t id_bound() const { return keys_.size(); }

 private:
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<const std::string*> keys_;  ///< id -> key (null when free)
  std::vector<std::uint32_t> refs_;       ///< id -> reference count
  std::vector<std::uint32_t> free_;       ///< ids ready for reuse
};

}  // namespace spear
