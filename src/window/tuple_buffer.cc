#include "window/tuple_buffer.h"

#include <algorithm>
#include <utility>

namespace spear {

TupleBuffer::TupleBuffer(std::size_t memory_capacity,
                         SecondaryStorage* storage, std::string spill_key,
                         RetryPolicy retry, std::uint64_t retry_seed)
    : memory_capacity_(memory_capacity),
      storage_(storage),
      spill_key_(std::move(spill_key)),
      retry_(retry),
      retry_seed_(retry_seed) {
  SPEAR_CHECK(memory_capacity_ == 0 || storage_ != nullptr);
}

template <typename Op>
Status TupleBuffer::Retried(std::uint64_t salt, Op&& op) {
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  const Status status =
      RetryTransient(retry_, retry_seed_ ^ (spill_seq_ + salt),
                     std::forward<Op>(op), &retries, &recovered);
  if (retry_hook_ && (retries != 0 || recovered != 0)) {
    retry_hook_(retries, recovered);
  }
  return status;
}

TupleBuffer::Custody TupleBuffer::Append(std::int64_t coord, Tuple tuple,
                                         std::uint32_t key_id) {
  if (memory_capacity_ == 0 || memory_size_ < memory_capacity_) {
    PushMemory(coord, std::move(tuple), key_id);
    return Custody::kMemory;
  }
  Tuple payload = std::move(tuple);
  payload.AppendField(Value(payload.event_time()));
  payload.set_event_time(coord);
  const std::string key = RunKey();
  if (Retried(0x5702EULL, [&] { return storage_->Store(key, payload); })
          .ok()) {
    spilled_coords_.push_back(coord);
    spilled_max_coord_ = std::max(spilled_max_coord_, coord);
    if (keys_ != nullptr) keys_->Unref(key_id);  // re-interned on fetch
    return Custody::kSpilled;
  }
  // S stayed unavailable: keep the tuple in memory past the budget rather
  // than lose it — degraded custody, not data loss.
  ++spill_failures_;
  payload.set_event_time(payload.PopField().AsInt64());
  PushMemory(coord, std::move(payload), key_id);
  return Custody::kSpillFailed;
}

void TupleBuffer::PushMemory(std::int64_t coord, Tuple tuple,
                             std::uint32_t key_id) {
  if (chunks_.empty() || chunks_.back().entries.size() == kChunkTuples) {
    chunks_.emplace_back().entries.reserve(kChunkTuples);
    if (keys_ != nullptr) chunks_.back().keys.reserve(kChunkTuples);
  }
  Chunk& chunk = chunks_.back();
  chunk.entries.push_back(Entry{coord, std::move(tuple)});
  if (keys_ != nullptr) chunk.keys.push_back(key_id);
  chunk.min_coord = std::min(chunk.min_coord, coord);
  chunk.max_coord = std::max(chunk.max_coord, coord);
  ++memory_size_;
}

Status TupleBuffer::Unspill() {
  if (spilled_coords_.empty()) return Status::OK();
  const std::string key = RunKey();
  Result<std::vector<Tuple>> run = std::vector<Tuple>();
  SPEAR_RETURN_NOT_OK(Retried(0xD0D0ULL, [&] {
    run = storage_->Get(key);
    return run.status();
  }));
  for (Tuple& t : *run) {
    const std::int64_t coord = t.event_time();
    t.set_event_time(t.PopField().AsInt64());
    // Open windows that hold this key keep its id alive, so re-interning
    // finds the id their trackers were built with.
    const std::uint32_t key_id = keys_ != nullptr
                                     ? keys_->Intern(key_extractor_(t))
                                     : KeyDictionary::kNoId;
    PushMemory(coord, std::move(t), key_id);
  }
  DropRun();
  return Status::OK();
}

void TupleBuffer::DropRun() {
  storage_->Erase(RunKey());
  ++spill_seq_;
  spilled_coords_.clear();
  spilled_max_coord_ = kMinTimestamp;
}

std::size_t TupleBuffer::EvictBelow(std::int64_t cutoff) {
  std::size_t evicted = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    Chunk& chunk = chunks_[i];
    if (chunk.max_coord < cutoff) {
      // Wholly expired: freed when its slot is overwritten or trimmed.
      evicted += chunk.entries.size();
      ReleaseKeys(chunk);
      continue;
    }
    if (chunk.min_coord < cutoff) evicted += Compact(&chunk, cutoff);
    if (kept != i) chunks_[kept] = std::move(chunk);
    ++kept;
  }
  chunks_.resize(kept);
  memory_size_ -= evicted;
  if (!spilled_coords_.empty() && spilled_max_coord_ < cutoff) DropRun();
  return evicted;
}

std::size_t TupleBuffer::Compact(Chunk* chunk, std::int64_t cutoff) {
  std::size_t out = 0;
  chunk->min_coord = kMaxTimestamp;
  chunk->max_coord = kMinTimestamp;
  for (std::size_t i = 0; i < chunk->entries.size(); ++i) {
    const std::int64_t coord = chunk->entries[i].coord;
    if (coord < cutoff) {
      if (keys_ != nullptr) keys_->Unref(chunk->keys[i]);
      continue;
    }
    if (out != i) {
      chunk->entries[out] = std::move(chunk->entries[i]);
      if (keys_ != nullptr) chunk->keys[out] = chunk->keys[i];
    }
    chunk->min_coord = std::min(chunk->min_coord, coord);
    chunk->max_coord = std::max(chunk->max_coord, coord);
    ++out;
  }
  const std::size_t dropped = chunk->entries.size() - out;
  chunk->entries.resize(out);
  if (keys_ != nullptr) chunk->keys.resize(out);
  return dropped;
}

void TupleBuffer::ReleaseKeys(const Chunk& chunk) {
  if (keys_ == nullptr) return;
  for (const std::uint32_t id : chunk.keys) keys_->Unref(id);
}

void TupleBuffer::Clear() {
  for (const Chunk& chunk : chunks_) ReleaseKeys(chunk);
  chunks_.clear();
  memory_size_ = 0;
  if (!spilled_coords_.empty()) DropRun();
}

void TupleBuffer::ResumeFrom(std::uint64_t spill_seq,
                             std::uint64_t spill_failures, bool had_run) {
  Clear();
  spill_seq_ = spill_seq;
  spill_failures_ = spill_failures;
  if (had_run && storage_ != nullptr) DropRun();
}

std::size_t TupleBuffer::MemoryBytes() const {
  std::size_t total = 0;
  for (const Chunk& chunk : chunks_) {
    for (const Entry& e : chunk.entries) total += e.tuple.ByteSize();
  }
  return total;
}

}  // namespace spear
