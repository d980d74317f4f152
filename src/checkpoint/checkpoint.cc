#include "checkpoint/checkpoint.h"

#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "checkpoint/wire.h"
#include "common/logging.h"

namespace spear {

namespace {

/// "SPCK" little-endian: snapshot files are self-identifying.
constexpr std::uint32_t kSnapshotMagic = 0x4B435053;
constexpr std::uint32_t kSnapshotVersion = 1;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the bytewise table; tables[s][n] is
/// the CRC of byte n followed by s zero bytes.
CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = tables[s - 1][n];
      tables[s][n] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(const std::string& data) {
  return Crc32(data.data(), data.size());
}

std::uint32_t Crc32(const char* data, std::size_t size) {
  static const CrcTables t = BuildCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  // Eight bytes per step, same checksum as the bytewise loop below.
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodeSnapshot(const CheckpointSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.payload.size() + snapshot.stage.size() + 64);
  wire::AppendU32(&out, kSnapshotMagic);
  wire::AppendU32(&out, kSnapshotVersion);
  wire::AppendString(&out, snapshot.stage);
  wire::AppendU32(&out, static_cast<std::uint32_t>(snapshot.task));
  wire::AppendU64(&out, snapshot.sequence);
  wire::AppendI64(&out, snapshot.watermark);
  wire::AppendU64(&out, snapshot.source_offset);
  wire::AppendString(&out, snapshot.payload);
  wire::AppendU32(&out, Crc32(out));
  return out;
}

Result<CheckpointSnapshot> DecodeSnapshot(const std::string& bytes) {
  if (bytes.size() < 4) {
    return Status::Invalid("checkpoint: snapshot shorter than its checksum");
  }
  // Validate the trailer before trusting any field. The body is read in
  // place; only the payload is copied out.
  const std::size_t body_size = bytes.size() - 4;
  const std::uint32_t stored_crc = LoadLe32(
      reinterpret_cast<const unsigned char*>(bytes.data()) + body_size);
  if (stored_crc != Crc32(bytes.data(), body_size)) {
    return Status::Invalid("checkpoint: checksum mismatch (corrupt snapshot)");
  }

  wire::Reader reader(bytes, body_size);
  SPEAR_ASSIGN_OR_RETURN(const std::uint32_t magic, reader.ReadU32());
  if (magic != kSnapshotMagic) {
    return Status::Invalid("checkpoint: bad magic (not a snapshot)");
  }
  CheckpointSnapshot snapshot;
  SPEAR_ASSIGN_OR_RETURN(snapshot.version, reader.ReadU32());
  if (snapshot.version != kSnapshotVersion) {
    return Status::Invalid("checkpoint: unsupported snapshot version " +
                           std::to_string(snapshot.version));
  }
  SPEAR_ASSIGN_OR_RETURN(snapshot.stage, reader.ReadString());
  SPEAR_ASSIGN_OR_RETURN(const std::uint32_t task, reader.ReadU32());
  snapshot.task = static_cast<int>(task);
  SPEAR_ASSIGN_OR_RETURN(snapshot.sequence, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(snapshot.watermark, reader.ReadI64());
  SPEAR_ASSIGN_OR_RETURN(snapshot.source_offset, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(snapshot.payload, reader.ReadString());
  if (!reader.exhausted()) {
    return Status::Invalid("checkpoint: trailing bytes after snapshot");
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// InMemoryCheckpointStore
// ---------------------------------------------------------------------------

Status InMemoryCheckpointStore::Put(const CheckpointSnapshot& snapshot) {
  std::string encoded = EncodeSnapshot(snapshot);
  std::lock_guard<std::mutex> lock(mutex_);
  Generations& gen = snapshots_[{snapshot.stage, snapshot.task}];
  gen.previous = std::move(gen.current);
  gen.current = std::move(encoded);
  ++puts_;
  return Status::OK();
}

Result<CheckpointSnapshot> InMemoryCheckpointStore::Latest(
    const std::string& stage, int task) {
  std::string current, previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = snapshots_.find({stage, task});
    if (it == snapshots_.end()) {
      return Status::NotFound("checkpoint: no snapshot for worker '" + stage +
                              "/" + std::to_string(task) + "'");
    }
    current = it->second.current;
    previous = it->second.previous;
  }
  if (Result<CheckpointSnapshot> snap = DecodeSnapshot(current); snap.ok()) {
    return snap;
  }
  if (!previous.empty()) {
    if (Result<CheckpointSnapshot> snap = DecodeSnapshot(previous);
        snap.ok()) {
      return snap;
    }
  }
  return Status::NotFound("checkpoint: no valid snapshot for worker '" +
                          stage + "/" + std::to_string(task) + "'");
}

std::uint64_t InMemoryCheckpointStore::puts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return puts_;
}

void InMemoryCheckpointStore::CorruptLatestForTesting(const std::string& stage,
                                                      int task) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = snapshots_.find({stage, task});
  if (it == snapshots_.end() || it->second.current.empty()) return;
  // Flip a byte in the middle (the payload region), not the trailer, so
  // the corruption models bit rot rather than a truncated write.
  std::string& bytes = it->second.current;
  bytes[bytes.size() / 2] = static_cast<char>(~bytes[bytes.size() / 2]);
}

// ---------------------------------------------------------------------------
// FileCheckpointStore
// ---------------------------------------------------------------------------

namespace {

namespace fs = std::filesystem;

/// Stage names become file names; keep them path-safe.
std::string SanitizeForFilename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out;
}

Result<std::string> ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("checkpoint: cannot open " + path.string());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IOError("checkpoint: read failed for " + path.string());
  }
  return bytes;
}

}  // namespace

FileCheckpointStore::FileCheckpointStore(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  SPEAR_CHECK(!ec);
}

std::string FileCheckpointStore::PathFor(const std::string& stage,
                                         int task) const {
  return (fs::path(directory_) /
          (SanitizeForFilename(stage) + "-" + std::to_string(task) + ".ckpt"))
      .string();
}

Status FileCheckpointStore::Put(const CheckpointSnapshot& snapshot) {
  const std::string encoded = EncodeSnapshot(snapshot);
  const fs::path path(PathFor(snapshot.stage, snapshot.task));
  const fs::path prev = path.string() + ".prev";
  const fs::path tmp = path.string() + ".tmp";

  std::lock_guard<std::mutex> lock(mutex_);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("checkpoint: cannot create " + tmp.string());
    }
    out.write(encoded.data(),
              static_cast<std::streamsize>(encoded.size()));
    out.flush();
    if (!out) {
      return Status::IOError("checkpoint: write failed for " + tmp.string());
    }
  }
  std::error_code ec;
  // Demote the previous generation, then atomically publish the new one;
  // an interrupted Put leaves either the old current or the old prev
  // intact, never a half-written current.
  if (fs::exists(path, ec)) {
    fs::rename(path, prev, ec);
    if (ec) {
      return Status::IOError("checkpoint: rotate failed for " +
                             path.string() + ": " + ec.message());
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("checkpoint: publish failed for " + path.string() +
                           ": " + ec.message());
  }
  return Status::OK();
}

Result<CheckpointSnapshot> FileCheckpointStore::Latest(
    const std::string& stage, int task) {
  const fs::path path(PathFor(stage, task));
  const fs::path prev = path.string() + ".prev";

  std::lock_guard<std::mutex> lock(mutex_);
  for (const fs::path& candidate : {path, prev}) {
    Result<std::string> bytes = ReadFileBytes(candidate);
    if (!bytes.ok()) continue;
    Result<CheckpointSnapshot> snap = DecodeSnapshot(*bytes);
    if (snap.ok()) return snap;
  }
  return Status::NotFound("checkpoint: no valid snapshot file for worker '" +
                          stage + "/" + std::to_string(task) + "'");
}

}  // namespace spear
