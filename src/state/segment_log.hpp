// On-disk format of the log-structured state backend (log_state.hpp):
// append-only segment files holding magic-tagged, CRC'd put/tombstone
// records, plus the manifest a checkpoint of a LogState bin serializes
// instead of a whole-value snapshot.
//
//   segment file := u64 file_magic | record*
//   record       := u32 rec_magic | u8 type | u64 key_len | u64 val_len
//                 | key bytes | val bytes | u32 crc
//   type         := 1 put | 2 tombstone (val_len must be 0)
//   crc          := FNV-1a/32 over [type .. val bytes] (same fold as the
//                   mesh frame checksum — torn writes and injected
//                   corruption, not adversaries)
//
// Key and value bytes are the serde encodings of K and V, so replaying a
// segment needs no schema beyond the backend's own type parameters. Every
// malformed input — truncation anywhere, a flipped bit, a bad magic —
// decodes to SerdeError, never UB: segment files cross process lifetimes
// (checkpoints) and machines' crash behavior, so they get the same
// hostile-input discipline as network frames.
//
// File management: segments are written through POSIX fds (append via
// write(), point lookups via pread()) so reads need no seek state and no
// stdio buffering; compaction and checkpoint copies publish files with
// the tmp+rename ritual of checkpoint.hpp, so a reader never observes a
// half-written published file.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/serde.hpp"

namespace megaphone {
namespace state {

constexpr uint64_t kSegmentFileMagic = 0x31474f4c4147454dULL;  // "MEGALOG1"
constexpr uint32_t kSegmentRecordMagic = 0x4345524cu;          // "LREC"
constexpr uint8_t kSegmentRecordPut = 1;
constexpr uint8_t kSegmentRecordTombstone = 2;
/// u32 magic + u8 type + u64 key_len + u64 val_len.
constexpr size_t kSegmentRecordHeaderBytes = 21;
constexpr size_t kSegmentFileHeaderBytes = 8;

/// One decoded segment record. `key`/`value` hold the serde encodings of
/// K and V (the value is empty for tombstones).
struct SegmentRecord {
  uint8_t type = kSegmentRecordPut;
  std::vector<uint8_t> key;
  std::vector<uint8_t> value;
};

/// Total on-disk footprint of a record with the given payload sizes.
inline uint64_t SegmentRecordBytes(size_t key_len, size_t val_len) {
  return kSegmentRecordHeaderBytes + key_len + val_len + sizeof(uint32_t);
}

/// Encodes one record (header, payload, CRC) into a contiguous buffer
/// appended to `out`. Returns the offset of the value bytes relative to
/// the start of this record.
inline uint64_t AppendSegmentRecord(std::vector<uint8_t>& out, uint8_t type,
                                    const std::vector<uint8_t>& key,
                                    const std::vector<uint8_t>& value) {
  MEGA_DCHECK(type != kSegmentRecordTombstone || value.empty());
  size_t base = out.size();
  out.resize(base + SegmentRecordBytes(key.size(), value.size()));
  uint8_t* p = out.data() + base;
  std::memcpy(p, &kSegmentRecordMagic, 4);
  p[4] = type;
  uint64_t klen = key.size(), vlen = value.size();
  std::memcpy(p + 5, &klen, 8);
  std::memcpy(p + 13, &vlen, 8);
  if (klen) std::memcpy(p + 21, key.data(), klen);
  if (vlen) std::memcpy(p + 21 + klen, value.data(), vlen);
  // FNV-1a folded to 32 bits over type..value.
  Fnv1a ck;
  ck.Update(p + 4, kSegmentRecordHeaderBytes - 4 + klen + vlen);
  uint32_t crc = ck.Fold32();
  std::memcpy(p + 21 + klen + vlen, &crc, 4);
  return kSegmentRecordHeaderBytes + klen;
}

/// Decodes one record off `r`, validating magic, type, lengths and CRC.
/// Throws SerdeError on any malformation (a torn tail, a flipped bit).
inline SegmentRecord DecodeSegmentRecord(Reader& r) {
  uint32_t magic;
  r.ReadBytes(&magic, 4);
  if (magic != kSegmentRecordMagic) {
    throw SerdeError("segment: bad record magic");
  }
  SegmentRecord rec;
  uint64_t klen, vlen;
  r.ReadBytes(&rec.type, 1);
  r.ReadBytes(&klen, 8);
  r.ReadBytes(&vlen, 8);
  if (rec.type != kSegmentRecordPut && rec.type != kSegmentRecordTombstone) {
    throw SerdeError("segment: unknown record type");
  }
  if (rec.type == kSegmentRecordTombstone && vlen != 0) {
    throw SerdeError("segment: tombstone with value bytes");
  }
  if (klen > r.remaining() || vlen > r.remaining() - klen ||
      r.remaining() - klen - vlen < sizeof(uint32_t)) {
    throw SerdeError("segment: truncated record");
  }
  rec.key.resize(klen);
  r.ReadBytes(rec.key.data(), klen);
  rec.value.resize(vlen);
  r.ReadBytes(rec.value.data(), vlen);
  uint32_t crc;
  r.ReadBytes(&crc, 4);
  Fnv1a ck;  // field by field: the Reader has no contiguous span
  ck.Update(&rec.type, 1);
  ck.Update(&klen, 8);
  ck.Update(&vlen, 8);
  ck.Update(rec.key.data(), klen);
  ck.Update(rec.value.data(), vlen);
  if (crc != ck.Fold32()) {
    throw SerdeError("segment: record checksum mismatch");
  }
  return rec;
}

/// Scans a whole segment file image, invoking `fn(record, value_off)` per
/// record with `value_off` the absolute file offset of the value bytes.
/// Throws SerdeError on a bad file magic or any malformed record —
/// rejecting a torn segment outright rather than replaying a prefix.
template <typename Fn>
void ForEachSegmentRecord(const std::vector<uint8_t>& file, Fn&& fn) {
  if (file.size() < kSegmentFileHeaderBytes) {
    throw SerdeError("segment: file shorter than header");
  }
  uint64_t magic;
  std::memcpy(&magic, file.data(), 8);
  if (magic != kSegmentFileMagic) throw SerdeError("segment: bad file magic");
  Reader r(file.data() + kSegmentFileHeaderBytes,
           file.size() - kSegmentFileHeaderBytes);
  while (!r.AtEnd()) {
    size_t start = file.size() - r.remaining();
    SegmentRecord rec = DecodeSegmentRecord(r);
    fn(rec, static_cast<uint64_t>(start + kSegmentRecordHeaderBytes +
                                  rec.key.size()));
  }
}

/// An open segment file: appends through write(), point reads through
/// pread(). Move-only; closes (but never deletes) its fd on destruction —
/// file deletion is the owner's (LogState's) business.
class SegmentFile {
 public:
  SegmentFile() = default;
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;
  SegmentFile(SegmentFile&& o) noexcept
      : fd_(o.fd_), size_(o.size_), path_(std::move(o.path_)) {
    o.fd_ = -1;
    o.size_ = 0;
  }
  SegmentFile& operator=(SegmentFile&& o) noexcept {
    if (this != &o) {
      Close();
      fd_ = o.fd_;
      size_ = o.size_;
      path_ = std::move(o.path_);
      o.fd_ = -1;
      o.size_ = 0;
    }
    return *this;
  }
  ~SegmentFile() { Close(); }

  /// Creates (truncating) a fresh segment file and writes the file magic.
  static SegmentFile Create(const std::string& path) {
    SegmentFile f;
    f.path_ = path;
    f.fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC | O_CLOEXEC,
                   0644);
    MEGA_CHECK(f.fd_ >= 0) << "segment: cannot create " << path;
    uint64_t magic = kSegmentFileMagic;
    f.Append(&magic, sizeof(magic));
    return f;
  }

  /// Opens an existing segment read-only (the restore path). Throws
  /// SerdeError when the file cannot be opened — a missing checkpoint
  /// file is malformed input, not a programming error.
  static SegmentFile OpenRead(const std::string& path) {
    SegmentFile f;
    f.path_ = path;
    f.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (f.fd_ < 0) throw SerdeError("segment: cannot open " + path);
    off_t end = ::lseek(f.fd_, 0, SEEK_END);
    MEGA_CHECK(end >= 0) << "segment: lseek failed on " << path;
    f.size_ = static_cast<uint64_t>(end);
    return f;
  }

  /// Appends raw bytes; returns the file offset they start at.
  uint64_t Append(const void* data, size_t n) {
    uint64_t at = size_;
    const auto* p = static_cast<const uint8_t*>(data);
    size_t done = 0;
    while (done < n) {
      ssize_t w = ::write(fd_, p + done, n - done);
      MEGA_CHECK(w > 0) << "segment: write failed on " << path_;
      done += static_cast<size_t>(w);
    }
    size_ += n;
    return at;
  }

  /// Reads exactly [off, off+n) into `out`. A short read means the file
  /// is torn relative to the index that produced the offset: SerdeError.
  void Pread(uint64_t off, size_t n, std::vector<uint8_t>* out) const {
    out->resize(n);
    Pread(off, n, out->data());
  }
  void Pread(uint64_t off, size_t n, uint8_t* out) const {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, out + done, n - done,
                          static_cast<off_t>(off + done));
      if (r <= 0) throw SerdeError("segment: short read from " + path_);
      done += static_cast<size_t>(r);
    }
  }

  /// Renames the file (the tmp+rename publish of a compaction output);
  /// the open fd survives the rename.
  void PublishAs(const std::string& final_path) {
    std::filesystem::rename(path_, final_path);
    path_ = final_path;
  }

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }
  bool open() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

/// Reads a whole file into memory; SerdeError when it cannot be read
/// (restore from a damaged checkpoint must be catchable, not fatal).
inline std::vector<uint8_t> ReadSegmentBytes(const std::string& path) {
  SegmentFile f = SegmentFile::OpenRead(path);
  std::vector<uint8_t> bytes;
  f.Pread(0, static_cast<size_t>(f.size()), &bytes);
  return bytes;
}

/// Publishes `src`'s current content at `dst`: hard link when the
/// filesystem allows (sealed segments are immutable, so sharing the inode
/// is safe), byte copy otherwise. The copy goes through tmp+rename so a
/// crash never leaves a half-written published file.
inline void LinkOrCopyFile(const std::string& src, const std::string& dst) {
  if (::link(src.c_str(), dst.c_str()) == 0) return;
  std::string tmp = dst + ".tmp";
  std::filesystem::copy_file(src, tmp,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::rename(tmp, dst);
}

/// What a checkpoint of a LogState bin serializes instead of a whole-value
/// snapshot: the directory its segment files were published into, the
/// published segments (id, file name, expected size — a size mismatch at
/// restore rejects a torn link target), and the encoded memtable delta.
struct LogManifest {
  struct Entry {
    uint64_t segment = 0;
    std::string file;
    uint64_t bytes = 0;
    MEGA_SERDE_FIELDS(Entry, segment, file, bytes)
  };
  std::string dir;
  std::vector<Entry> segments;
  std::vector<uint8_t> delta;
  MEGA_SERDE_FIELDS(LogManifest, dir, segments, delta)
};

}  // namespace state
}  // namespace megaphone
