// LogState: the spill-to-disk, log-structured state backend.
//
// Every other backend in src/state/ is RAM-resident, so bin size is
// bounded by memory and a whole-value checkpoint materializes every key.
// LogState bounds memory instead: keys and values live in append-only
// segment files (format in segment_log.hpp), RAM holds only
//
//   * a bounded write-back memtable (key -> optional value; nullopt is a
//     tombstone) that flushes to the active segment when its encoded size
//     crosses `memtable_bytes`, and
//   * the key -> (segment, offset, length) index over everything flushed.
//
// Overwritten and deleted records become garbage accounted per segment;
// when the garbage share of the on-disk footprint crosses
// `compact_garbage_ratio` (and the footprint is worth the work),
// compaction rewrites the live records into fresh segments — published
// via tmp+rename — and unlinks the old files. There is no background
// thread: flush and compaction run at the start of mutating calls, so a
// reference returned by operator[] stays valid until the next mutating
// call on the same container (the fold loops' one-key-at-a-time usage).
//
// Migration never materializes the bin: the chunk cursor keeps a merge
// position over the memtable and the index in key order and, one chunk
// at a time, streams a bounded sorted run straight from the segments
// (pread per indexed value); AbsorbChunk appends the incoming run
// directly to a fresh segment on the destination, bypassing the
// memtable. Migration, monolithic or chunked, always goes through the
// cursor. Whole-value serde is dual-mode: inline (tag 0) or, inside a
// CheckpointDirScope, a LogManifest (tag 1) that hard-links/copies the
// segment files into the checkpoint directory and serializes only the
// manifest + memtable delta — a checkpoint costs O(delta), not O(state).
//
// Bin backends are default-constructed deep inside the dataflow, so
// configuration is process-global: set GlobalLogStateOptions() before
// workers start (the harness entry points do). Each instance owns a
// unique directory under options.dir and removes it on destruction.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "state/checkpoint.hpp"
#include "state/migratable.hpp"
#include "state/segment_log.hpp"

namespace megaphone {
namespace state {

struct LogStateOptions {
  /// Root directory for segment files; empty means
  /// <system temp>/mega_logstate. Each LogState instance creates (and on
  /// destruction removes) a unique subdirectory of it.
  std::string dir;
  /// Flush the memtable once its encoded size reaches this.
  uint64_t memtable_bytes = 1ull << 20;
  /// Seal the active segment and start a new one past this size (a soft
  /// cap: one flush batch may overshoot it).
  uint64_t segment_bytes = 8ull << 20;
  /// Compact when garbage exceeds this share of the on-disk footprint...
  double compact_garbage_ratio = 0.5;
  /// ...and the footprint is at least this (tiny logs aren't worth it).
  uint64_t compact_min_bytes = 1ull << 20;
};

/// Process-global options snapshot new LogState instances copy at
/// construction. Set it on the harness thread before workers start.
inline LogStateOptions& GlobalLogStateOptions() {
  static LogStateOptions opts;
  return opts;
}

/// Publishes a harness's spill knobs into GlobalLogStateOptions(): a
/// nonempty `dir` and a nonzero memtable bound override, the rest keep
/// their current values.
inline void PublishLogStateOptions(const std::string& dir,
                                   uint64_t memtable_bytes) {
  LogStateOptions& o = GlobalLogStateOptions();
  if (!dir.empty()) o.dir = dir;
  if (memtable_bytes != 0) o.memtable_bytes = memtable_bytes;
}

template <typename K, typename V>
class LogState {
 public:
  LogState() : opts_(GlobalLogStateOptions()) {}
  explicit LogState(LogStateOptions opts) : opts_(std::move(opts)) {}

  LogState(const LogState&) = delete;
  LogState& operator=(const LogState&) = delete;
  LogState(LogState&& o) noexcept { Adopt(std::move(o)); }
  LogState& operator=(LogState&& o) noexcept {
    if (this != &o) {
      DestroyStorage();
      Adopt(std::move(o));
    }
    return *this;
  }
  ~LogState() { DestroyStorage(); }

  /// The MapState-compatible accessor `fold` logic uses (`state[k]++`).
  /// May flush/compact first, which invalidates references returned by
  /// earlier calls — a returned reference is valid only until the next
  /// mutating call on this container.
  V& operator[](const K& k) {
    RefreshLastTouched();
    if (mem_bytes_ >= opts_.memtable_bytes) {
      Flush();
      MaybeCompact();
    }
    auto it = mem_.find(k);
    if (it == mem_.end()) {
      MemEntry e;
      auto ix = index_.find(k);
      if (ix != index_.end()) {
        e.v = LoadValue(ix->second);
      } else {
        e.v.emplace();
        ++live_;
      }
      e.sz = EntryBytes(k, e.v);
      mem_bytes_ += e.sz;
      it = mem_.emplace(k, std::move(e)).first;
    } else if (!it->second.v) {
      it->second.v.emplace();  // revive a pending tombstone
      ++live_;
    }
    last_key_ = k;
    has_last_ = true;
    return *it->second.v;
  }

  size_t erase(const K& k) {
    RefreshLastTouched();
    auto it = mem_.find(k);
    bool on_disk = index_.count(k) > 0;
    if (it != mem_.end()) {
      if (!it->second.v) return 0;  // already deleted, tombstone pending
      --live_;
      mem_bytes_ -= it->second.sz;
      if (on_disk) {
        it->second.v.reset();
        it->second.sz = EntryBytes(k, it->second.v);
        mem_bytes_ += it->second.sz;
      } else {
        mem_.erase(it);  // never flushed: no tombstone needed
      }
      return 1;
    }
    if (!on_disk) return 0;
    --live_;
    MemEntry e;  // tombstone
    e.sz = EntryBytes(k, e.v);
    mem_bytes_ += e.sz;
    mem_.emplace(k, std::move(e));
    return 1;
  }

  bool contains(const K& k) const {
    auto it = mem_.find(k);
    if (it != mem_.end()) return it->second.v.has_value();
    return index_.count(k) > 0;
  }

  /// Point lookup without pulling the key into the memtable.
  std::optional<V> Get(const K& k) const {
    auto it = mem_.find(k);
    if (it != mem_.end()) return it->second.v;
    auto ix = index_.find(k);
    if (ix == index_.end()) return std::nullopt;
    return LoadValue(ix->second);
  }

  size_t size() const { return static_cast<size_t>(live_); }
  bool empty() const { return live_ == 0; }

  // --- chunk interface (ChunkableState) --------------------------------

  /// Streams the live key range in key order as bounded Encode(k);
  /// Encode(v) runs, each value preaded straight from its segment into
  /// the chunk — the bin is never materialized, and a queued cursor holds
  /// only its position in the memtable and the index. Chunk-cut
  /// discipline matches SortedState.
  class ChunkCursor;  // defined below, after the merge iterator

  void EnumerateChunks(size_t max_bytes, const ChunkEmit& emit) const {
    EnumerateWithCursor(*this, max_bytes, emit);
  }

  /// Appends one incoming sorted run straight to the active segment,
  /// bypassing the memtable — absorption is disk-bounded, not
  /// RAM-bounded. Intended for fresh (empty) destination bins, but a
  /// duplicate key is handled as an overwrite.
  void AbsorbChunk(Reader& r) {
    std::vector<uint8_t> batch;
    uint64_t seg = kNoSegment;
    uint64_t base = 0;
    while (!r.AtEnd()) {
      K k = Decode<K>(r);
      std::vector<uint8_t> vb = EncodeToBytes(Decode<V>(r));
      std::vector<uint8_t> kb = EncodeToBytes(k);
      if (seg == kNoSegment) {
        seg = ActiveSegmentId();
        base = segs_.at(seg).file.size();
      }
      uint64_t rec_start = batch.size();
      uint64_t voff = AppendSegmentRecord(batch, kSegmentRecordPut, kb, vb);
      ValueLoc loc{seg, base + rec_start + voff, vb.size(),
                   SegmentRecordBytes(kb.size(), vb.size())};
      auto [it, inserted] = index_.insert({k, loc});
      if (inserted) {
        ++live_;
      } else {
        AddGarbage(it->second);
        it->second = loc;
      }
    }
    if (seg != kNoSegment) segs_.at(seg).file.Append(batch.data(), batch.size());
  }

  void FinishAbsorb() { MaybeCompact(); }

  // --- whole-value serde -----------------------------------------------

  void Serialize(Writer& w) const {
    if (CheckpointDirScope::active() && !segs_.empty()) {
      SerializeManifest(w);
      return;
    }
    uint8_t tag = 0;
    w.WriteBytes(&tag, 1);
    Encode(w, static_cast<uint64_t>(live_));
    // The live entries in the chunk encoding, as one unbounded chunk.
    ChunkCursor c(*this);
    if (!c.done()) c.Next(0, w);
  }

  static LogState Deserialize(Reader& r) {
    uint8_t tag;
    r.ReadBytes(&tag, 1);
    LogState s;
    if (tag == 0) {
      uint64_t n = r.ReadCount(1);
      for (uint64_t i = 0; i < n; ++i) {
        K k = Decode<K>(r);
        s[k] = Decode<V>(r);  // memtable path: flushes stay bounded
      }
    } else if (tag == 1) {
      s.RestoreFromManifest(Decode<LogManifest>(r));
    } else {
      throw SerdeError("log state: unknown serialization tag");
    }
    return s;
  }

  // --- maintenance and introspection -----------------------------------

  /// Flushes the memtable to the active segment (public for tests and for
  /// pre-checkpoint shrinking of the delta).
  void FlushNow() {
    RefreshLastTouched();
    Flush();
  }

  /// Unconditionally rewrites live records into fresh segments and drops
  /// the old files (the automatic trigger is MaybeCompact's thresholds).
  void CompactNow() {
    if (segs_.empty()) return;
    std::map<uint64_t, Seg> nsegs;
    std::map<K, ValueLoc> nindex;
    std::vector<uint8_t> batch;
    struct Out {
      const K* k;
      uint64_t rel_off;  // value offset relative to the batch start
      uint64_t len;
      uint64_t rec_bytes;
    };
    std::vector<Out> outs;
    auto seal = [&] {
      if (batch.empty()) return;
      uint64_t id = next_seg_++;
      std::string path = SegPath(id);
      Seg s;
      s.file = SegmentFile::Create(path + ".tmp");
      s.file.Append(batch.data(), batch.size());
      s.file.PublishAs(path);
      for (const Out& o : outs) {
        nindex.emplace_hint(
            nindex.end(), *o.k,
            ValueLoc{id, kSegmentFileHeaderBytes + o.rel_off, o.len,
                     o.rec_bytes});
      }
      nsegs.emplace(id, std::move(s));
      batch.clear();
      outs.clear();
    };
    std::vector<uint8_t> vb;
    for (const auto& [k, loc] : index_) {
      ReadValueBytes(loc, &vb);
      std::vector<uint8_t> kb = EncodeToBytes(k);
      uint64_t rec_start = batch.size();
      uint64_t voff = AppendSegmentRecord(batch, kSegmentRecordPut, kb, vb);
      outs.push_back(Out{&k, rec_start + voff, vb.size(),
                         SegmentRecordBytes(kb.size(), vb.size())});
      if (batch.size() >= opts_.segment_bytes) seal();
    }
    seal();
    for (auto& [id, s] : segs_) {
      std::string path = s.file.path();
      s.file.Close();
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
    segs_ = std::move(nsegs);
    index_ = std::move(nindex);
    garbage_bytes_ = 0;
    active_ = kNoSegment;  // compaction outputs are sealed
  }

  /// Full materialization — test/debug only, O(state).
  std::map<K, V> Snapshot() const {
    std::map<K, V> out;
    for (LiveIter it(*this); !it.done(); it.Advance()) {
      const V* mv = it.mem_value();
      out.emplace_hint(out.end(), it.key(), mv ? *mv : LoadValue(it.loc()));
    }
    return out;
  }

  size_t segment_count() const { return segs_.size(); }
  uint64_t disk_bytes() const {
    uint64_t total = 0;
    for (const auto& [id, s] : segs_) total += s.file.size();
    return total;
  }
  uint64_t garbage_bytes() const { return garbage_bytes_; }
  uint64_t memtable_bytes() const { return mem_bytes_; }
  size_t memtable_entries() const { return mem_.size(); }
  const LogStateOptions& options() const { return opts_; }

 private:
  static constexpr uint64_t kNoSegment = ~0ull;
  /// Rough per-entry memtable bookkeeping overhead (map node, optional).
  static constexpr uint64_t kMemEntryOverheadBytes = 48;

  struct ValueLoc {
    uint64_t segment = 0;
    uint64_t off = 0;       // file offset of the value bytes
    uint64_t len = 0;       // value byte length
    uint64_t rec_bytes = 0; // full record footprint (garbage accounting)
  };
  struct MemEntry {
    std::optional<V> v;  // nullopt = tombstone
    uint64_t sz = 0;     // last measured encoded footprint
  };
  struct Seg {
    SegmentFile file;
    uint64_t garbage = 0;
  };

  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  void Adopt(LogState&& o) {
    opts_ = std::move(o.opts_);
    dir_ = std::move(o.dir_);
    segs_ = std::move(o.segs_);
    index_ = std::move(o.index_);
    mem_ = std::move(o.mem_);
    mem_bytes_ = o.mem_bytes_;
    garbage_bytes_ = o.garbage_bytes_;
    live_ = o.live_;
    active_ = o.active_;
    next_seg_ = o.next_seg_;
    has_last_ = false;
    o.dir_.clear();
    o.segs_.clear();
    o.index_.clear();
    o.mem_.clear();
    o.mem_bytes_ = 0;
    o.garbage_bytes_ = 0;
    o.live_ = 0;
    o.active_ = kNoSegment;
    o.has_last_ = false;
  }

  void DestroyStorage() {
    segs_.clear();  // closes fds
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
      dir_.clear();
    }
  }

  void EnsureDir() {
    if (!dir_.empty()) return;
    std::string root =
        opts_.dir.empty()
            ? (std::filesystem::temp_directory_path() / "mega_logstate")
                  .string()
            : opts_.dir;
    dir_ = root + "/ls_p" + std::to_string(::getpid()) + "_" +
           std::to_string(NextInstanceId());
    std::filesystem::create_directories(dir_);
  }

  std::string SegPath(uint64_t id) const {
    return dir_ + "/seg_" + std::to_string(id) + ".log";
  }

  uint64_t ActiveSegmentId() {
    if (active_ != kNoSegment) {
      if (segs_.at(active_).file.size() < opts_.segment_bytes) return active_;
      active_ = kNoSegment;  // sealed
    }
    EnsureDir();
    uint64_t id = next_seg_++;
    Seg s;
    s.file = SegmentFile::Create(SegPath(id));
    segs_.emplace(id, std::move(s));
    active_ = id;
    return active_;
  }

  void AddGarbage(const ValueLoc& loc) {
    auto it = segs_.find(loc.segment);
    if (it != segs_.end()) it->second.garbage += loc.rec_bytes;
    garbage_bytes_ += loc.rec_bytes;
  }

  static uint64_t EntryBytes(const K& k, const std::optional<V>& v) {
    Writer w;
    Encode(w, k);
    if (v) Encode(w, *v);
    return w.size() + kMemEntryOverheadBytes;
  }

  /// Values mutate through the reference operator[] returned, after the
  /// entry's footprint was measured; re-measure the previously touched
  /// entry at the start of the next access, so mem_bytes_ lags the truth
  /// by at most one entry.
  void RefreshLastTouched() {
    if (!has_last_) return;
    has_last_ = false;
    auto it = mem_.find(last_key_);
    if (it == mem_.end()) return;
    uint64_t nsz = EntryBytes(last_key_, it->second.v);
    mem_bytes_ += nsz;
    mem_bytes_ -= it->second.sz;
    it->second.sz = nsz;
  }

  void Flush() {
    has_last_ = false;
    if (mem_.empty()) {
      mem_bytes_ = 0;
      return;
    }
    uint64_t seg = kNoSegment;
    uint64_t base = 0;
    std::vector<uint8_t> batch;
    const std::vector<uint8_t> empty;
    for (const auto& [k, e] : mem_) {
      auto ix = index_.find(k);
      if (!e.v) {
        if (ix == index_.end()) continue;  // never flushed: no record needed
        std::vector<uint8_t> kb = EncodeToBytes(k);
        if (seg == kNoSegment) {
          seg = ActiveSegmentId();
          base = segs_.at(seg).file.size();
        }
        AppendSegmentRecord(batch, kSegmentRecordTombstone, kb, empty);
        AddGarbage(ix->second);
        index_.erase(ix);
        // The tombstone record itself is reclaimable dead weight too.
        uint64_t tomb = SegmentRecordBytes(kb.size(), 0);
        segs_.at(seg).garbage += tomb;
        garbage_bytes_ += tomb;
      } else {
        std::vector<uint8_t> kb = EncodeToBytes(k);
        std::vector<uint8_t> vb = EncodeToBytes(*e.v);
        if (seg == kNoSegment) {
          seg = ActiveSegmentId();
          base = segs_.at(seg).file.size();
        }
        uint64_t rec_start = batch.size();
        uint64_t voff = AppendSegmentRecord(batch, kSegmentRecordPut, kb, vb);
        ValueLoc loc{seg, base + rec_start + voff, vb.size(),
                     SegmentRecordBytes(kb.size(), vb.size())};
        if (ix != index_.end()) {
          AddGarbage(ix->second);
          ix->second = loc;
        } else {
          index_.emplace(k, loc);
        }
      }
    }
    if (seg != kNoSegment) {
      segs_.at(seg).file.Append(batch.data(), batch.size());
    }
    mem_.clear();
    mem_bytes_ = 0;
  }

  void MaybeCompact() {
    uint64_t total = disk_bytes();
    if (total < opts_.compact_min_bytes) return;
    if (static_cast<double>(garbage_bytes_) <=
        opts_.compact_garbage_ratio * static_cast<double>(total)) {
      return;
    }
    CompactNow();
  }

  V LoadValue(const ValueLoc& loc) const {
    std::vector<uint8_t> vb;
    ReadValueBytes(loc, &vb);
    return DecodeFromBytes<V>(vb);
  }

  void ReadValueBytes(const ValueLoc& loc, std::vector<uint8_t>* out) const {
    segs_.at(loc.segment).file.Pread(loc.off, static_cast<size_t>(loc.len),
                                     out);
  }

  /// Merge-iterates memtable and index in key order, the memtable
  /// shadowing the index; tombstones (and the disk entries they shadow)
  /// are skipped. The head is always a live entry (or the end), so
  /// done() is exact — what the chunk cursor's last-frame test needs.
  class LiveIter {
   public:
    explicit LiveIter(const LogState& s)
        : mi_(s.mem_.begin()), me_(s.mem_.end()), ii_(s.index_.begin()),
          ie_(s.index_.end()) {
      Settle();
    }

    bool done() const { return mi_ == me_ && ii_ == ie_; }
    const K& key() const { return MemLeads() ? mi_->first : ii_->first; }
    /// The memtable value at the head, or null when it lives on disk.
    const V* mem_value() const {
      return MemLeads() ? &*mi_->second.v : nullptr;
    }
    const ValueLoc& loc() const { return ii_->second; }

    void Advance() {
      if (MemLeads()) {
        if (Shadows()) ++ii_;
        ++mi_;
      } else {
        ++ii_;
      }
      Settle();
    }

   private:
    bool MemLeads() const {
      return mi_ != me_ && (ii_ == ie_ || !(ii_->first < mi_->first));
    }
    // The memtable head has the same key as the index head.
    bool Shadows() const {
      return ii_ != ie_ && !(mi_->first < ii_->first);
    }
    // Drops leading tombstones with the disk entries they shadow.
    void Settle() {
      while (MemLeads() && !mi_->second.v) {
        if (Shadows()) ++ii_;
        ++mi_;
      }
    }

    typename std::map<K, MemEntry>::const_iterator mi_, me_;
    typename std::map<K, ValueLoc>::const_iterator ii_, ie_;
  };

 public:
  class ChunkCursor {
   public:
    explicit ChunkCursor(const LogState& s) : s_(&s), it_(s) {}

    bool done() const { return it_.done(); }

    void Next(size_t max_bytes, Writer& w) {
      const size_t start = w.size();
      while (!it_.done()) {
        Encode(w, it_.key());
        if (const V* mv = it_.mem_value()) {
          Encode(w, *mv);
        } else {
          // The stored bytes are already the serde encoding of V.
          const ValueLoc& loc = it_.loc();
          s_->segs_.at(loc.segment)
              .file.Pread(loc.off, static_cast<size_t>(loc.len),
                          w.Extend(static_cast<size_t>(loc.len)));
        }
        it_.Advance();
        if (max_bytes > 0 && w.size() - start >= max_bytes) break;
      }
    }

   private:
    const LogState* s_;
    LiveIter it_;
  };

 private:
  void SerializeManifest(Writer& w) const {
    uint8_t tag = 1;
    w.WriteBytes(&tag, 1);
    LogManifest m;
    m.dir = CheckpointDirScope::dir() + "/lsck_p" +
            std::to_string(::getpid()) + "_" +
            std::to_string(NextInstanceId());
    std::filesystem::create_directories(m.dir);
    for (const auto& [id, s] : segs_) {
      std::string name = "seg_" + std::to_string(id) + ".log";
      std::string dst = m.dir + "/" + name;
      if (id == active_) {
        // The active segment keeps growing after the checkpoint: publish
        // a point-in-time copy instead of sharing the inode.
        std::string tmp = dst + ".tmp";
        std::filesystem::copy_file(
            s.file.path(), tmp,
            std::filesystem::copy_options::overwrite_existing);
        std::filesystem::rename(tmp, dst);
      } else {
        LinkOrCopyFile(s.file.path(), dst);
      }
      m.segments.push_back(LogManifest::Entry{id, name, s.file.size()});
    }
    Writer dw;
    Encode(dw, static_cast<uint64_t>(mem_.size()));
    for (const auto& [k, e] : mem_) {
      Encode(dw, k);
      Encode(dw, e.v);  // optional<V>: nullopt is a tombstone
    }
    m.delta = dw.Take();
    Encode(w, m);
  }

  void RestoreFromManifest(const LogManifest& m) {
    EnsureDir();
    std::map<uint64_t, uint64_t> garbage;  // applied after all segs open
    for (const auto& e : m.segments) {
      std::string own = SegPath(e.segment);
      LinkOrCopyFile(m.dir + "/" + e.file, own);
      SegmentFile f = SegmentFile::OpenRead(own);
      if (f.size() != e.bytes) {
        throw SerdeError("log state: torn segment " + e.file);
      }
      std::vector<uint8_t> bytes;
      f.Pread(0, static_cast<size_t>(f.size()), &bytes);
      ForEachSegmentRecord(bytes, [&](const SegmentRecord& rec,
                                      uint64_t voff) {
        K k = DecodeFromBytes<K>(rec.key);
        if (rec.type == kSegmentRecordPut) {
          ValueLoc loc{e.segment, voff, rec.value.size(),
                       SegmentRecordBytes(rec.key.size(), rec.value.size())};
          auto [it, inserted] = index_.insert({std::move(k), loc});
          if (!inserted) {
            garbage[it->second.segment] += it->second.rec_bytes;
            garbage_bytes_ += it->second.rec_bytes;
            it->second = loc;
          }
        } else {
          uint64_t tomb = SegmentRecordBytes(rec.key.size(), 0);
          garbage[e.segment] += tomb;
          garbage_bytes_ += tomb;
          auto it = index_.find(k);
          if (it != index_.end()) {
            garbage[it->second.segment] += it->second.rec_bytes;
            garbage_bytes_ += it->second.rec_bytes;
            index_.erase(it);
          }
        }
      });
      Seg s;
      s.file = std::move(f);
      segs_.emplace(e.segment, std::move(s));
      next_seg_ = std::max(next_seg_, e.segment + 1);
    }
    for (const auto& [id, g] : garbage) {
      auto it = segs_.find(id);
      if (it != segs_.end()) it->second.garbage += g;
    }
    live_ = index_.size();
    active_ = kNoSegment;  // restored segments are sealed (read-only fds)
    Reader dr(m.delta);
    uint64_t n = dr.ReadCount(1);
    for (uint64_t i = 0; i < n; ++i) {
      K k = Decode<K>(dr);
      std::optional<V> v = Decode<std::optional<V>>(dr);
      bool on_disk = index_.count(k) > 0;
      if (v && !on_disk) ++live_;
      if (!v && on_disk) --live_;
      if (!v && !on_disk) continue;  // tombstone for an unknown key
      MemEntry e;
      e.v = std::move(v);
      e.sz = EntryBytes(k, e.v);
      mem_bytes_ += e.sz;
      mem_.emplace(std::move(k), std::move(e));
    }
    if (!dr.AtEnd()) throw SerdeError("log state: trailing delta bytes");
  }

  LogStateOptions opts_;
  std::string dir_;  // empty until the first spill
  std::map<uint64_t, Seg> segs_;
  std::map<K, ValueLoc> index_;
  std::map<K, MemEntry> mem_;
  uint64_t mem_bytes_ = 0;
  uint64_t garbage_bytes_ = 0;
  uint64_t live_ = 0;
  uint64_t active_ = kNoSegment;
  uint64_t next_seg_ = 1;
  bool has_last_ = false;
  K last_key_{};
};

}  // namespace state
}  // namespace megaphone
