// Frontier-aligned checkpoint segments: per-process files holding every
// local bin's whole-value serialization at an epoch boundary.
//
// A checkpoint of the whole job at epoch E is one segment file per
// process, written independently (no cross-process coordination beyond
// the fact that every process checkpoints at the same frontier-aligned
// epochs — the deterministic harness loop guarantees that). A checkpoint
// is *complete* only when all P segment files for E exist; restore picks
// the largest such E. Segment writes go through a temp file + rename, so
// a crash mid-write can never produce a segment that parses (the
// "checkpoint-based recovery" pattern from the state-management survey:
// atomically published, all-or-nothing units).
//
// The bin payloads are the exact bytes `Bin::Serialize` produces. That
// whole-value serde is the checkpoint's own: migration never uses it, it
// always moves a bin through its chunk cursor. Restore installs each
// deserialized bin in S before any data is ingested, and a restored run
// continues byte-identically (proven by tests/recovery_test.cpp).
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"

namespace megaphone {
namespace state {

/// One worker's share of a checkpoint: (bin id, whole-value bin bytes).
using BinSnapshot = std::vector<std::pair<uint32_t, std::vector<uint8_t>>>;

/// One process's segment of a job-wide checkpoint at `epoch`.
struct CheckpointSegment {
  /// Every record with time < epoch is reflected in the bins below.
  uint64_t epoch = 0;
  /// The routing table at the checkpoint: owner worker per bin. Restore
  /// must resume with this assignment or the bins land on the wrong
  /// workers.
  std::vector<uint32_t> assignment;
  /// Resident bins per *global* worker index (only workers this process
  /// hosts appear).
  std::map<uint32_t, BinSnapshot> workers;
  /// Harness-defined sink state (e.g. the collector map on worker 0);
  /// empty for processes that host no sink.
  std::vector<uint8_t> collector;

  MEGA_SERDE_FIELDS(CheckpointSegment, epoch, assignment, workers, collector)
};

constexpr uint64_t kSegmentMagic = 0x4d454741434b5054ULL;  // "MEGACKPT"

inline std::string SegmentPath(const std::string& dir, uint64_t epoch,
                               uint32_t process) {
  return dir + "/ckpt_e" + std::to_string(epoch) + "_p" +
         std::to_string(process) + ".bin";
}

/// Writes one segment atomically (temp file + rename). Creates `dir` if
/// missing.
inline void WriteSegment(const std::string& dir, uint32_t process,
                         const CheckpointSegment& seg) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  Writer w;
  Encode(w, kSegmentMagic);
  Encode(w, seg);
  std::vector<uint8_t> bytes = w.Take();
  const std::string final_path = SegmentPath(dir, seg.epoch, process);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  MEGA_CHECK(f != nullptr) << "cannot open checkpoint temp " << tmp_path;
  size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  MEGA_CHECK_EQ(n, bytes.size()) << "short checkpoint write " << tmp_path;
  MEGA_CHECK_EQ(std::fflush(f), 0) << "checkpoint flush " << tmp_path;
  MEGA_CHECK_EQ(std::fclose(f), 0) << "checkpoint close " << tmp_path;
  std::filesystem::rename(tmp_path, final_path, ec);
  MEGA_CHECK(!ec) << "checkpoint rename " << final_path << ": "
                  << ec.message();
}

/// Loads one segment file; throws SerdeError on truncation/corruption,
/// aborts on a wrong magic (that file is not a checkpoint at all).
inline CheckpointSegment LoadSegment(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MEGA_CHECK(f != nullptr) << "cannot open checkpoint " << path;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  MEGA_CHECK_GE(size, 0) << "cannot size checkpoint " << path;
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  size_t n = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  MEGA_CHECK_EQ(n, bytes.size()) << "short checkpoint read " << path;
  Reader r(bytes);
  uint64_t magic = Decode<uint64_t>(r);
  MEGA_CHECK_EQ(magic, kSegmentMagic) << "not a checkpoint segment: " << path;
  return Decode<CheckpointSegment>(r);
}

/// The largest epoch for which all `processes` segment files exist in
/// `dir`, or 0 if there is no complete checkpoint. (Epoch 0 is never a
/// checkpoint: it is the initial state, recoverable by just starting
/// over.)
inline uint64_t LatestCompleteEpoch(const std::string& dir,
                                    uint32_t processes) {
  std::error_code ec;
  std::map<uint64_t, uint32_t> present;  // epoch -> segment count
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t epoch = 0;
    uint32_t process = 0;
    if (std::sscanf(name.c_str(), "ckpt_e%" SCNu64 "_p%" SCNu32 ".bin",
                    &epoch, &process) == 2 &&
        name == SegmentPath("", epoch, process).substr(1)) {
      ++present[epoch];
    }
  }
  uint64_t best = 0;
  for (const auto& [epoch, count] : present) {
    if (count >= processes && epoch > best) best = epoch;
  }
  return best;
}

/// Loads this process's segment of the latest complete checkpoint.
/// Returns false when no complete checkpoint exists.
inline bool LoadLatestSegment(const std::string& dir, uint32_t processes,
                              uint32_t process, CheckpointSegment* out) {
  uint64_t epoch = LatestCompleteEpoch(dir, processes);
  if (epoch == 0) return false;
  *out = LoadSegment(SegmentPath(dir, epoch, process));
  MEGA_CHECK_EQ(out->epoch, epoch);
  return true;
}

/// Marks "a checkpoint capture is in progress, publishing into `dir`".
///
/// Backends with out-of-core representations (LogState) key their
/// whole-value Serialize on this: inside a scope they publish sealed
/// segment files into a subdirectory of `dir` (hard link or copy) and
/// serialize a manifest + memtable delta instead of materializing every
/// key — the point of a log-structured checkpoint. Outside any scope they
/// serialize inline (no migration path serializes a whole bin).
///
/// The scope is process-global (bin backends are default-constructed
/// inside the dataflow, so there is no per-instance plumbing) and is only
/// read/written from the harness thread bracketing a capture plus the
/// worker threads inside it, which the capture barrier already orders.
/// LatestCompleteEpoch ignores the published subdirectories: their names
/// never match the ckpt_e*_p*.bin segment pattern.
class CheckpointDirScope {
 public:
  explicit CheckpointDirScope(std::string dir) { Current() = std::move(dir); }
  ~CheckpointDirScope() { Current().clear(); }
  CheckpointDirScope(const CheckpointDirScope&) = delete;
  CheckpointDirScope& operator=(const CheckpointDirScope&) = delete;

  static bool active() { return !Current().empty(); }
  static const std::string& dir() { return Current(); }

 private:
  static std::string& Current() {
    static std::string d;
    return d;
  }
};

}  // namespace state
}  // namespace megaphone
