// Shared declarations of the perfbench program: workload specs, the
// per-process report that crosses the fork boundary, and the entry points
// of the three translation units (workload.cpp, check.cpp, ledger.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/histogram.hpp"

namespace perfbench {

enum class Backend { kDense, kLogPad };

/// One named workload. Every run has an optional closed-loop phase
/// (throughput) followed by an open-loop phase with repeated all-at-once
/// migrations (latency and migration metrics).
struct WorkloadSpec {
  std::string name;
  uint32_t processes = 1;
  uint32_t workers = 4;  // per process
  uint32_t bins = 4096;
  uint64_t domain = 1 << 16;  // keys preloaded into state, power of two
  /// Measured records draw their keys from [0, hot_keys). Key k lives in
  /// bin k mod bins, so the hot keys touch every bin.
  uint64_t hot_keys = 1 << 16;
  Backend backend = Backend::kDense;
  uint64_t pad_bytes = 0;       // kLogPad: bytes of payload per key
  uint64_t memtable_bytes = 0;  // kLogPad: LogState memtable bound
  /// Share of the measured seconds spent in the closed-loop phase (0 =
  /// open loop only).
  double closed_share = 0;
  double rate = 200'000;  // open loop, records/s over all workers
  uint64_t mig_period_ms = 750;

  uint32_t total_workers() const { return processes * workers; }
};

/// State-chunk frame bound of every migration (and of the ledger's chunk
/// measurements).
constexpr uint64_t kChunkBytes = 64 << 10;

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

constexpr uint32_t kMaxBins = 4096;
constexpr uint32_t kMaxMigrations = 128;
constexpr uint32_t kMaxSegments = 16;
constexpr uint32_t kMaxWorkers = 16;  // over all processes

/// What one process of a run reports to process 0 (over a pipe for the
/// forked peers). Trivially copyable by construction.
struct ProcReport {
  uint64_t closed_sent = 0;  // records injected in the closed phase
  uint64_t seg_sent[kMaxSegments] = {};  // ... per closed segment
  uint64_t open_sent = 0;    // records injected in the open phase
  uint64_t applied = 0;      // records the operator applied after preload
  // Records injected per global worker (only this process's slots set).
  uint64_t worker_closed[kMaxWorkers] = {};
  uint64_t worker_open[kMaxWorkers] = {};
  // Dense workloads: the state the drained dataflow holds, decoded from
  // the workers' bins: the sum of all counts, and the sum of count x
  // Weight(key).
  uint64_t state_count = 0;
  uint64_t state_check = 0;
  int32_t owner[kMaxBins];   // resident worker per bin (-1 none, -2 twice)
  uint64_t hwm_kb = 0;       // VmHWM
  double cpu_s = 0;          // user+system CPU over the measured interval
  uint64_t invol_cs = 0;     // involuntary context switches, same interval
  uint64_t read_bytes = 0;   // /proc/self/io storage reads, same interval
  uint64_t write_bytes = 0;  // /proc/self/io storage writes, same interval
  double steal_pct = 0;      // machine-wide CPU steal, same interval
  uint64_t chunk_frames = 0;  // state-chunk frames emitted in the open phase
  uint64_t gen_lag_ns = 0;   // max open-loop injection lateness
  uint32_t workers_done = 0;
  uint32_t ok = 0;  // 1 once the process finished its run normally
  // Traced runs only.
  uint64_t send_ns = 0;    // time inside Input::SendBatch
  uint64_t send_recs = 0;  // records those calls carried
  uint64_t mig_step_max_ns[kMaxMigrations] = {};  // longest step per window

  ProcReport() { std::fill(owner, owner + kMaxBins, -1); }
};

/// Root-side outcome of one launch (setup-only or measured).
struct RunOutcome {
  double setup_s = 0;
  double throughput = 0;  // records / s, start barrier to full drain
  std::vector<double> seg_throughput;  // per closed-loop segment
  std::vector<double> steady_lat_ms;
  // The same epochs grouped by the second of the open phase they were due
  // in.
  std::vector<std::vector<double>> steady_by_second;
  std::vector<double> mig_max_ms;
  std::vector<double> mig_dur_ms;
  std::vector<uint64_t> mig_steps;
  double peak_rss_mb = 0;
  uint64_t records = 0;
  uint64_t epochs = 0;
  uint64_t epochs_done = 0;
  uint64_t migrations = 0;
  uint64_t migrations_installed = 0;
  double drain_ms = 0;
  std::vector<std::string> problems;  // correctness findings
  ProcReport total;  // summed/merged over processes
  megaphone::Histogram steps;  // traced: Worker::Step durations, ns
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string state_dir;
};

/// Launches the workload's processes, builds the dataflow, preloads state
/// and (unless setup_only) measures; returns on process 0 only.
RunOutcome RunWorkload(const WorkloadSpec& spec, const RunOptions& opt);

/// Digest check at the workload's topology, backend and chunk bound: a
/// RunDeterministicCount run with migrations must match one without.
/// `corrupt` flips a digest byte first (the negative check). Returns an
/// empty string on success, else the finding.
std::string DigestCheck(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& state_dir, bool corrupt);

using Metrics = std::vector<std::pair<std::string, double>>;

/// Per-layer micro-measurements that call each module from outside.
void RunLedger(const std::string& state_dir, uint64_t seed, Metrics* out);

inline double QuantileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median over the seconds of the open phase of each second's quantile
/// `q` (seconds with fewer than 200 steady epochs are skipped): a burst of
/// stalls moves the seconds it hits, not the median.
inline double MedianOfSeconds(const std::vector<std::vector<double>>& secs,
                              double q) {
  std::vector<double> per;
  for (const auto& v : secs) {
    if (v.size() >= 200) per.push_back(QuantileOf(v, q));
  }
  return QuantileOf(per, 0.5);
}

/// The benchmark's input generator (splitmix64 finalizer), kept apart from
/// the library's HashMix64 that the spill workload routes keys with.
inline uint64_t KeyOf(uint64_t seed, uint64_t idx, uint64_t domain) {
  uint64_t x = seed ^ (idx * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x & (domain - 1);
}

/// Per-key weight of the state content check: a drop, duplicate or
/// corruption of state moves the weighted sum.
inline uint64_t Weight(uint64_t key) {
  uint64_t x = key + 0x632be59bd9b4e019ULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace perfbench
