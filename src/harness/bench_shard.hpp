// Per-process bench report shards for distributed runs.
//
// In a multi-process bench each process observes its own latency record:
// the local root worker measures epoch completions against the process's
// tracker replica (so network delay is part of the measurement, exactly
// what the paper's cluster runs see). At shutdown every process encodes
// its observations into a BenchShard and ships it over the dataflow to
// global worker 0 over a SideChannel (below), where the shards merge
// (harness/open_loop.hpp) into the single report the figure benches print.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serde.hpp"
#include "harness/histogram.hpp"
#include "timely/timely.hpp"

namespace megaphone {

/// Summary of one migration observed by a bench driver: its window, the
/// maximum latency inside it, the number of completed batches, and the
/// state-chunk traffic the window shipped (frames and wire bytes — this
/// process's share until shards merge, then the sum over all processes).
struct MigrationStats {
  double start_sec = 0;
  double end_sec = 0;
  double duration_sec() const { return end_sec - start_sec; }
  double max_ms = 0;  // max latency observed during the migration window
  size_t batches = 0;
  uint64_t chunk_frames = 0;
  uint64_t chunk_bytes = 0;

  MEGA_SERDE_FIELDS(MigrationStats, start_sec, end_sec, max_ms, batches,
                    chunk_frames, chunk_bytes)
};

/// One (elapsed seconds, resident-set bytes) sample of a process's RSS.
using RssSample = std::pair<double, uint64_t>;

/// One process's share of a bench run's measurements (harness/open_loop.hpp
/// records and merges them).
struct BenchShard {
  uint32_t process_index = 0;
  Timeline timeline{250'000'000};
  Histogram per_record;
  Histogram steady;
  std::vector<MigrationStats> migrations;
  uint64_t outputs = 0;
  uint64_t records_sent = 0;
  double duration_sec = 0;
  /// Periodic RSS samples of this process (every figure reports memory,
  /// not just the paper's Fig. 20 — the spill backend's gate needs it).
  std::vector<RssSample> rss;

  MEGA_SERDE_FIELDS(BenchShard, process_index, timeline, per_record, steady,
                    migrations, outputs, records_sent, duration_sec, rss)
};

/// A side channel to global worker 0: every worker holds `in` (and must
/// advance and close it); messages Exchange to worker 0, where they decode
/// into `inbox` in arrival order. `probe` reports the frontier at the
/// collector's input, so once it passes t worker 0 has consumed every
/// message sent below t. Bench shards and adaptive stats reports both
/// travel this way.
template <typename M, typename T>
struct SideChannel {
  timely::Input<std::vector<uint8_t>, T> in;
  std::shared_ptr<std::vector<M>> inbox;  // filled on worker 0
  timely::ProbeHandle<T> probe;

  /// Encodes and ships one message at the input's current epoch.
  void Send(const M& m) { in->Send(EncodeToBytes(m)); }
};

/// Adds a side channel carrying `M` to a dataflow under construction.
template <typename M, typename T>
SideChannel<M, T> AddSideChannel(timely::Scope<T>& s, const char* name) {
  using Bytes = std::vector<uint8_t>;
  auto [in, stream] = timely::NewInput<Bytes>(s);
  auto inbox = std::make_shared<std::vector<M>>();
  auto probe = timely::Probe(
      stream, name,
      timely::Pact<Bytes>::Exchange([](const Bytes&) { return uint64_t{0}; }),
      [inbox](const T&, std::vector<Bytes>& recs) {
        for (auto& bytes : recs) inbox->push_back(DecodeFromBytes<M>(bytes));
      });
  return SideChannel<M, T>{std::move(in), std::move(inbox), std::move(probe)};
}

}  // namespace megaphone
