// Per-process bench report shards for distributed runs.
//
// In a multi-process bench each process observes its own latency record:
// the local root worker measures epoch completions against the process's
// tracker replica (so network delay is part of the measurement, exactly
// what the paper's cluster runs see). At shutdown every process encodes
// its observations into a BenchShard and ships it over the dataflow to
// global worker 0 — the wire serde path below — where the shards merge
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

/// A side channel in the bench dataflow that carries encoded BenchShards
/// to global worker 0. Every worker holds the input handle (and must
/// close it); only each process's local root sends. The collected shards
/// are complete once the dataflow drains (Execute returns).
template <typename T>
struct ShardChannel {
  timely::Input<std::vector<uint8_t>, T> in;
  std::shared_ptr<std::vector<BenchShard>> shards;  // filled on worker 0

  /// Sends this process's shard and closes the channel.
  void Finish(const BenchShard& shard) {
    in->Send(EncodeToBytes(shard));
    in->Close();
  }
};

/// Adds the shard side channel to a bench dataflow under construction.
/// The collector runs on global worker 0; shards from every process land
/// in `shards` in arrival order.
template <typename T>
ShardChannel<T> AddShardChannel(timely::Scope<T>& s) {
  auto [in, stream] = timely::NewInput<std::vector<uint8_t>>(s);
  auto shards = std::make_shared<std::vector<BenchShard>>();
  timely::OperatorBuilder<T> b(s, "BenchShards");
  auto* cin = b.AddInput(
      stream, timely::Pact<std::vector<uint8_t>>::Exchange(
                  [](const std::vector<uint8_t>&) { return uint64_t{0}; }));
  b.Build([cin, shards](timely::OpCtx<T>&) {
    cin->ForEach([&](const T&, std::vector<std::vector<uint8_t>>& recs) {
      for (auto& bytes : recs) {
        shards->push_back(DecodeFromBytes<BenchShard>(bytes));
      }
    });
  });
  return ShardChannel<T>{std::move(in), std::move(shards)};
}

}  // namespace megaphone
