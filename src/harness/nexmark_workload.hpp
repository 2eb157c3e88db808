// Open-loop NEXMark bench driver (paper §5.1, Figs. 5-12): generates the
// event stream at a configured rate with event time equal to injection
// wall time, runs a chosen query (native or Megaphone), migrates the
// stateful operators mid-run, and records the latency timeline.
//
// Multi-process aware: pass the timely::Config of a launched process set
// and each process measures its own latency shard (against its tracker
// replica, so serialization and wire delay are part of the record); the
// shards ship to global worker 0 over the dataflow and merge into one
// result. The measurement itself (samples, migration windows, steady
// state) is harness/open_loop.hpp's, shared with the count driver. The
// deterministic Q3 harness at the bottom is the correctness counterpart:
// a lockstep run whose output digest must be independent of the process
// split, even with a migration mid-run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rate_limiter.hpp"
#include "common/time_util.hpp"
#include "harness/bench_shard.hpp"
#include "harness/migration_schedule.hpp"
#include "harness/open_loop.hpp"
#include "megaphone/megaphone.hpp"
#include "nexmark/nexmark.hpp"
#include "timely/timely.hpp"

namespace megaphone {

struct NexmarkBenchConfig {
  int query = 3;             // 1..8
  bool use_megaphone = true;  // false: native baseline
  /// Total workers across all processes of the run.
  uint32_t workers = 4;
  double rate = 100'000;  // events/second
  uint64_t duration_ms = 5000;
  nexmark::QueryConfig qcfg;
  nexmark::GeneratorConfig gcfg;

  /// Migrations, at ms since the measurement start.
  MigrationPlan schedule;
  MigrationStrategy strategy = MigrationStrategy::kBatched;
  size_t batch_size = 64;
};

using NexmarkBenchResult = OpenLoopResult;

namespace detail {

/// A probe whose frontier covers the counting consumer itself: counts
/// records at its own input port, and reports the frontier at that port.
/// probe.Done() therefore implies the count is final — which the
/// shard-shipping epilogue relies on — and epoch acks measure true
/// end-to-end completion including sink consumption.
template <typename D, typename T>
timely::ProbeHandle<T> CountingProbe(timely::Stream<D, T> stream,
                                     std::atomic<uint64_t>* counter) {
  return ConsumingProbe(stream, "CountProbe", timely::Pact<D>::Pipeline(),
                        [counter](const T&, std::vector<D>& data) {
                          *counter += data.size();
                        });
}

/// Builds query `q` (native or Megaphone) and returns a counting probe on
/// its output; outputs are counted into `*counter`.
template <typename T>
timely::ProbeHandle<T> BuildNexmarkQuery(
    int q, bool mega, timely::Stream<ControlInst, T> ctrl,
    nexmark::NexmarkStreams<T>& in, const nexmark::QueryConfig& qcfg,
    std::atomic<uint64_t>* counter) {
  auto count = [counter](auto stream) {
    return CountingProbe(stream, counter);
  };
  switch (q) {
    case 1: return mega ? count(nexmark::Q1Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q1Native(in, qcfg));
    case 2: return mega ? count(nexmark::Q2Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q2Native(in, qcfg));
    case 3: return mega ? count(nexmark::Q3Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q3Native(in, qcfg));
    case 4: return mega ? count(nexmark::Q4Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q4Native(in, qcfg));
    case 5: return mega ? count(nexmark::Q5Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q5Native(in, qcfg));
    case 6: return mega ? count(nexmark::Q6Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q6Native(in, qcfg));
    case 7: return mega ? count(nexmark::Q7Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q7Native(in, qcfg));
    case 8: return mega ? count(nexmark::Q8Mega(ctrl, in, qcfg).stream)
                        : count(nexmark::Q8Native(in, qcfg));
  }
  MEGA_CHECK(false) << "unknown query " << q;
  return {};
}

}  // namespace detail

/// Runs the NEXMark workload; see NexmarkBenchConfig.
/// `tcfg.workers * tcfg.processes` must equal `cfg.workers`.
inline NexmarkBenchResult RunNexmarkBench(NexmarkBenchConfig cfg,
                                          const timely::Config& tcfg) {
  using T = uint64_t;
  MEGA_CHECK_EQ(tcfg.workers * std::max(1u, tcfg.processes), cfg.workers);

  NexmarkBenchResult result;
  OpenLoopRun run;

  // Event time tracks injection deadlines: one generated event stream at
  // `rate` events/second.
  cfg.gcfg.events_per_sec = static_cast<uint64_t>(cfg.rate);
  nexmark::Generator gen(cfg.gcfg);

  timely::Execute(tcfg, [&](timely::Worker& w) {
    auto [ctrl_in, p_in, a_in, b_in, probe, rep] =
        w.Dataflow<T>([&](timely::Scope<T>& s) {
      auto [ctrl, ctrl_stream] = timely::NewInput<ControlInst>(s);
      auto [persons, p_stream] = timely::NewInput<nexmark::Person>(s);
      auto [auctions, a_stream] = timely::NewInput<nexmark::Auction>(s);
      auto [bids, b_stream] = timely::NewInput<nexmark::Bid>(s);
      auto shards = AddSideChannel<BenchShard>(s, "BenchShards");
      nexmark::NexmarkStreams<T> streams{p_stream, a_stream, b_stream};
      return std::tuple{
          ctrl, persons, auctions, bids,
          detail::BuildNexmarkQuery(cfg.query, cfg.use_megaphone,
                                    ctrl_stream, streams, cfg.qcfg,
                                    &run.outputs),
          std::move(shards)};
    });
    MigrationController<T> controller(ctrl_in, probe, w.index(),
                                      {cfg.strategy, cfg.batch_size});

    const uint64_t start = run.Start();
    const uint64_t end = start + cfg.duration_ms * 1'000'000;
    OpenLoopPacer pacer(cfg.rate, start);
    MigrationSchedule schedule(
        cfg.schedule, MakeInitialAssignment(cfg.qcfg.num_bins, cfg.workers));

    OpenLoopRecorder rec(start, 1'000'000, 1);  // 1 ms epochs

    uint64_t cur_epoch = 0;
    uint64_t idx = w.index();  // event index, strided by global worker
    controller.Advance(0, 1);

    // Records are injected *at their deadline's epoch*: the stream
    // timestamp always equals the record's event time, even when the
    // system lags and records are injected in a burst (the open loop).
    // Window markers post-dated off event times therefore always land
    // strictly in the future.
    auto advance_all = [&](uint64_t e) {
      schedule.IssueDue(e - 1, controller);  // entries at ms < e
      controller.Advance(e, e + 1);
      p_in->AdvanceTo(e);
      a_in->AdvanceTo(e);
      b_in->AdvanceTo(e);
      cur_epoch = e;
    };
    auto epoch_of = [&](uint64_t record_idx) {
      return (pacer.DeadlineFor(record_idx) - start) / 1'000'000 + 1;
    };

    while (true) {
      uint64_t now = NowNanos();
      if (now >= end) break;
      uint64_t wall_epoch = 1 + (now - start) / 1'000'000;
      uint64_t due = pacer.RecordsDueBy(now);
      uint64_t injected = 0;
      while (idx < due && injected < 65536) {
        uint64_t ems = epoch_of(idx);
        if (ems > cur_epoch) advance_all(ems);
        nexmark::Event ev = gen.At(idx);
        switch (ev.kind) {
          case nexmark::Event::Kind::kPerson:
            ev.person.date_time = cur_epoch;
            p_in->Send(std::move(ev.person));
            break;
          case nexmark::Event::Kind::kAuction:
            ev.auction.date_time = cur_epoch;
            ev.auction.expires = cur_epoch + cfg.gcfg.auction_duration_ms;
            a_in->Send(std::move(ev.auction));
            break;
          case nexmark::Event::Kind::kBid:
            ev.bid.date_time = cur_epoch;
            b_in->Send(std::move(ev.bid));
            break;
        }
        idx += cfg.workers;
        injected++;
      }
      if (injected == 0) {
        // Idle: let event time follow the wall clock, but never past the
        // next record's epoch (its timestamp must still be current when
        // it is injected).
        uint64_t adv = std::min(wall_epoch, epoch_of(idx));
        if (adv > cur_epoch) advance_all(adv);
      }
      w.Step();
      std::this_thread::yield();

      if (w.IsLocalRoot()) {
        rec.Observe(
            now, cur_epoch, [&](uint64_t e) { return !probe.LessEqual(e); },
            controller.Migrating(), controller.completed_batches());
      }
    }

    run.Finish(
        w, tcfg.process_index, (idx - w.index()) / cfg.workers, cur_epoch,
        controller,
        [&] {
          p_in->Close();
          a_in->Close();
          b_in->Close();
        },
        probe, rec, rep);
  });

  run.Merge(&result);
  return result;
}

/// Single-process convenience overload: `cfg.workers` worker threads.
inline NexmarkBenchResult RunNexmarkBench(const NexmarkBenchConfig& cfg) {
  return RunNexmarkBench(cfg, timely::Config{cfg.workers});
}

// ---------------------------------------------------------------------------
// Deterministic NEXMark Q3: the multi-process correctness harness.
//
// Like RunDeterministicCount, every quantity is independent of wall time:
// a fixed event prefix from the pure generator (indices strided by global
// worker), lockstep epochs (each waits for the probe before the next),
// and a fluid reconfiguration issued at a fixed epoch. Any run with the
// same config — whatever its process split — must produce the same
// multiset of Q3 join outputs, which the distributed NEXMark test asserts
// via a sorted digest.

struct DetNexmarkConfig {
  uint32_t total_workers = 4;
  uint32_t num_bins = 32;
  uint64_t events_per_epoch = 2500;  // all workers combined
  uint64_t epochs = 6;
  /// Epoch at which every worker schedules the initial->imbalanced
  /// reconfiguration; >= epochs disables migration.
  uint64_t migrate_at_epoch = 2;
  MigrationStrategy strategy = MigrationStrategy::kFluid;
  size_t batch_size = 1;
  /// State-chunk frame bound and per-step budget (0 = monolithic). The
  /// output digest must be independent of the setting.
  uint64_t chunk_bytes = 0;
  uint64_t chunk_bytes_per_step = 0;
  nexmark::GeneratorConfig gcfg;
};

struct DetNexmarkResult {
  /// Sorted, serialized multiset of Q3Out records; filled only in the
  /// process hosting global worker 0.
  std::vector<uint8_t> digest;
  uint64_t outputs = 0;
  size_t completed_batches = 0;
  /// True iff this process hosted global worker 0 (owns digest/batches).
  bool root = false;
};

inline DetNexmarkResult RunDeterministicNexmarkQ3(const DetNexmarkConfig& cfg,
                                                  const timely::Config& tcfg) {
  using T = uint64_t;
  using nexmark::Q3Out;

  const uint32_t W = cfg.total_workers;
  MEGA_CHECK_EQ(tcfg.workers * std::max(1u, tcfg.processes), W);

  DetNexmarkResult result;
  std::shared_ptr<std::vector<Q3Out>> root_outputs;
  nexmark::Generator gen(cfg.gcfg);

  timely::Execute(tcfg, [&](timely::Worker& w) {
    auto [ctrl_in, p_in, a_in, b_in, probe, collected] =
        w.Dataflow<T>([&](timely::Scope<T>& s) {
      auto [ctrl, ctrl_stream] = timely::NewInput<ControlInst>(s);
      auto [persons, p_stream] = timely::NewInput<nexmark::Person>(s);
      auto [auctions, a_stream] = timely::NewInput<nexmark::Auction>(s);
      auto [bids, b_stream] = timely::NewInput<nexmark::Bid>(s);
      nexmark::NexmarkStreams<T> streams{p_stream, a_stream, b_stream};
      nexmark::QueryConfig qcfg;
      qcfg.num_bins = cfg.num_bins;
      qcfg.chunk_bytes = cfg.chunk_bytes;
      qcfg.chunk_bytes_per_step = cfg.chunk_bytes_per_step;
      auto out = nexmark::Q3Mega(ctrl_stream, streams, qcfg);

      // Collector on global worker 0: the single point of truth any
      // process split must agree with.
      auto outs = std::make_shared<std::vector<Q3Out>>();
      ConsumingProbe(
          out.stream, "CollectQ3",
          timely::Pact<Q3Out>::Exchange(
              [](const Q3Out&) { return uint64_t{0}; }),
          [outs](const T&, std::vector<Q3Out>& recs) {
            for (auto& r : recs) outs->push_back(std::move(r));
          });
      return std::tuple{ctrl, persons, auctions, bids, out.probe, outs};
    });
    MigrationController<T> controller(ctrl_in, probe, w.index(),
                                      {cfg.strategy, cfg.batch_size, 0});

    const MigrationPlan plan = {
        {cfg.migrate_at_epoch, MakeImbalancedAssignment(cfg.num_bins, W)}};
    MigrationSchedule schedule(plan, MakeInitialAssignment(cfg.num_bins, W));
    const uint32_t me = w.index();

    // Lockstep epochs: inject this worker's stride of the generated event
    // prefix, advance, and wait for global completion of the epoch.
    for (uint64_t e = 0; e < cfg.epochs; ++e) {
      schedule.IssueDue(e, controller);
      controller.Advance(e, e + 1);
      for (uint64_t idx = e * cfg.events_per_epoch;
           idx < (e + 1) * cfg.events_per_epoch; ++idx) {
        if (idx % W != me) continue;
        // Q3 ignores bids; skipping them keeps the lockstep run lean.
        nexmark::Event ev = gen.At(idx);
        if (ev.kind == nexmark::Event::Kind::kPerson) {
          p_in->Send(std::move(ev.person));
        } else if (ev.kind == nexmark::Event::Kind::kAuction) {
          a_in->Send(std::move(ev.auction));
        }
      }
      p_in->AdvanceTo(e + 1);
      a_in->AdvanceTo(e + 1);
      b_in->AdvanceTo(e + 1);
      w.StepUntil([&] { return !probe.LessThan(e + 1); });
    }

    const size_t completed = DrainAndCloseLockstep(
        w, controller, probe, cfg.epochs, [&](uint64_t t) {
          p_in->AdvanceTo(t);
          a_in->AdvanceTo(t);
          b_in->AdvanceTo(t);
        });
    p_in->Close();
    a_in->Close();
    b_in->Close();

    if (me == 0) {
      root_outputs = collected;  // final after Execute's post-closure drain
      result.completed_batches = completed;
      result.root = true;
    }
  });

  if (root_outputs) {
    std::sort(root_outputs->begin(), root_outputs->end());
    result.outputs = root_outputs->size();
    Writer wr;
    Encode(wr, *root_outputs);
    result.digest = wr.Take();
  }
  return result;
}

}  // namespace megaphone
