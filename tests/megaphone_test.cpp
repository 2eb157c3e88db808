// Integration tests for Megaphone's migratable operators: correctness
// (Property 1), migration placement (Property 2), and completion
// (Property 3) under all-at-once, fluid, batched, and optimized strategies.
//
// The central technique: run a stateful computation while migrating its
// bins at various times and granularities, and require the output multiset
// to equal that of a migration-free single-threaded reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace megaphone {
namespace {

using timely::Execute;
using timely::NewInput;
using timely::Probe;
using timely::Scope;
using timely::Sink;
using timely::Worker;

using BinState = std::unordered_map<uint64_t, uint64_t>;
using Row = std::array<uint64_t, 3>;  // (time, key, count)

uint64_t GenKey(uint64_t seed, uint64_t epoch, uint64_t i, uint64_t num_keys) {
  return HashMix64(seed ^ (epoch * 1000003 + i * 7919)) % num_keys;
}

/// Migration-free reference for the counting workload.
std::vector<Row> ReferenceCounts(uint64_t seed, uint64_t epochs,
                                 uint64_t recs_per_epoch, uint64_t num_keys) {
  std::map<uint64_t, uint64_t> counts;
  std::vector<Row> rows;
  for (uint64_t e = 0; e < epochs; ++e) {
    for (uint64_t i = 0; i < recs_per_epoch; ++i) {
      uint64_t k = GenKey(seed, e, i, num_keys);
      rows.push_back(Row{e, k, ++counts[k]});
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct MigSpec {
  uint64_t at_epoch;
  Assignment to;
};

struct RunResult {
  std::vector<Row> rows;                              // sorted outputs
  std::vector<std::pair<uint64_t, uint32_t>> owners;  // (time, sink worker)
  size_t completed_batches = 0;                       // on worker 0
};

RunResult RunMigratingWordCount(uint32_t workers, uint32_t num_bins,
                                MigrationStrategy strategy, size_t batch_size,
                                uint64_t gap, uint64_t epochs,
                                uint64_t recs_per_epoch, uint64_t num_keys,
                                uint64_t seed, std::vector<MigSpec> migs,
                                uint64_t chunk_bytes = 0) {
  RunResult result;
  std::mutex mu;
  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl_stream] = NewInput<ControlInst>(s);
      auto [data_in, data_stream] = NewInput<uint64_t>(s);
      Config cfg;
      cfg.num_bins = num_bins;
      cfg.chunk_bytes = chunk_bytes;
      cfg.name = "WordCount";
      auto out = Unary<BinState, std::pair<uint64_t, uint64_t>>(
          ctrl_stream, data_stream,
          [](const uint64_t& k) { return HashMix64(k); },
          [](const uint64_t&, BinState& state, std::vector<uint64_t>& recs,
             auto emit, auto&) {
            for (uint64_t k : recs) {
              emit(std::make_pair(k, ++state[k]));
            }
          },
          cfg);
      uint32_t me = s.worker();
      Sink(out.stream,
           [&, me](const uint64_t& t,
                   std::vector<std::pair<uint64_t, uint64_t>>& data) {
             std::lock_guard<std::mutex> lock(mu);
             for (auto& [k, c] : data) {
               result.rows.push_back(Row{t, k, c});
               result.owners.emplace_back(t, me);
             }
           });
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = strategy;
    opts.batch_size = batch_size;
    opts.gap = gap;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);

    Assignment current = MakeInitialAssignment(num_bins, workers);
    size_t next_mig = 0;
    for (uint64_t e = 0; e < epochs; ++e) {
      if (next_mig < migs.size() && migs[next_mig].at_epoch == e) {
        controller.MigrateTo(current, migs[next_mig].to);
        current = migs[next_mig].to;
        next_mig++;
      }
      controller.Advance(e, e + 1);
      for (uint64_t i = 0; i < recs_per_epoch; ++i) {
        if (i % workers == w.index()) {
          data_in->Send(GenKey(seed, e, i, num_keys));
        }
      }
      data_in->AdvanceTo(e + 1);
      // Pace the driver: keep the dataflow within two epochs of the input.
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(epochs);
    data_in->Close();
    if (w.index() == 0) {
      // Recorded after the run drains (worker epilogue steps to completion);
      // completed_batches only grows, so read it at the end via StepUntil.
      w.StepUntil([&] { return probe.Done(); });
      std::lock_guard<std::mutex> lock(mu);
      result.completed_batches = controller.completed_batches();
    }
  });
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

class MegaphoneMatrix
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, MigrationStrategy>> {};

TEST_P(MegaphoneMatrix, OutputsMatchReferenceUnderRebalanceMigrations) {
  auto [workers, num_bins, strategy] = GetParam();
  const uint64_t epochs = 40, recs = 64, keys = 256, seed = 42;

  auto imbalanced = MakeImbalancedAssignment(num_bins, workers);
  auto balanced = MakeInitialAssignment(num_bins, workers);
  auto result = RunMigratingWordCount(
      workers, num_bins, strategy, /*batch_size=*/3, /*gap=*/0, epochs, recs,
      keys, seed,
      {MigSpec{10, imbalanced}, MigSpec{25, balanced}});

  auto expected = ReferenceCounts(seed, epochs, recs, keys);
  ASSERT_EQ(result.rows.size(), expected.size());
  EXPECT_EQ(result.rows, expected);
  if (workers > 1) {
    EXPECT_GE(result.completed_batches, 1u) << "no migration ever completed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MegaphoneMatrix,
    ::testing::Combine(::testing::Values(2u, 4u), ::testing::Values(8u, 64u),
                       ::testing::Values(MigrationStrategy::kAllAtOnce,
                                         MigrationStrategy::kFluid,
                                         MigrationStrategy::kBatched,
                                         MigrationStrategy::kOptimized)),
    [](const auto& info) {
      std::string strat;
      switch (std::get<2>(info.param)) {
        case MigrationStrategy::kAllAtOnce: strat = "AllAtOnce"; break;
        case MigrationStrategy::kFluid: strat = "Fluid"; break;
        case MigrationStrategy::kBatched: strat = "Batched"; break;
        case MigrationStrategy::kOptimized: strat = "Optimized"; break;
      }
      return "w" + std::to_string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_" + strat;
    });

// Chunked, flow-controlled migration (tiny chunks, four per step) must be
// output-identical to the monolithic path, under every strategy and
// across a rebalance-and-back schedule.
TEST(Megaphone, ChunkedMigrationMatchesReference) {
  const uint64_t epochs = 40, recs = 64, keys = 256, seed = 42;
  const uint32_t workers = 4, bins = 16;
  auto imbalanced = MakeImbalancedAssignment(bins, workers);
  auto balanced = MakeInitialAssignment(bins, workers);
  auto expected = ReferenceCounts(seed, epochs, recs, keys);
  for (MigrationStrategy strategy :
       {MigrationStrategy::kAllAtOnce, MigrationStrategy::kFluid,
        MigrationStrategy::kBatched}) {
    auto result = RunMigratingWordCount(
        workers, bins, strategy, /*batch_size=*/3, /*gap=*/0, epochs, recs,
        keys, seed, {MigSpec{10, imbalanced}, MigSpec{25, balanced}},
        /*chunk_bytes=*/64);
    EXPECT_EQ(result.rows, expected)
        << "chunked run diverged, strategy " << StrategyName(strategy);
    EXPECT_GE(result.completed_batches, 1u);
  }
}

TEST(Megaphone, SingleWorkerNoMigration) {
  const uint64_t epochs = 10, recs = 32, keys = 64, seed = 7;
  auto result = RunMigratingWordCount(1, 16, MigrationStrategy::kAllAtOnce, 1,
                                      0, epochs, recs, keys, seed, {});
  EXPECT_EQ(result.rows, ReferenceCounts(seed, epochs, recs, keys));
}

TEST(Megaphone, SingleBin) {
  const uint64_t epochs = 12, recs = 16, keys = 32, seed = 3;
  Assignment to_one(1, 1);  // the single bin moves to worker 1
  auto result =
      RunMigratingWordCount(2, 1, MigrationStrategy::kAllAtOnce, 1, 0, epochs,
                            recs, keys, seed, {MigSpec{4, to_one}});
  EXPECT_EQ(result.rows, ReferenceCounts(seed, epochs, recs, keys));
}

TEST(Megaphone, GapBetweenBatchesPreservesCorrectness) {
  const uint64_t epochs = 60, recs = 32, keys = 128, seed = 11;
  const uint32_t workers = 4, bins = 32;
  auto result = RunMigratingWordCount(
      workers, bins, MigrationStrategy::kFluid, 1, /*gap=*/2, epochs, recs,
      keys, seed, {MigSpec{5, MakeImbalancedAssignment(bins, workers)}});
  EXPECT_EQ(result.rows, ReferenceCounts(seed, epochs, recs, keys));
}

TEST(Megaphone, MigrationMovesOwnershipToTargetWorkers) {
  // Move every bin to worker 0; outputs at times comfortably after the
  // migration must be produced exclusively by worker 0's sink instance
  // (Property 2: updates happen at configuration(time, key)).
  const uint32_t workers = 4, bins = 16;
  const uint64_t epochs = 40, recs = 64, keys = 128, seed = 9;
  Assignment all_zero(bins, 0);
  auto result =
      RunMigratingWordCount(workers, bins, MigrationStrategy::kAllAtOnce, 1, 0,
                            epochs, recs, keys, seed, {MigSpec{10, all_zero}});
  EXPECT_EQ(result.rows, ReferenceCounts(seed, epochs, recs, keys));
  bool saw_late_rows = false;
  for (auto& [t, worker] : result.owners) {
    if (t >= 20) {
      saw_late_rows = true;
      EXPECT_EQ(worker, 0u) << "record applied on wrong worker at time " << t;
    }
  }
  EXPECT_TRUE(saw_late_rows);
}

TEST(Megaphone, CompletionWhenInputsCloseMidMigration) {
  // Property 3 (liveness): schedule a migration and immediately close both
  // inputs; the dataflow must still drain and Execute must return.
  const uint32_t workers = 4, bins = 16;
  std::atomic<uint64_t> outputs{0};
  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl_stream] = NewInput<ControlInst>(s);
      auto [data_in, data_stream] = NewInput<uint64_t>(s);
      Config cfg;
      cfg.num_bins = bins;
      auto out = Unary<BinState, uint64_t>(
          ctrl_stream, data_stream,
          [](const uint64_t& k) { return HashMix64(k); },
          [](const uint64_t&, BinState& state, std::vector<uint64_t>& recs,
             auto emit, auto&) {
            for (uint64_t k : recs) emit(++state[k]);
          },
          cfg);
      Sink(out.stream, [&](const uint64_t&, std::vector<uint64_t>& d) {
        outputs += d.size();
      });
      return std::make_pair(ctrl_in, data_in);
    });
    auto& [ctrl_in, data_in] = handles;
    // Worker 0 publishes a migration of every bin, then everything closes
    // without waiting for completion.
    for (uint64_t k = w.index(); k < 64; k += workers) data_in->Send(k);
    if (w.index() == 0) {
      for (BinId b = 0; b < bins; ++b) {
        ctrl_in->Send(ControlInst{b, (b + 1) % workers});
      }
    }
    ctrl_in->Close();
    data_in->Close();
  });
  EXPECT_EQ(outputs.load(), 64u);
}

// The operator schedules an "echo" of each key three epochs after first
// sight. Bins migrate in between; every echo must still fire exactly
// once, at the right time, from the bin's new home (paper §3.4: migrated
// state includes "the list of pending (val, time) records"). With
// `chunk_bytes` set, the pending records travel as chunk sections.
void RunPostDatedEchoTest(uint64_t chunk_bytes) {
  using Rec = std::pair<uint64_t, uint64_t>;  // (key, is_echo)
  using Out = std::tuple<uint64_t, uint64_t, uint64_t>;  // (key, echo, time)
  const uint32_t workers = 4, bins = 16;
  const uint64_t kKeys = 64;
  std::mutex mu;
  std::vector<Out> outs;

  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl_stream] = NewInput<ControlInst>(s);
      auto [data_in, data_stream] = NewInput<Rec>(s);
      Config cfg;
      cfg.num_bins = bins;
      cfg.chunk_bytes = chunk_bytes;
      auto out = Unary<BinState, Out>(
          ctrl_stream, data_stream,
          [](const Rec& r) { return HashMix64(r.first); },
          [](const uint64_t& t, BinState& state, std::vector<Rec>& recs,
             auto emit, auto& sched) {
            for (auto& [k, echo] : recs) {
              emit(Out{k, echo, t});
              if (!echo && state[k]++ == 0) {
                sched.ScheduleAt(t + 3, Rec{k, 1});
              }
            }
          },
          cfg);
      Sink(out.stream, [&](const uint64_t&, std::vector<Out>& d) {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& o : d) outs.push_back(o);
      });
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kFluid;
    opts.batch_size = 1;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);
    Assignment init = MakeInitialAssignment(bins, workers);

    for (uint64_t e = 0; e < 30; ++e) {
      if (e == 1) {
        // While echoes for epoch 0 are pending at time 3, rotate every
        // bin's ownership.
        Assignment rotated = init;
        for (auto& o : rotated) o = (o + 1) % workers;
        controller.MigrateTo(init, rotated);
      }
      controller.Advance(e, e + 1);
      if (e == 0) {
        for (uint64_t k = w.index(); k < kKeys; k += workers) {
          data_in->Send(Rec{k, 0});
        }
      }
      data_in->AdvanceTo(e + 1);
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(30);
    data_in->Close();
  });

  std::vector<Out> echoes;
  for (auto& o : outs) {
    if (std::get<1>(o) == 1) echoes.push_back(o);
  }
  std::sort(echoes.begin(), echoes.end());
  ASSERT_EQ(echoes.size(), kKeys) << "each key must echo exactly once";
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(echoes[k], (Out{k, 1, 3}));  // scheduled at 0, fires at 3
  }
}

TEST(Megaphone, PostDatedRecordsMigrateWithTheirBin) {
  RunPostDatedEchoTest(/*chunk_bytes=*/0);
}

TEST(Megaphone, PostDatedRecordsMigrateChunked) {
  RunPostDatedEchoTest(/*chunk_bytes=*/48);
}

// Symmetric hash join keyed by k; outputs every (a, b) pair exactly once
// at max(time(a), time(b)), across two migrations.
void RunBinaryJoinTest(uint64_t chunk_bytes) {
  using A = std::pair<uint64_t, uint64_t>;  // (key, a-value)
  using B = std::pair<uint64_t, uint64_t>;  // (key, b-value)
  using Out = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>;
  using JoinState =
      std::unordered_map<uint64_t,
                         std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>;
  const uint32_t workers = 4, bins = 16;
  const uint64_t epochs = 30, keys = 32, seed = 17;
  std::mutex mu;
  std::vector<Out> outs;

  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl_stream] = NewInput<ControlInst>(s);
      auto [a_in, a_stream] = NewInput<A>(s);
      auto [b_in, b_stream] = NewInput<B>(s);
      Config cfg;
      cfg.num_bins = bins;
      cfg.chunk_bytes = chunk_bytes;
      cfg.name = "Join";
      auto out = Binary<JoinState, Out>(
          ctrl_stream, a_stream, b_stream,
          [](const A& a) { return HashMix64(a.first); },
          [](const B& b) { return HashMix64(b.first); },
          [](const uint64_t& t, JoinState& state, std::vector<A>& as,
             std::vector<B>& bs, auto emit, auto&) {
            for (auto& [k, a] : as) {
              for (uint64_t b : state[k].second) emit(Out{k, a, b, t});
              state[k].first.push_back(a);
            }
            for (auto& [k, b] : bs) {
              for (uint64_t a : state[k].first) emit(Out{k, a, b, t});
              state[k].second.push_back(b);
            }
          },
          cfg);
      Sink(out.stream, [&](const uint64_t&, std::vector<Out>& d) {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& o : d) outs.push_back(o);
      });
      return std::make_tuple(ctrl_in, a_in, b_in, out.probe);
    });
    auto& [ctrl_in, a_in, b_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kBatched;
    opts.batch_size = 4;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);
    Assignment balanced = MakeInitialAssignment(bins, workers);
    Assignment imbalanced = MakeImbalancedAssignment(bins, workers);

    for (uint64_t e = 0; e < epochs; ++e) {
      if (e == 8) controller.MigrateTo(balanced, imbalanced);
      if (e == 18) controller.MigrateTo(imbalanced, balanced);
      controller.Advance(e, e + 1);
      // Two a-records and one b-record per epoch, partitioned by worker.
      for (uint64_t i = 0; i < 2; ++i) {
        if ((e + i) % workers == w.index()) {
          a_in->Send(A{GenKey(seed, e, i, keys), 1000 * e + i});
        }
      }
      if (e % workers == w.index()) {
        b_in->Send(B{GenKey(seed + 1, e, 0, keys), 5000 + e});
      }
      a_in->AdvanceTo(e + 1);
      b_in->AdvanceTo(e + 1);
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(epochs);
    a_in->Close();
    b_in->Close();
  });

  // Single-threaded reference.
  std::vector<Out> expected;
  {
    std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> as, bs;
    for (uint64_t e = 0; e < epochs; ++e) {
      for (uint64_t i = 0; i < 2; ++i) {
        as[GenKey(seed, e, i, keys)].push_back({1000 * e + i, e});
      }
      bs[GenKey(seed + 1, e, 0, keys)].push_back({5000 + e, e});
    }
    for (auto& [k, avec] : as) {
      for (auto& [a, ta] : avec) {
        for (auto& [b, tb] : bs[k]) {
          expected.push_back(Out{k, a, b, std::max(ta, tb)});
        }
      }
    }
  }
  std::sort(outs.begin(), outs.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(outs, expected);
}

TEST(Megaphone, BinaryJoinUnderMigration) {
  RunBinaryJoinTest(/*chunk_bytes=*/0);
}

TEST(Megaphone, BinaryJoinUnderChunkedMigration) {
  RunBinaryJoinTest(/*chunk_bytes=*/96);
}

TEST(Megaphone, StateMachineInterface) {
  // The paper's simplest interface (Listing 1): word count over string
  // keys, with per-key state and migration mid-stream.
  using KV = std::pair<std::string, uint64_t>;
  using Out = std::pair<std::string, uint64_t>;
  const uint32_t workers = 4, bins = 8;
  std::mutex mu;
  std::map<std::string, uint64_t> final_counts;

  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl_stream] = NewInput<ControlInst>(s);
      auto [data_in, data_stream] = NewInput<KV>(s);
      Config cfg;
      cfg.num_bins = bins;
      auto out = StateMachine<uint64_t, Out, std::string, uint64_t>(
          ctrl_stream, data_stream,
          [](const std::string& k) { return HashBytes(k); },
          [](const std::string& k, uint64_t diff, uint64_t& count,
             auto emit) {
            count += diff;
            emit(Out{k, count});
          },
          cfg);
      Sink(out.stream, [&](const uint64_t&, std::vector<Out>& d) {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& [k, c] : d) {
          auto& slot = final_counts[k];
          slot = std::max(slot, c);
        }
      });
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kFluid;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);
    Assignment init = MakeInitialAssignment(bins, workers);
    Assignment all_to_last(bins, workers - 1);

    const std::vector<std::string> words = {"auction", "bid", "person",
                                            "seller", "query"};
    for (uint64_t e = 0; e < 20; ++e) {
      if (e == 5) controller.MigrateTo(init, all_to_last);
      controller.Advance(e, e + 1);
      for (size_t i = 0; i < words.size(); ++i) {
        if (i % workers == w.index()) data_in->Send(KV{words[i], 1});
      }
      data_in->AdvanceTo(e + 1);
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(20);
    data_in->Close();
  });

  for (const auto& w : {"auction", "bid", "person", "seller", "query"}) {
    EXPECT_EQ(final_counts[w], 20u) << w;
  }
}

TEST(Megaphone, ThrottledStateChannelStillCorrect) {
  // A tight bandwidth throttle on the state channel delays migrations but
  // must not affect correctness or completion.
  const uint64_t epochs = 25, recs = 48, keys = 128, seed = 23;
  const uint32_t workers = 4, bins = 16;
  std::mutex mu;
  std::vector<Row> rows;
  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl_stream] = NewInput<ControlInst>(s);
      auto [data_in, data_stream] = NewInput<uint64_t>(s);
      Config cfg;
      cfg.num_bins = bins;
      cfg.state_bytes_per_sec = 64 * 1024;  // deliberately slow
      auto out = Unary<BinState, std::pair<uint64_t, uint64_t>>(
          ctrl_stream, data_stream,
          [](const uint64_t& k) { return HashMix64(k); },
          [](const uint64_t&, BinState& state, std::vector<uint64_t>& recs,
             auto emit, auto&) {
            for (uint64_t k : recs) emit(std::make_pair(k, ++state[k]));
          },
          cfg);
      Sink(out.stream,
           [&](const uint64_t& t,
               std::vector<std::pair<uint64_t, uint64_t>>& data) {
             std::lock_guard<std::mutex> lock(mu);
             for (auto& [k, c] : data) rows.push_back(Row{t, k, c});
           });
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;
    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kAllAtOnce;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);
    for (uint64_t e = 0; e < epochs; ++e) {
      if (e == 6) {
        controller.MigrateTo(MakeInitialAssignment(bins, workers),
                             MakeImbalancedAssignment(bins, workers));
      }
      controller.Advance(e, e + 1);
      for (uint64_t i = 0; i < recs; ++i) {
        if (i % workers == w.index()) {
          data_in->Send(GenKey(seed, e, i, keys));
        }
      }
      data_in->AdvanceTo(e + 1);
      w.Step();
    }
    controller.Close(epochs);
    data_in->Close();
  });
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, ReferenceCounts(seed, epochs, recs, keys));
}

}  // namespace
}  // namespace megaphone
