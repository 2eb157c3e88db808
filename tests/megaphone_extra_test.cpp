// Additional Megaphone tests: coordinated multi-operator migration,
// migration stress (ping-pong), controller pacing (drain gap), bin
// container accounting, and misuse checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace megaphone {
namespace {

using timely::Execute;
using timely::NewInput;
using timely::Scope;
using timely::Sink;
using timely::Worker;
using BinState = std::unordered_map<uint64_t, uint64_t>;

TEST(MegaphoneExtra, NonPowerOfTwoBinsRejected) {
  EXPECT_DEATH(
      {
        Execute(timely::Config{1}, [&](Worker& w) {
          w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
            auto [ctrl_in, ctrl] = NewInput<ControlInst>(s);
            auto [data_in, data] = NewInput<uint64_t>(s);
            Config cfg;
            cfg.num_bins = 3;
            auto out = Unary<BinState, uint64_t>(
                ctrl, data, [](const uint64_t& k) { return k; },
                [](const uint64_t&, BinState&, std::vector<uint64_t>&, auto,
                   auto&) {},
                cfg);
            (void)out;
            ctrl_in->Close();
            data_in->Close();
          });
        });
      },
      "power of two");
}

// Two chained Megaphone operators sharing one control stream migrate in a
// coordinated manner (paper §3.4: "re-using the same configuration update
// stream").
TEST(MegaphoneExtra, CoordinatedMigrationOfChainedOperators) {
  const uint32_t workers = 4, bins = 16;
  const uint64_t epochs = 30, recs = 32, keys = 64;
  std::mutex mu;
  std::map<uint64_t, uint64_t> sums;  // parity -> max running sum

  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl] = NewInput<ControlInst>(s);
      auto [data_in, data] = NewInput<uint64_t>(s);
      Config cfg;
      cfg.num_bins = bins;
      // Stage 1: per-key counts, emitting (key, count).
      auto counts = Unary<BinState, std::pair<uint64_t, uint64_t>>(
          ctrl, data, [](const uint64_t& k) { return HashMix64(k); },
          [](const uint64_t&, BinState& st, std::vector<uint64_t>& rs,
             auto emit, auto&) {
            for (uint64_t k : rs) emit(std::make_pair(k, ++st[k]));
          },
          cfg);
      // Stage 2: re-keyed by key parity, running sum of counts. Shares the
      // SAME control stream, so both stages migrate together.
      auto sums_out = Unary<BinState, std::pair<uint64_t, uint64_t>>(
          ctrl, counts.stream,
          [](const std::pair<uint64_t, uint64_t>& kc) {
            return HashMix64(kc.first % 2);
          },
          [](const uint64_t&, BinState& st,
             std::vector<std::pair<uint64_t, uint64_t>>& rs, auto emit,
             auto&) {
            for (auto& [k, c] : rs) {
              st[k % 2] += 1;
              emit(std::make_pair(k % 2, st[k % 2]));
            }
          },
          cfg);
      Sink(sums_out.stream,
           [&](const uint64_t&, std::vector<std::pair<uint64_t, uint64_t>>& d) {
             std::lock_guard<std::mutex> lock(mu);
             for (auto& [p, v] : d) sums[p] = std::max(sums[p], v);
           });
      return std::make_tuple(ctrl_in, data_in, sums_out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kBatched;
    opts.batch_size = 4;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);

    for (uint64_t e = 0; e < epochs; ++e) {
      if (e == 8) {
        controller.MigrateTo(MakeInitialAssignment(bins, workers),
                             MakeImbalancedAssignment(bins, workers));
      }
      controller.Advance(e, e + 1);
      for (uint64_t i = 0; i < recs; ++i) {
        if (i % workers == w.index()) {
          data_in->Send(HashMix64(e * recs + i) % keys);
        }
      }
      data_in->AdvanceTo(e + 1);
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(epochs);
    data_in->Close();
  });

  // Every record contributes exactly one stage-2 increment: final sums
  // partition the total record count by key parity.
  EXPECT_EQ(sums[0] + sums[1], epochs * recs);
}

// Ten back-and-forth migrations; outputs still match the reference.
TEST(MegaphoneExtra, PingPongMigrationStress) {
  const uint32_t workers = 4, bins = 32;
  const uint64_t epochs = 60, recs = 32, keys = 128;
  std::mutex mu;
  std::vector<std::array<uint64_t, 3>> rows;

  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl] = NewInput<ControlInst>(s);
      auto [data_in, data] = NewInput<uint64_t>(s);
      Config cfg;
      cfg.num_bins = bins;
      auto out = Unary<BinState, std::pair<uint64_t, uint64_t>>(
          ctrl, data, [](const uint64_t& k) { return HashMix64(k); },
          [](const uint64_t&, BinState& st, std::vector<uint64_t>& rs,
             auto emit, auto&) {
            for (uint64_t k : rs) emit(std::make_pair(k, ++st[k]));
          },
          cfg);
      Sink(out.stream,
           [&](const uint64_t& t,
               std::vector<std::pair<uint64_t, uint64_t>>& d) {
             std::lock_guard<std::mutex> lock(mu);
             for (auto& [k, c] : d) rows.push_back({t, k, c});
           });
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kAllAtOnce;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);
    auto a = MakeInitialAssignment(bins, workers);
    auto b = MakeImbalancedAssignment(bins, workers);

    for (uint64_t e = 0; e < epochs; ++e) {
      if (e >= 5 && e % 5 == 0) {
        controller.MigrateTo(e % 10 == 0 ? b : a, e % 10 == 0 ? a : b);
      }
      controller.Advance(e, e + 1);
      for (uint64_t i = 0; i < recs; ++i) {
        if (i % workers == w.index()) {
          data_in->Send(HashMix64(7 ^ (e * 1000 + i)) % keys);
        }
      }
      data_in->AdvanceTo(e + 1);
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(epochs);
    data_in->Close();
  });

  // Reference.
  std::map<uint64_t, uint64_t> counts;
  std::vector<std::array<uint64_t, 3>> expected;
  for (uint64_t e = 0; e < epochs; ++e) {
    for (uint64_t i = 0; i < recs; ++i) {
      uint64_t k = HashMix64(7 ^ (e * 1000 + i)) % keys;
      expected.push_back({e, k, ++counts[k]});
    }
  }
  std::sort(rows.begin(), rows.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rows, expected);
}

// Configuration updates that do not change a bin's owner must not ship
// state or disturb outputs.
TEST(MegaphoneExtra, SelfMovesAreNoOps) {
  const uint32_t workers = 2, bins = 8;
  std::atomic<uint64_t> outputs{0};
  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl] = NewInput<ControlInst>(s);
      auto [data_in, data] = NewInput<uint64_t>(s);
      Config cfg;
      cfg.num_bins = bins;
      auto out = Unary<BinState, uint64_t>(
          ctrl, data, [](const uint64_t& k) { return HashMix64(k); },
          [](const uint64_t&, BinState& st, std::vector<uint64_t>& rs,
             auto emit, auto&) {
            for (uint64_t k : rs) emit(++st[k]);
          },
          cfg);
      Sink(out.stream, [&](const uint64_t&, std::vector<uint64_t>& d) {
        outputs += d.size();
      });
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;
    for (uint64_t e = 0; e < 10; ++e) {
      if (e == 3 && w.index() == 0) {
        // Reassign every bin to its current owner.
        for (BinId b = 0; b < bins; ++b) {
          ctrl_in->Send(ControlInst{b, InitialOwner(b, workers)});
        }
      }
      ctrl_in->AdvanceTo(e + 1);
      for (uint64_t i = w.index(); i < 16; i += workers) {
        data_in->Send(i);
      }
      data_in->AdvanceTo(e + 1);
      w.StepUntil([&] { return !probe.LessThan(e >= 1 ? e - 1 : 0); });
    }
    ctrl_in->Close();
    data_in->Close();
  });
  EXPECT_EQ(outputs.load(), 10u * 16u);
}

// The drain gap (§4.4) spaces fluid batches at least `gap` epochs apart.
TEST(MegaphoneExtra, GapSlowsBatchIssueRate) {
  const uint32_t workers = 2, bins = 8;  // imbalanced diff: 2 moves
  std::mutex mu;
  std::vector<uint64_t> completion_epochs;

  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl] = NewInput<ControlInst>(s);
      auto [data_in, data] = NewInput<uint64_t>(s);
      Config cfg;
      cfg.num_bins = bins;
      auto out = Unary<BinState, uint64_t>(
          ctrl, data, [](const uint64_t& k) { return HashMix64(k); },
          [](const uint64_t&, BinState& st, std::vector<uint64_t>& rs,
             auto emit, auto&) {
            for (uint64_t k : rs) emit(++st[k]);
          },
          cfg);
      Sink(out.stream, [](const uint64_t&, std::vector<uint64_t>&) {});
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kFluid;
    opts.gap = 4;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);

    size_t seen = 0;
    for (uint64_t e = 0; e < 80; ++e) {
      if (e == 5) {
        controller.MigrateTo(MakeInitialAssignment(bins, workers),
                             MakeImbalancedAssignment(bins, workers));
      }
      controller.Advance(e, e + 1);
      if (w.index() == 0 && controller.completed_batches() > seen) {
        std::lock_guard<std::mutex> lock(mu);
        completion_epochs.push_back(e);
        seen = controller.completed_batches();
      }
      for (uint64_t i = w.index(); i < 8; i += workers) data_in->Send(i);
      data_in->AdvanceTo(e + 1);
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(80);
    data_in->Close();
  });

  // bins=8, workers=2 -> imbalanced moves 2 bins; fluid = 2 batches.
  ASSERT_EQ(completion_epochs.size(), 2u);
  // The second batch may not be issued until gap epochs after the first
  // completed, so completions are at least `gap` epochs apart.
  EXPECT_GE(completion_epochs[1] - completion_epochs[0], 4u);
}

// Every frame payload of one cursor, in order.
std::vector<std::vector<uint8_t>> DrainFrames(FrameCursor& cursor,
                                              size_t bound) {
  std::vector<std::vector<uint8_t>> frames;
  while (!cursor.done()) {
    Writer w;
    cursor.NextFrame(w, bound);
    frames.push_back(w.Take());
  }
  return frames;
}

TEST(MegaphoneExtra, BinsSharedAccounting) {
  using BinT = Bin<uint64_t, uint64_t, uint64_t>;
  BinsShared<BinT, uint64_t> shared(4);
  EXPECT_EQ(shared.ResidentBins(), 0u);
  shared.bins[1] = std::make_unique<BinT>();
  shared.bins[1]->user_state() = 99;
  std::get<0>(shared.bins[1]->pending)[7].push_back(42);
  shared.bins[3] = std::make_unique<BinT>();
  EXPECT_EQ(shared.ResidentBins(), 2u);

  EXPECT_TRUE(shared.RegisterPending(7, 1));   // new time
  EXPECT_FALSE(shared.RegisterPending(7, 3));  // known time, new bin

  // Extracting a bin unregisters its pending times and clears the slot;
  // nothing is encoded until the cursor is asked for a frame.
  // Bound 0: the monolithic path, exactly one frame.
  auto cursor = detail::ExtractBin(shared, 1);
  ASSERT_TRUE(cursor);
  EXPECT_EQ(shared.ResidentBins(), 1u);
  EXPECT_FALSE(shared.bins[1]);
  EXPECT_EQ(shared.pending_bins[7].count(1), 0u);
  EXPECT_EQ(shared.pending_bins[7].count(3), 1u);
  auto frames = DrainFrames(*cursor, 0);
  ASSERT_EQ(frames.size(), 1u);

  // The shipped bin round-trips with state and pending records.
  BinT back;
  Reader r(frames[0]);
  back.AbsorbChunk(r, /*last=*/true);
  EXPECT_EQ(back.user_state(), 99u);
  ASSERT_EQ(std::get<0>(back.pending)[7].size(), 1u);
  EXPECT_EQ(std::get<0>(back.pending)[7][0], 42u);

  // Extracting a non-resident bin yields nothing to ship.
  EXPECT_FALSE(detail::ExtractBin(shared, 0));
}

TEST(MegaphoneExtra, ChunkedExtractionRebuildsTheSameBin) {
  using BinT = Bin<std::unordered_map<uint64_t, uint64_t>, uint64_t, uint64_t>;
  BinsShared<BinT, uint64_t> shared(2);
  shared.bins[0] = std::make_unique<BinT>();
  auto& st = shared.bins[0]->user_state();
  for (uint64_t k = 0; k < 500; ++k) st[k] = k * 3;
  std::get<0>(shared.bins[0]->pending)[11] = {1, 2, 3};
  std::get<0>(shared.bins[0]->pending)[12] = {4};
  shared.RegisterPending(11, 0);
  shared.RegisterPending(12, 0);

  auto cursor = detail::ExtractBin(shared, 0);
  ASSERT_TRUE(cursor);
  auto frames = DrainFrames(*cursor, 256);
  ASSERT_GT(frames.size(), 2u) << "500 entries at 256-byte chunks";
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    EXPECT_LE(frames[i].size(), 256 + 64u) << "chunk far above the byte bound";
  }

  BinT back;
  for (size_t i = 0; i < frames.size(); ++i) {
    Reader r(frames[i]);
    back.AbsorbChunk(r, i + 1 == frames.size());
  }
  EXPECT_EQ(back.user_state().size(), 500u);
  EXPECT_EQ(back.user_state()[123], 369u);
  EXPECT_EQ(std::get<0>(back.pending),
            (std::map<uint64_t, std::vector<uint64_t>>{{11, {1, 2, 3}},
                                                       {12, {4}}}));
}

TEST(MegaphoneExtra, PlanBatchesEmptyDiff) {
  auto a = MakeInitialAssignment(8, 4);
  for (auto strat :
       {MigrationStrategy::kAllAtOnce, MigrationStrategy::kFluid,
        MigrationStrategy::kBatched, MigrationStrategy::kOptimized}) {
    auto batches = PlanBatches(strat, {}, a, 4);
    EXPECT_TRUE(batches.empty()) << StrategyName(strat);
  }
}

// A self-perpetuating post-dated chain (each firing schedules the next)
// survives repeated migrations: exactly one firing per period.
TEST(MegaphoneExtra, PeriodicTimerChainSurvivesMigrations) {
  const uint32_t workers = 4, bins = 8;
  const uint64_t kPeriod = 3, kKeys = 8, epochs = 40;
  using Rec = std::pair<uint64_t, uint64_t>;  // (key, is_timer)
  std::mutex mu;
  std::map<uint64_t, std::vector<uint64_t>> firings;  // key -> times

  Execute(timely::Config{workers}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [ctrl_in, ctrl] = NewInput<ControlInst>(s);
      auto [data_in, data] = NewInput<Rec>(s);
      Config cfg;
      cfg.num_bins = bins;
      auto out = Unary<BinState, Rec>(
          ctrl, data, [](const Rec& r) { return HashMix64(r.first); },
          [kPeriod, epochs](const uint64_t& t, BinState&,
                            std::vector<Rec>& rs, auto emit, auto& sched) {
            for (auto& [k, timer] : rs) {
              if (timer) emit(Rec{k, t});
              if (t + kPeriod < epochs) {
                sched.ScheduleAt(t + kPeriod, Rec{k, 1});
              }
            }
          },
          cfg);
      Sink(out.stream, [&](const uint64_t&, std::vector<Rec>& d) {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& [k, t] : d) firings[k].push_back(t);
      });
      return std::make_tuple(ctrl_in, data_in, out.probe);
    });
    auto& [ctrl_in, data_in, probe] = handles;

    typename MigrationController<uint64_t>::Options opts;
    opts.strategy = MigrationStrategy::kFluid;
    MigrationController<uint64_t> controller(ctrl_in, probe, w.index(), opts);
    auto a = MakeInitialAssignment(bins, workers);

    for (uint64_t e = 0; e < epochs; ++e) {
      if (e == 7 || e == 17 || e == 27) {
        auto b = a;
        for (auto& o : b) o = (o + 1) % workers;
        controller.MigrateTo(a, b);
        a = b;
      }
      controller.Advance(e, e + 1);
      if (e == 0) {
        for (uint64_t k = w.index(); k < kKeys; k += workers) {
          data_in->Send(Rec{k, 0});  // seed the chain
        }
      }
      data_in->AdvanceTo(e + 1);
      uint64_t lag = e >= 2 ? e - 2 : 0;
      w.StepUntil([&] { return !probe.LessThan(lag); });
    }
    controller.Close(epochs);
    data_in->Close();
  });

  for (uint64_t k = 0; k < kKeys; ++k) {
    auto& times = firings[k];
    std::sort(times.begin(), times.end());
    // Seeded at 0, fires at 3, 6, 9, ..., < epochs.
    ASSERT_EQ(times.size(), (epochs - 1) / kPeriod) << "key " << k;
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_EQ(times[i], (i + 1) * kPeriod) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace megaphone
