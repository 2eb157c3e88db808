// Tests for the benchmark harness: histograms, timelines, RSS, the
// open-loop measurement recorder, the migration schedule, the open-loop
// count and NEXMark drivers, and the steady-throughput suite.
#include <gtest/gtest.h>

#include <cstdint>

#include <utility>
#include <vector>

#include "harness/harness.hpp"
#include "harness/migration_schedule.hpp"
#include "harness/nexmark_workload.hpp"
#include "harness/open_loop.hpp"
#include "harness/steady_workload.hpp"

namespace megaphone {
namespace {

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 16; ++v) h.Add(v);
  EXPECT_EQ(h.total(), 16u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 15u);
}

TEST(Histogram, BucketsAreMonotone) {
  int prev = -1;
  for (uint64_t v = 0; v < 1 << 20; v = v * 3 / 2 + 1) {
    int b = Histogram::BucketOf(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(Histogram, BucketEdgeContainsValue) {
  for (uint64_t v : {0ULL, 1ULL, 15ULL, 16ULL, 17ULL, 1000ULL, 123456789ULL,
                     ~0ULL >> 8}) {
    int b = Histogram::BucketOf(v);
    EXPECT_GE(Histogram::BucketUpperEdge(b), v);
    if (b > 0) {
      EXPECT_LT(Histogram::BucketUpperEdge(b - 1), v);
    }
  }
}

TEST(Histogram, RelativeErrorBounded) {
  // Log-bins with 16 sub-buckets: representative value within ~7% above.
  for (uint64_t v = 100; v < 1'000'000'000; v = v * 7 / 5) {
    uint64_t rep = Histogram::BucketUpperEdge(Histogram::BucketOf(v));
    EXPECT_GE(rep, v);
    EXPECT_LT(static_cast<double>(rep - v), 0.07 * static_cast<double>(v));
  }
}

TEST(Histogram, QuantilesOfUniform) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Add(v * 1000);  // 1k..10M
  double p50 = static_cast<double>(h.Quantile(0.50));
  double p99 = static_cast<double>(h.Quantile(0.99));
  EXPECT_NEAR(p50, 5'000'000, 0.1 * 5'000'000);
  EXPECT_NEAR(p99, 9'900'000, 0.1 * 9'900'000);
  EXPECT_EQ(h.max(), 10'000'000u);
}

TEST(Histogram, WeightedAdd) {
  Histogram h;
  h.Add(100, 99);
  h.Add(1'000'000, 1);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_LE(h.Quantile(0.5), 200u);
  EXPECT_GT(h.Quantile(0.995), 500'000u);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, CcdfIsDecreasingFromOne) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Add(v * 997);
  auto rows = h.Ccdf();
  ASSERT_FALSE(rows.empty());
  double prev = 1.0;
  for (auto& [ns, frac] : rows) {
    EXPECT_LE(frac, prev);
    prev = frac;
  }
  EXPECT_DOUBLE_EQ(rows.back().second, 0.0);
}

TEST(Timeline, BucketsByWallClock) {
  Timeline tl(250'000'000);
  tl.Add(0, 5'000'000);            // t=0, 5ms
  tl.Add(100'000'000, 10'000'000); // t=0.1s, 10ms
  tl.Add(600'000'000, 50'000'000); // t=0.6s, 50ms
  auto rows = tl.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].t_sec, 0.0);
  EXPECT_NEAR(rows[0].max_ms, 10.0, 1.0);
  EXPECT_EQ(rows[0].samples, 2u);
  EXPECT_NEAR(rows[1].t_sec, 0.5, 1e-9);
  EXPECT_NEAR(rows[1].max_ms, 50.0, 4.0);
}

TEST(Timeline, MaxInWindow) {
  Timeline tl(250'000'000);
  tl.Add(0, 1000);
  tl.Add(500'000'000, 9999);
  tl.Add(1'000'000'000, 777);
  EXPECT_EQ(tl.MaxIn(0, 250'000'000), 1000u);
  EXPECT_EQ(tl.MaxIn(0, 2'000'000'000), 9999u);
  EXPECT_EQ(tl.MaxIn(900'000'000, 2'000'000'000), 777u);
}

TEST(Rss, ReportsPlausibleValue) {
  uint64_t rss = CurrentRssBytes();
  EXPECT_GT(rss, 1u << 20);   // more than 1 MiB
  EXPECT_LT(rss, 1ULL << 40); // less than 1 TiB
}

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"bench", "--rate=1000", "--workers", "8", "--rss"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0), 1000.0);
  EXPECT_EQ(f.GetInt("workers", 0), 8u);
  EXPECT_TRUE(f.GetBool("rss", false));
  EXPECT_EQ(f.GetInt("missing", 17), 17u);
}

// A scripted run of the recorder with 1 ms epochs and 10 records per
// epoch: acks before, during and after a window; a window that closes;
// and a second window the final drain completes.
TEST(OpenLoopRecorder, ScriptedWindowsAndSamples) {
  const uint64_t ms = 1'000'000;
  const uint64_t start = 1'000 * ms;
  uint64_t acked_through = 0;
  auto acked = [&](uint64_t e) { return e <= acked_through; };
  OpenLoopRecorder rec(start, ms, 10);

  rec.Observe(start, 1, acked, false, 0);  // first tick: one RSS sample
  acked_through = 3;  // epochs 1-3 acked at 5 ms: steady samples
  rec.Observe(start + 5 * ms, 5, acked, false, 0);
  acked_through = 6;  // epochs 4-6 acked at 10 ms, as the window opens
  rec.Observe(start + 10 * ms, 10, acked, true, 0);
  const uint64_t frames0 = chunk_counters().frames.load();
  const uint64_t bytes0 = chunk_counters().bytes.load();
  chunk_counters().frames += 7;
  chunk_counters().bytes += 7000;
  // At 300 ms: epochs 7-9 acked (steady again), the 250 ms tick samples
  // epoch 10's lateness, and the window closes after 2 batches.
  acked_through = 9;
  rec.Observe(start + 300 * ms, 300, acked, false, 2);
  rec.Observe(start + 400 * ms, 400, acked, true, 2);  // second window
  chunk_counters().frames += 3;
  chunk_counters().bytes += 300;
  // The drain acks epochs 10-400 at 1 s and closes the open window.
  BenchShard shard = rec.Finish(start + 1'000 * ms, 400, 5);

  const auto& bk = shard.timeline.buckets();
  ASSERT_EQ(bk.size(), 5u);
  EXPECT_EQ(bk[0].total(), 6u);    // epochs 1-6
  EXPECT_EQ(bk[1].total(), 4u);    // epochs 7-9 plus the tick sample
  EXPECT_EQ(bk[1].max(), 293 * ms);  // epoch 7 acked 293 ms late
  EXPECT_EQ(bk[4].total(), 391u);  // the drained epochs 10-400
  EXPECT_EQ(shard.per_record.total(), (9u + 391u) * 10);
  EXPECT_EQ(shard.steady.total(), 6u * 10);  // epochs 1-3 and 7-9
  EXPECT_EQ(shard.rss.size(), 2u);           // ticks at 0 and 300 ms
  EXPECT_DOUBLE_EQ(shard.duration_sec, 1.0);

  ASSERT_EQ(shard.migrations.size(), 2u);
  const MigrationStats& w0 = shard.migrations[0];
  EXPECT_DOUBLE_EQ(w0.start_sec, 0.010);
  EXPECT_DOUBLE_EQ(w0.end_sec, 0.300);
  EXPECT_EQ(w0.batches, 2u);
  EXPECT_EQ(w0.chunk_frames, 7u);
  EXPECT_EQ(w0.chunk_bytes, 7000u);
  // [10 ms, 800 ms) covers buckets 0-3; the drain's bucket 4 is outside.
  EXPECT_DOUBLE_EQ(w0.max_ms, 293.0);
  const MigrationStats& w1 = shard.migrations[1];
  EXPECT_DOUBLE_EQ(w1.start_sec, 0.400);
  EXPECT_DOUBLE_EQ(w1.end_sec, 1.0);
  EXPECT_EQ(w1.batches, 3u);
  EXPECT_EQ(w1.chunk_frames, 3u);
  EXPECT_EQ(w1.chunk_bytes, 300u);
  EXPECT_DOUBLE_EQ(w1.max_ms, 990.0);  // epoch 10, drained at 1 s
  EXPECT_EQ(chunk_counters().frames.load() - frames0, 10u);
  EXPECT_EQ(chunk_counters().bytes.load() - bytes0, 7300u);
}

// Records the migrations a MigrationSchedule issues.
struct FakeController {
  std::vector<std::pair<Assignment, Assignment>> issued;
  void MigrateTo(const Assignment& from, const Assignment& to) {
    issued.emplace_back(from, to);
  }
};

TEST(MigrationSchedule, IssuesDueEntriesInOrderInclusive) {
  const Assignment a0 = {0, 1}, a1 = {1, 1}, a2 = {1, 0}, a3 = {0, 0};
  const MigrationPlan plan = {{5, a1}, {5, a2}, {9, a3}};
  MigrationSchedule schedule(plan, a0);
  FakeController ctrl;
  schedule.IssueDue(4, ctrl);
  EXPECT_TRUE(ctrl.issued.empty());
  EXPECT_EQ(schedule.current(), a0);
  // Both entries at 5 are due at 5 (inclusive), issued in plan order,
  // each from the assignment the previous one led to.
  schedule.IssueDue(5, ctrl);
  ASSERT_EQ(ctrl.issued.size(), 2u);
  EXPECT_EQ(ctrl.issued[0], std::make_pair(a0, a1));
  EXPECT_EQ(ctrl.issued[1], std::make_pair(a1, a2));
  schedule.IssueDue(8, ctrl);
  EXPECT_EQ(ctrl.issued.size(), 2u);
  schedule.IssueDue(100, ctrl);
  ASSERT_EQ(ctrl.issued.size(), 3u);
  EXPECT_EQ(ctrl.issued[2], std::make_pair(a2, a3));
  schedule.IssueDue(200, ctrl);  // exhausted
  EXPECT_EQ(ctrl.issued.size(), 3u);
  EXPECT_EQ(schedule.current(), a3);
}

TEST(MigrationSchedule, RestoreSkipsEarlierEntriesWithoutIssuing) {
  const Assignment a0 = {0, 1}, a1 = {1, 1}, a2 = {1, 0};
  const MigrationPlan plan = {{2, a1}, {6, a2}};
  MigrationSchedule schedule(plan, a0);
  FakeController ctrl;
  // A run restored at 6: the entry at 2 is already in its routing table,
  // the entry at 6 is not (it is due at 6, not before).
  schedule.SkipBefore(6);
  EXPECT_TRUE(ctrl.issued.empty());
  EXPECT_EQ(schedule.current(), a1);
  schedule.IssueDue(6, ctrl);
  ASSERT_EQ(ctrl.issued.size(), 1u);
  EXPECT_EQ(ctrl.issued[0], std::make_pair(a1, a2));
}

TEST(NexmarkBench, SmokeQ3WithMigration) {
  NexmarkBenchConfig cfg;
  cfg.query = 3;
  cfg.workers = 2;
  cfg.rate = 20'000;
  cfg.duration_ms = 600;
  cfg.qcfg.num_bins = 16;
  cfg.strategy = MigrationStrategy::kBatched;
  // Four moving bins, one per batch, late in the run: in slow (sanitizer)
  // builds the end-of-run drain may close the window, and it must still
  // count every batch.
  cfg.batch_size = 1;
  cfg.schedule.emplace_back(
      200, MakeImbalancedAssignment(cfg.qcfg.num_bins, cfg.workers));
  auto result = RunNexmarkBench(cfg);
  EXPECT_FALSE(result.timeline.Rows().empty());
  ASSERT_EQ(result.migrations.size(), 1u);
  EXPECT_GT(result.migrations[0].end_sec, result.migrations[0].start_sec);
  EXPECT_EQ(result.migrations[0].batches, 4u);
  EXPECT_GT(result.records_sent, 0u);  // events injected
  EXPECT_GT(result.outputs, 0u);
}

TEST(CountBench, SmokeRunNoMigration) {
  CountBenchConfig cfg;
  cfg.workers = 2;
  cfg.num_bins = 16;
  cfg.domain = 1 << 12;
  cfg.rate = 20'000;
  cfg.duration_ms = 500;
  cfg.mode = CountMode::kKeyCount;
  auto result = RunCountBench(cfg);
  EXPECT_GT(result.records_sent, 5'000u);
  EXPECT_GT(result.per_record.total(), 0u);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_FALSE(result.timeline.Rows().empty());
}

class CountBenchModes : public ::testing::TestWithParam<CountMode> {};

TEST_P(CountBenchModes, SmokeRunWithMigration) {
  CountBenchConfig cfg;
  cfg.workers = 2;
  cfg.num_bins = 16;
  cfg.domain = 1 << 12;
  cfg.rate = 20'000;
  cfg.duration_ms = 800;
  cfg.mode = GetParam();
  const bool is_native = cfg.mode == CountMode::kNativeHash ||
                         cfg.mode == CountMode::kNativeKey;
  if (!is_native) {
    cfg.schedule.emplace_back(
        200, MakeImbalancedAssignment(cfg.num_bins, cfg.workers));
    cfg.strategy = MigrationStrategy::kFluid;
  }
  auto result = RunCountBench(cfg);
  EXPECT_GT(result.records_sent, 0u);
  if (!is_native) {
    ASSERT_EQ(result.migrations.size(), 1u);
    EXPECT_GT(result.migrations[0].end_sec, result.migrations[0].start_sec);
    EXPECT_GE(result.migrations[0].batches, 1u);
  }
}

TEST(SteadyThroughput, SmokeNativeAndMegaphone) {
  for (bool mega : {false, true}) {
    SteadyConfig cfg;
    cfg.workers = 2;
    cfg.records_per_worker = 1000;
    cfg.epochs = 3;
    cfg.num_bins = 64;
    cfg.use_megaphone = mega;
    SteadyResult r = RunSteadyThroughput(cfg);
    const uint64_t per_epoch = (1000 + 3 - 1) / 3;
    EXPECT_EQ(r.records, per_epoch * cfg.epochs * cfg.workers) << mega;
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.recs_per_sec, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CountBenchModes,
                         ::testing::Values(CountMode::kHashCount,
                                           CountMode::kKeyCount,
                                           CountMode::kNativeHash,
                                           CountMode::kNativeKey,
                                           CountMode::kPadCount,
                                           CountMode::kSpillCount),
                         [](const auto& info) {
                           switch (info.param) {
                             case CountMode::kHashCount: return "HashCount";
                             case CountMode::kKeyCount: return "KeyCount";
                             case CountMode::kNativeHash: return "NativeHash";
                             case CountMode::kNativeKey: return "NativeKey";
                             case CountMode::kPadCount: return "MapState";
                             case CountMode::kSpillCount: return "LogState";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace megaphone
