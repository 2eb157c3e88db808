// Tests for lazy migration extraction: a migrating bin moves into a
// cursor that encodes its frames only when F's per-step flow control asks
// for them. Covers laziness, the memory bound, the per-step budget, the
// capability release at the last frame, and round trips of every backend
// (with post-dated pending records, unary and binary bins) at every bound.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "megaphone/bin.hpp"
#include "megaphone/control.hpp"
#include "megaphone/stateful.hpp"
#include "state/checkpoint.hpp"
#include "state/state.hpp"

namespace megaphone {
namespace {

using timely::Antichain;
using timely::OpCtx;

/// A dense backend that counts the chunks its cursors have encoded — and
/// a user-defined ChunkableState, which the bin layer must accept as is.
struct CountedState {
  state::DenseState<uint64_t> d;
  static inline size_t encoded = 0;

  void Serialize(Writer& w) const { d.Serialize(w); }
  static CountedState Deserialize(Reader& r) {
    return CountedState{state::DenseState<uint64_t>::Deserialize(r)};
  }

  class ChunkCursor {
   public:
    explicit ChunkCursor(const CountedState& s) : c_(s.d) {}
    bool done() const { return c_.done(); }
    void Next(size_t max_bytes, Writer& w) {
      ++encoded;
      c_.Next(max_bytes, w);
    }

   private:
    state::DenseState<uint64_t>::ChunkCursor c_;
  };

  void AbsorbChunk(Reader& r) { d.AbsorbChunk(r); }
  void FinishAbsorb() {}
};
static_assert(state::ChunkableState<CountedState>);

using CountedBin = Bin<CountedState, uint64_t, uint64_t>;
constexpr size_t kChunk = 65536;
constexpr size_t kValues = 1 << 16;  // 512 KB: 8 full 64 KB chunks + a tail
constexpr size_t kFramesPerBin = 9;

/// Worker 0 of 2 owns the even bins of 4; `bins` of them, each holding
/// kValues counts, migrate to worker 1 at time `t`.
struct MigrationFixture {
  BinsShared<CountedBin, uint64_t> shared{4};
  ControlState<uint64_t> cs{4, 2, 0};
  OpCtx<uint64_t> ctx{nullptr, "F"};

  MigrationFixture() { ctx.NoteInputTime(0); }

  void Plan(uint64_t t, std::vector<BinId> bins) {
    std::vector<ControlInst> updates;
    for (BinId b : bins) {
      updates.push_back(ControlInst{b, 1});
      shared.bins[b] = std::make_unique<CountedBin>();
      shared.bins[b]->state.d.resize(kValues);
      for (size_t i = 0; i < kValues; ++i) shared.bins[b]->state.d[i] = i + b;
    }
    cs.Enqueue(ctx, t, updates);
  }

  void Start(uint64_t frontier) {
    cs.IntegrateFinal(ctx, Antichain<uint64_t>({frontier}));
    cs.RunReadyMigrations(
        ctx, [](const uint64_t&) { return true; },
        [&](const uint64_t&, BinId b) {
          return detail::ExtractBin(shared, b, kChunk);
        });
  }

  std::vector<std::pair<uint64_t, BinChunk>> Flush(uint64_t budget) {
    std::vector<std::pair<uint64_t, BinChunk>> sent;
    cs.FlushChunks(ctx, budget, [&](const uint64_t& t, BinChunk&& c) {
      sent.emplace_back(t, std::move(c));
    });
    return sent;
  }
};

TEST(ChunkCursor, NothingIsEncodedBeforeTheFlush) {
  MigrationFixture f;
  f.Plan(5, {0, 2});
  CountedState::encoded = 0;
  f.Start(6);
  EXPECT_EQ(f.cs.queued_bins(), 2u);
  EXPECT_FALSE(f.shared.bins[0]);
  EXPECT_FALSE(f.shared.bins[2]);
  EXPECT_EQ(CountedState::encoded, 0u) << "extraction must not encode";
  EXPECT_TRUE(f.ctx.HasCap(5)) << "t is held while frames are pending";
}

TEST(ChunkCursor, EachFlushEncodesOnlyWhatItSends) {
  MigrationFixture f;
  f.Plan(5, {0, 2});
  CountedState::encoded = 0;
  f.Start(6);
  size_t sent = 0;
  for (int step = 0; f.cs.queued_bins() > 0; ++step) {
    ASSERT_LT(step, 100);
    sent += f.Flush(2 * kChunk).size();
    // At most one frame encoded and not yet sent (here: none).
    EXPECT_LE(CountedState::encoded, sent + 1);
    EXPECT_GE(CountedState::encoded, sent);
  }
  EXPECT_EQ(sent, 2 * kFramesPerBin);
}

// k x chunk_bytes of budget sends k full frames per step; the default
// budget (4 x chunk_bytes) sends 4.
TEST(ChunkCursor, BudgetOfKChunksSendsKFullFrames) {
  Config cfg;
  cfg.chunk_bytes = kChunk;
  for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4}}) {
    MigrationFixture f;
    f.Plan(5, {0});
    f.Start(6);
    uint64_t budget = k == 4 ? cfg.ChunkStepBudget() : k * kChunk;
    auto sent = f.Flush(budget);
    ASSERT_EQ(sent.size(), k) << "budget " << budget;
    for (const auto& [t, c] : sent) {
      EXPECT_EQ(c.bytes.size(), state::kSectionHeader + kChunk)
          << "a full frame: one section of offset + 8191 values";
    }
  }
}

// A frame-by-frame flush: the capability at t goes with the last frame of
// the last cursor at t, not before; a later time waits for its own.
TEST(ChunkCursor, CapabilityIsReleasedWithTheLastFrameAtT) {
  MigrationFixture f;
  f.Plan(5, {0});
  f.Plan(7, {2});
  f.Start(8);
  size_t frames = 0;
  while (f.cs.queued_bins() > 0) {
    auto sent = f.Flush(1);  // one frame per step
    ASSERT_EQ(sent.size(), 1u);
    ++frames;
    EXPECT_EQ(sent[0].first, frames <= kFramesPerBin ? 5u : 7u);
    EXPECT_EQ(f.ctx.HasCap(5), frames < kFramesPerBin) << "frame " << frames;
    EXPECT_EQ(f.ctx.HasCap(7), frames < 2 * kFramesPerBin)
        << "frame " << frames;
  }
  EXPECT_EQ(frames, 2 * kFramesPerBin);
}

TEST(ChunkCursor, NonResidentBinsReleaseTheirTimeAtOnce) {
  MigrationFixture f;
  std::vector<ControlInst> updates{ControlInst{0, 1}};
  f.cs.Enqueue(f.ctx, 5, updates);  // bin 0 was never populated here
  f.Start(6);
  EXPECT_EQ(f.cs.queued_bins(), 0u);
  EXPECT_FALSE(f.ctx.HasCap(5));
  EXPECT_TRUE(f.Flush(0).empty());
}

// Frames carry their bin, target and sequence, and the last flag is set on
// exactly the final frame of each bin.
TEST(ChunkCursor, FramesAreSequencedPerBin) {
  MigrationFixture f;
  f.Plan(5, {0, 2});
  f.Start(6);
  auto sent = f.Flush(0);  // unbounded: everything in one step
  ASSERT_EQ(sent.size(), 2 * kFramesPerBin);
  for (size_t i = 0; i < sent.size(); ++i) {
    const BinChunk& c = sent[i].second;
    EXPECT_EQ(c.bin, i < kFramesPerBin ? 0u : 2u);
    EXPECT_EQ(c.target, 1u);
    EXPECT_EQ(c.seq, i % kFramesPerBin);
    EXPECT_EQ(c.last != 0, i % kFramesPerBin == kFramesPerBin - 1);
  }
  EXPECT_FALSE(f.ctx.HasCap(5));
}

// ------------------------------------------------------------ round trips

std::vector<std::vector<uint8_t>> DrainFrames(FrameCursor& cursor) {
  std::vector<std::vector<uint8_t>> frames;
  while (!cursor.done()) {
    Writer w;
    cursor.NextFrame(w);
    frames.push_back(w.Take());
  }
  return frames;
}

template <typename BinT>
std::unique_ptr<BinT> AbsorbFrames(
    const std::vector<std::vector<uint8_t>>& frames) {
  auto back = std::make_unique<BinT>();
  for (size_t i = 0; i < frames.size(); ++i) {
    Reader r(frames[i]);
    back->AbsorbChunk(r, i + 1 == frames.size());
  }
  return back;
}

// Comparable contents of any backend.
template <typename B>
auto Contents(const B& b) {
  if constexpr (requires { b.Snapshot(); }) {
    return b.Snapshot();
  } else if constexpr (requires { b.raw(); }) {
    return b.raw();
  } else {
    return b.value;
  }
}

void Fill(state::MapState<uint64_t, std::string>& s, Xoshiro256& rng) {
  for (int i = 0; i < 300; ++i) s[rng.Next()] = std::string(rng.NextBelow(40), 'm');
}
void Fill(state::SortedState<uint64_t, uint64_t>& s, Xoshiro256& rng) {
  for (int i = 0; i < 300; ++i) s[rng.Next()] = rng.Next();
}
void Fill(state::DenseState<uint64_t>& s, Xoshiro256& rng) {
  s.resize(5000);
  for (size_t i = 0; i < s.size(); ++i) s[i] = rng.Next();
}
void Fill(state::LogState<uint64_t, std::string>& s, Xoshiro256& rng) {
  for (int i = 0; i < 300; ++i) s[rng.NextBelow(1000)] = std::string(20, 'l');
  s.FlushNow();  // part on disk, part in the memtable
  for (int i = 0; i < 50; ++i) s[rng.NextBelow(1000)] = std::string(5, 'x');
  for (int i = 0; i < 20; ++i) s.erase(rng.NextBelow(1000));
}
void Fill(state::DenseState<std::string>& s, Xoshiro256& rng) {
  s.resize(200);  // not raw bytes: the per-element path
  for (size_t i = 0; i < s.size(); ++i) s[i] = std::to_string(rng.Next());
}
using BlobValue = std::pair<std::string, std::vector<uint64_t>>;
void Fill(state::BlobState<BlobValue>& s, Xoshiro256& rng) {
  s.value.first = std::to_string(rng.Next());
  for (int i = 0; i < 100; ++i) s.value.second.push_back(rng.Next());
}

// Fills a bin deterministically from `seed`, post-dated records included;
// called twice to get a reference, since LogState bins are move-only.
template <typename BinT>
void FillBin(BinT& bin, uint64_t seed) {
  Xoshiro256 rng(seed);
  Fill(bin.state, rng);
  if constexpr (requires { bin.pending; }) {
    for (uint64_t t = 10; t < 14; ++t) {
      for (int i = 0; i < 30; ++i) bin.pending[t].push_back(rng.Next());
    }
  } else {
    for (uint64_t t = 10; t < 14; ++t) {
      for (int i = 0; i < 30; ++i) bin.pending1[t].push_back(rng.Next());
      bin.pending2[t + 1].push_back(std::to_string(t * 7));
    }
  }
}

template <typename BinT>
void ExpectSamePending(const BinT& a, const BinT& b) {
  if constexpr (requires { a.pending; }) {
    EXPECT_EQ(a.pending, b.pending);
  } else {
    EXPECT_EQ(a.pending1, b.pending1);
    EXPECT_EQ(a.pending2, b.pending2);
  }
}

template <typename BinT>
void RoundTripAtEveryBound() {
  for (size_t bound : {size_t{0}, size_t{1}, size_t{17}, size_t{4096},
                       size_t{65536}}) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    BinsShared<BinT, uint64_t> shared(2);
    shared.bins[1] = std::make_unique<BinT>();
    FillBin(*shared.bins[1], 99);
    shared.bins[1]->ForEachPendingTime(
        [&](const uint64_t& t) { shared.RegisterPending(t, 1); });
    auto cursor = detail::ExtractBin(shared, 1, bound);
    ASSERT_TRUE(cursor);
    for (const auto& [t, bins] : shared.pending_bins) {
      EXPECT_EQ(bins.count(1), 0u) << "pending time " << t << " still held";
    }
    auto frames = DrainFrames(*cursor);
    if (bound == 0) {
      EXPECT_EQ(frames.size(), 1u);
    } else if (bound == 1) {
      EXPECT_GT(frames.size(), 4u);
    }
    auto back = AbsorbFrames<BinT>(frames);

    BinT ref;
    FillBin(ref, 99);
    EXPECT_EQ(Contents(back->state), Contents(ref.state));
    ExpectSamePending(*back, ref);
  }
}

template <typename S>
using UnaryBin = Bin<S, uint64_t, uint64_t>;
template <typename S>
using PairBin = BinaryBin<S, uint64_t, std::string, uint64_t>;

TEST(ChunkCursor, MapBinsRoundTrip) {
  RoundTripAtEveryBound<UnaryBin<state::MapState<uint64_t, std::string>>>();
  RoundTripAtEveryBound<PairBin<state::MapState<uint64_t, std::string>>>();
}
TEST(ChunkCursor, SortedBinsRoundTrip) {
  RoundTripAtEveryBound<UnaryBin<state::SortedState<uint64_t, uint64_t>>>();
  RoundTripAtEveryBound<PairBin<state::SortedState<uint64_t, uint64_t>>>();
}
TEST(ChunkCursor, DenseBinsRoundTrip) {
  RoundTripAtEveryBound<UnaryBin<state::DenseState<uint64_t>>>();
  RoundTripAtEveryBound<PairBin<state::DenseState<uint64_t>>>();
  RoundTripAtEveryBound<UnaryBin<state::DenseState<std::string>>>();
}
TEST(ChunkCursor, LogBinsRoundTrip) {
  RoundTripAtEveryBound<UnaryBin<state::LogState<uint64_t, std::string>>>();
  RoundTripAtEveryBound<PairBin<state::LogState<uint64_t, std::string>>>();
}
TEST(ChunkCursor, BlobBinsRoundTrip) {
  static_assert(std::is_same_v<UnaryBin<BlobValue>::Backend,
                               state::BlobState<BlobValue>>);
  RoundTripAtEveryBound<UnaryBin<BlobValue>>();
  RoundTripAtEveryBound<PairBin<BlobValue>>();
}

TEST(ChunkCursor, EmptyResidentBinYieldsOneFinalFrame) {
  using BinT = UnaryBin<std::unordered_map<uint64_t, uint64_t>>;
  BinsShared<BinT, uint64_t> shared(2);
  shared.bins[0] = std::make_unique<BinT>();
  auto cursor = detail::ExtractBin(shared, 0, 64);
  ASSERT_TRUE(cursor);
  EXPECT_EQ(DrainFrames(*cursor),
            (std::vector<std::vector<uint8_t>>{std::vector<uint8_t>{}}));
  EXPECT_EQ(shared.ResidentBins(), 0u);
  EXPECT_FALSE(detail::ExtractBin(shared, 1, 64)) << "non-resident bin";
}

// A monolithic migration of a LogState bin inside a checkpoint scope
// ships the state's bytes — not a manifest of paths into the checkpoint
// directory, which the destination may never see.
TEST(ChunkCursor, MonolithicLogBinShipsBytesUnderACheckpointScope) {
  namespace fs = std::filesystem;
  using BinT = UnaryBin<state::LogState<uint64_t, std::string>>;
  fs::path root = fs::temp_directory_path() /
                  ("chunk_cursor_ckpt_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root / "ckpt");
  std::vector<std::vector<uint8_t>> frames;
  {
    state::CheckpointDirScope scope((root / "ckpt").string());
    BinsShared<BinT, uint64_t> shared(1);
    shared.bins[0] = std::make_unique<BinT>();
    FillBin(*shared.bins[0], 7);
    auto cursor = detail::ExtractBin(shared, 0, /*chunk_bytes=*/0);
    frames = DrainFrames(*cursor);
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(fs::is_empty(root / "ckpt")) << "migration wrote a checkpoint";
  fs::remove_all(root / "ckpt");
  auto back = AbsorbFrames<BinT>(frames);
  BinT ref;
  FillBin(ref, 7);
  EXPECT_EQ(back->state.Snapshot(), ref.state.Snapshot());
  EXPECT_EQ(back->pending, ref.pending);
  fs::remove_all(root);
}

}  // namespace
}  // namespace megaphone
