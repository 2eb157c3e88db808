// Tests for lazy migration extraction: a migrating bin moves into a
// cursor that encodes its frames only when F's per-step flow control asks
// for them. Covers laziness, the memory bound, the per-step budget, the
// capability release at the last frame, and round trips of every backend
// (with post-dated pending records, unary and binary bins) at every bound.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "megaphone/adaptive.hpp"
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

/// Worker 0 of `workers` migrates its resident bins at planned times;
/// frames are cut at `chunk` bytes of section payload.
template <typename BinT>
struct Migration {
  Migration(uint32_t num_bins, uint32_t workers, size_t chunk)
      : shared(num_bins), cs(num_bins, workers, 0), chunk(chunk) {
    ctx.NoteInputTime(0);
  }

  BinsShared<BinT, uint64_t> shared;
  ControlState<uint64_t> cs;
  OpCtx<uint64_t> ctx{nullptr, "F"};
  size_t chunk;

  /// Moves each (bin, target) at time `t`; the bins must be resident.
  void Plan(uint64_t t, std::vector<ControlInst> moves) {
    cs.Enqueue(ctx, t, moves);
  }

  void Start(uint64_t frontier) {
    cs.IntegrateFinal(ctx, Antichain<uint64_t>({frontier}));
    cs.RunReadyMigrations(
        ctx, [](const uint64_t&) { return true; },
        [&](const uint64_t&, BinId b) {
          return detail::ExtractBin(shared, b);
        });
  }

  std::vector<std::pair<uint64_t, BinChunk>> Flush(uint64_t budget) {
    std::vector<std::pair<uint64_t, BinChunk>> sent;
    cs.FlushChunks(ctx, chunk, budget, [&](const uint64_t& t, BinChunk&& c) {
      sent.emplace_back(t, std::move(c));
    });
    return sent;
  }
};

/// Worker 0 of 2 owns the even bins of 4; `bins` of them, each holding
/// kValues counts, migrate to worker 1 at time `t`.
struct MigrationFixture : Migration<CountedBin> {
  MigrationFixture() : Migration(4, 2, kChunk) {}

  void Plan(uint64_t t, std::vector<BinId> bins) {
    std::vector<ControlInst> updates;
    for (BinId b : bins) {
      updates.push_back(ControlInst{b, 1});
      shared.bins[b] = std::make_unique<CountedBin>();
      shared.bins[b]->state.d.resize(kValues);
      for (size_t i = 0; i < kValues; ++i) shared.bins[b]->state.d[i] = i + b;
    }
    Migration::Plan(t, updates);
  }
};

/// The bin segments of one frame, as (bin, seq, last).
struct SegmentInfo {
  BinId bin;
  uint32_t seq;
  bool last;
  friend bool operator==(const SegmentInfo&, const SegmentInfo&) = default;
};
std::vector<SegmentInfo> Segments(const BinChunk& c) {
  std::vector<SegmentInfo> out;
  ForEachSegment(c, [&](BinId bin, uint32_t seq, bool last, Reader&) {
    out.push_back({bin, seq, last});
  });
  return out;
}

/// The section payload of one frame: the bytes the chunk bound counts.
size_t SectionPayload(const BinChunk& c) {
  size_t n = 0;
  ForEachSegment(c, [&](BinId, uint32_t, bool, Reader& r) {
    state::ForEachSection(r,
                          [&](uint8_t, Reader& sec) { n += sec.remaining(); });
  });
  return n;
}

/// Worker 1, the destination: absorbs frames through S's frame-absorb
/// path.
template <typename BinT>
struct Destination {
  explicit Destination(uint32_t num_bins) : shared(num_bins) {}

  BinsShared<BinT, uint64_t> shared;
  std::map<BinId, detail::AbsorbingBin<BinT>> absorbing;
  std::set<uint64_t> held;

  void Absorb(const BinChunk& c) {
    detail::AbsorbChunkFrame(shared, absorbing, c, 1,
                             [&](const uint64_t& t) { held.insert(t); });
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

// Each chunk the flush encodes goes out in that flush: the encoded chunks
// equal the bin segments sent. Two 512 KB bins at one t pack into 17
// frames: the second bin starts in the tail of the first bin's last frame.
TEST(ChunkCursor, EachFlushEncodesOnlyWhatItSends) {
  MigrationFixture f;
  f.Plan(5, {0, 2});
  CountedState::encoded = 0;
  f.Start(6);
  size_t frames = 0;
  size_t segments = 0;
  for (int step = 0; f.cs.queued_bins() > 0; ++step) {
    ASSERT_LT(step, 100);
    for (const auto& [t, c] : f.Flush(2 * kChunk)) {
      ++frames;
      segments += Segments(c).size();
    }
    EXPECT_EQ(CountedState::encoded, segments);
  }
  EXPECT_EQ(frames, 2 * kFramesPerBin - 1);
  EXPECT_EQ(segments, 2 * kFramesPerBin);
}

// k x chunk_bytes of budget sends k full frames per step; the operator's
// budget (kChunkFramesPerStep x chunk_bytes) sends 4.
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

// Frames carry their first segment's bin, target and sequence, and the
// last flag is set on exactly the final segment of each bin: bin 0's
// ninth frame carries its tail plus bin 2's first segment, and bin 2
// continues at seq 1.
TEST(ChunkCursor, FramesAreSequencedPerBin) {
  MigrationFixture f;
  f.Plan(5, {0, 2});
  f.Start(6);
  auto sent = f.Flush(0);  // unbounded budget: everything in one step
  ASSERT_EQ(sent.size(), 2 * kFramesPerBin - 1);
  for (size_t i = 0; i < sent.size(); ++i) {
    const BinChunk& c = sent[i].second;
    const bool second_bin = i >= kFramesPerBin;
    EXPECT_EQ(c.bin, second_bin ? 2u : 0u);
    EXPECT_EQ(c.target, 1u);
    EXPECT_EQ(c.seq, second_bin ? i - kFramesPerBin + 1 : i);
    EXPECT_EQ(c.last != 0, i == kFramesPerBin - 1 || i + 1 == sent.size());
    std::vector<SegmentInfo> segs = Segments(c);
    if (i == kFramesPerBin - 1) {
      EXPECT_EQ(segs, (std::vector<SegmentInfo>{{0, 8, true}, {2, 0, false}}));
    } else {
      EXPECT_EQ(segs.size(), 1u);
    }
  }
  EXPECT_FALSE(f.ctx.HasCap(5));
}

// ------------------------------------------------------------ packing

using SmallBin = Bin<state::DenseState<uint64_t>, uint64_t, uint64_t>;

/// Makes `bin` resident with `values` counts.
void MakeDense(BinsShared<SmallBin, uint64_t>& shared, BinId bin,
               size_t values) {
  shared.bins[bin] = std::make_unique<SmallBin>();
  shared.bins[bin]->state.resize(values);
  for (size_t i = 0; i < values; ++i) shared.bins[bin]->state[i] = i * bin;
}

// N small bins to one target pack into ceil(payload / chunk_bytes)
// frames, and no frame's section payload exceeds the bound by more than
// the backend's one-element overshoot.
TEST(ChunkCursor, SmallBinsPackIntoFullFrames) {
  for (size_t chunk : {size_t{4096}, size_t{65536}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    Migration<SmallBin> f(256, 2, chunk);
    std::vector<ControlInst> moves;
    for (BinId b = 0; b < 256; b += 2) {
      MakeDense(f.shared, b, 256);  // 2 KB: one 2,064-byte state section
      moves.push_back({b, 1});
    }
    f.Plan(5, moves);
    f.Start(6);
    auto sent = f.Flush(0);
    const size_t payload =
        128 * (2 * sizeof(uint64_t) + 256 * sizeof(uint64_t));
    EXPECT_EQ(sent.size(), (payload + chunk - 1) / chunk);
    size_t total = 0;
    size_t segments = 0;
    for (const auto& [t, c] : sent) {
      const size_t p = SectionPayload(c);
      EXPECT_LE(p, chunk + sizeof(uint64_t)) << "past one value's overshoot";
      total += p;
      segments += Segments(c).size();
    }
    // Each segment's state section carries its own u64 offset and total.
    EXPECT_EQ(total, 128 * 256 * sizeof(uint64_t) + segments * 16);
    Destination<SmallBin> d(256);
    for (const auto& [t, c] : sent) d.Absorb(c);
    EXPECT_EQ(d.shared.ResidentBins(), 128u);
    EXPECT_TRUE(d.absorbing.empty());
    EXPECT_EQ(d.shared.bins[254]->state[3], 3u * 254);
  }
}

// Bins for different targets, or at different times, never share a frame.
TEST(ChunkCursor, FramesNeverMixTargetsOrTimes) {
  Migration<SmallBin> f(32, 3, 4096);
  // Worker 0 of 3 owns bins 0, 3, 6, ...; interleave the targets.
  std::map<std::pair<uint64_t, BinId>, uint32_t> target_of;
  for (uint64_t t : {uint64_t{5}, uint64_t{7}}) {
    std::vector<ControlInst> moves;
    for (BinId b = t == 5 ? 0 : 12; b < (t == 5 ? 12u : 24u); b += 3) {
      MakeDense(f.shared, b, 100);
      const uint32_t target = 1 + (b / 3) % 2;
      moves.push_back({b, target});
      target_of[{t, b}] = target;
    }
    f.Plan(t, moves);
  }
  f.Start(8);
  auto sent = f.Flush(0);
  // One frame per (time, target): each holds 2 bins of 816 payload bytes.
  EXPECT_EQ(sent.size(), 4u);
  for (const auto& [t, c] : sent) {
    for (const SegmentInfo& seg : Segments(c)) {
      auto it = target_of.find({t, seg.bin});
      ASSERT_NE(it, target_of.end()) << "bin " << seg.bin;
      EXPECT_EQ(it->second, c.target) << "bin " << seg.bin;
    }
  }
}

// The capability at t goes with the frame that carries the last segment
// at t: three 2 KB bins at one 4 KB bound take two frames, and t is held
// until the second has gone out.
TEST(ChunkCursor, CapabilityGoesWithTheFrameOfTheLastSegmentAtT) {
  Migration<SmallBin> f(16, 2, 4096);
  for (BinId b : {0u, 2u, 4u, 6u}) MakeDense(f.shared, b, 256);
  f.Plan(5, {{0, 1}, {2, 1}, {4, 1}});
  f.Plan(7, {{6, 1}});
  f.Start(8);
  std::vector<std::pair<uint64_t, BinChunk>> sent;
  while (f.cs.queued_bins() > 0) {
    auto step = f.Flush(1);  // one frame per step
    ASSERT_EQ(step.size(), 1u);
    sent.push_back(std::move(step[0]));
    EXPECT_EQ(f.ctx.HasCap(5), sent.size() < 2) << "frame " << sent.size();
    EXPECT_EQ(f.ctx.HasCap(7), sent.size() < 3) << "frame " << sent.size();
  }
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(Segments(sent[1].second).back(), (SegmentInfo{4u, 0u, true}));
  EXPECT_EQ(sent[2].first, 7u);
}

// Empty bins pack as segments without sections and still become resident
// at the destination.
TEST(ChunkCursor, PackedEmptyBinsBecomeResident) {
  Migration<SmallBin> f(16, 2, 4096);
  std::vector<ControlInst> moves;
  for (BinId b = 0; b < 16; b += 2) {
    f.shared.bins[b] = std::make_unique<SmallBin>();
    moves.push_back({b, 1});
  }
  f.Plan(5, moves);
  f.Start(6);
  auto sent = f.Flush(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(Segments(sent[0].second).size(), 8u);
  Destination<SmallBin> d(16);
  d.Absorb(sent[0].second);
  EXPECT_EQ(d.shared.ResidentBins(), 8u);
  for (BinId b = 0; b < 16; b += 2) EXPECT_TRUE(d.shared.bins[b]);
  EXPECT_TRUE(d.absorbing.empty());
}

// A bin that starts in a frame's tail continues with seq 1 as the next
// frame's first segment.
TEST(ChunkCursor, BinStartedInATailContinuesAtSeqOne) {
  Migration<SmallBin> f(4, 2, 4096);
  MakeDense(f.shared, 0, 256);  // 2,064 bytes: leaves 2,032 of room
  MakeDense(f.shared, 2, 400);  // 3,216 bytes: starts in that room
  f.Plan(5, {{0, 1}, {2, 1}});
  f.Start(6);
  auto sent = f.Flush(0);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(Segments(sent[0].second),
            (std::vector<SegmentInfo>{{0, 0, true}, {2, 0, false}}));
  const BinChunk& next = sent[1].second;
  EXPECT_EQ(next.bin, 2u);
  EXPECT_EQ(next.seq, 1u);
  EXPECT_NE(next.last, 0);
  EXPECT_EQ(Segments(next).size(), 1u);
  Destination<SmallBin> d(4);
  d.Absorb(sent[0].second);
  EXPECT_EQ(d.absorbing.count(2), 1u) << "bin 2 is still arriving";
  d.Absorb(next);
  ASSERT_TRUE(d.shared.bins[2]);
  ASSERT_EQ(d.shared.bins[2]->state.size(), 400u);
  for (size_t i = 0; i < 400; ++i) EXPECT_EQ(d.shared.bins[2]->state[i], 2 * i);
}

// WireSize is the encoded size: four fixed fields and a length-prefixed
// payload, for empty, tiny, full and packed frames.
TEST(ChunkCursor, WireSizeIsTheEncodedSize) {
  std::vector<BinChunk> frames(3);
  frames[1].bytes.assign(1, 7);
  frames[2].bytes.assign(kChunk, 9);
  Migration<SmallBin> f(8, 2, 4096);
  for (BinId b : {0u, 2u, 4u}) MakeDense(f.shared, b, 64);
  f.Plan(5, {{0, 1}, {2, 1}, {4, 1}});
  f.Start(6);
  auto sent = f.Flush(0);
  ASSERT_EQ(sent.size(), 1u);
  ASSERT_EQ(Segments(sent[0].second).size(), 3u);
  frames.push_back(sent[0].second);
  for (const BinChunk& c : frames) {
    EXPECT_EQ(c.WireSize(), EncodeToBytes(c).size())
        << c.bytes.size() << " payload bytes";
  }
}

// ------------------------------------------------------------ round trips

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
  if constexpr (std::tuple_size_v<decltype(bin.pending)> == 1) {
    for (uint64_t t = 10; t < 14; ++t) {
      for (int i = 0; i < 30; ++i) {
        std::get<0>(bin.pending)[t].push_back(rng.Next());
      }
    }
  } else {
    for (uint64_t t = 10; t < 14; ++t) {
      for (int i = 0; i < 30; ++i) {
        std::get<0>(bin.pending)[t].push_back(rng.Next());
      }
      std::get<1>(bin.pending)[t + 1].push_back(std::to_string(t * 7));
    }
  }
}

template <typename BinT>
void ExpectSamePending(const BinT& a, const BinT& b) {
  if constexpr (std::tuple_size_v<decltype(a.pending)> == 1) {
    EXPECT_EQ(std::get<0>(a.pending), std::get<0>(b.pending));
  } else {
    EXPECT_EQ(std::get<0>(a.pending), std::get<0>(b.pending));
    EXPECT_EQ(std::get<1>(a.pending), std::get<1>(b.pending));
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
    auto cursor = detail::ExtractBin(shared, 1);
    ASSERT_TRUE(cursor);
    for (const auto& [t, bins] : shared.pending_bins) {
      EXPECT_EQ(bins.count(1), 0u) << "pending time " << t << " still held";
    }
    auto frames = DrainFrames(*cursor, bound);
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
using PairBin = StateBin<S, uint64_t, uint64_t, std::string>;

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

// Several binary bins with post-dated pending records, packed into
// shared frames and absorbed through S's frame-absorb path, arrive intact
// with their pending times registered, at every bound.
template <typename BinT>
void PackedRoundTripAtEveryBound() {
  for (size_t bound : {size_t{0}, size_t{17}, size_t{4096}, size_t{65536}}) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    Migration<BinT> f(16, 2, bound);
    std::vector<ControlInst> moves;
    for (BinId b = 0; b < 16; b += 2) {
      f.shared.bins[b] = std::make_unique<BinT>();
      FillBin(*f.shared.bins[b], 100 + b);
      f.shared.bins[b]->ForEachPendingTime(
          [&](const uint64_t& t) { f.shared.RegisterPending(t, b); });
      moves.push_back({b, 1});
    }
    f.Plan(5, moves);
    f.Start(6);
    auto sent = f.Flush(0);
    if (bound == 0) {
      EXPECT_EQ(sent.size(), 1u) << "monolithic: one frame";
    } else if (bound == 65536) {
      EXPECT_LT(sent.size(), 8u) << "bins share frames";
    }
    Destination<BinT> d(16);
    for (const auto& [t, c] : sent) d.Absorb(c);
    EXPECT_TRUE(d.absorbing.empty());
    EXPECT_EQ(d.held, (std::set<uint64_t>{10, 11, 12, 13, 14}));
    for (BinId b = 0; b < 16; b += 2) {
      ASSERT_TRUE(d.shared.bins[b]) << "bin " << b;
      BinT ref;
      FillBin(ref, 100 + b);
      EXPECT_EQ(Contents(d.shared.bins[b]->state), Contents(ref.state));
      ExpectSamePending(*d.shared.bins[b], ref);
      EXPECT_EQ(d.shared.pending_bins[10].count(b), 1u);
    }
  }
}

TEST(ChunkCursor, PackedBinaryBinsRoundTrip) {
  PackedRoundTripAtEveryBound<PairBin<state::DenseState<uint64_t>>>();
  PackedRoundTripAtEveryBound<
      PairBin<state::MapState<uint64_t, std::string>>>();
  PackedRoundTripAtEveryBound<PairBin<BlobValue>>();
}

TEST(ChunkCursor, EmptyResidentBinYieldsOneFinalFrame) {
  using BinT = UnaryBin<std::unordered_map<uint64_t, uint64_t>>;
  BinsShared<BinT, uint64_t> shared(2);
  shared.bins[0] = std::make_unique<BinT>();
  auto cursor = detail::ExtractBin(shared, 0);
  ASSERT_TRUE(cursor);
  EXPECT_EQ(DrainFrames(*cursor, 64),
            (std::vector<std::vector<uint8_t>>{std::vector<uint8_t>{}}));
  EXPECT_EQ(shared.ResidentBins(), 0u);
  EXPECT_FALSE(detail::ExtractBin(shared, 1)) << "non-resident bin";
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
    auto cursor = detail::ExtractBin(shared, 0);
    frames = DrainFrames(*cursor, /*bound=*/0);
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(fs::is_empty(root / "ckpt")) << "migration wrote a checkpoint";
  fs::remove_all(root / "ckpt");
  auto back = AbsorbFrames<BinT>(frames);
  BinT ref;
  FillBin(ref, 7);
  EXPECT_EQ(back->state.Snapshot(), ref.state.Snapshot());
  EXPECT_EQ(std::get<0>(back->pending), std::get<0>(ref.pending));
  fs::remove_all(root);
}

// ------------------------------------------------------------ golden bytes

// The bin format is pinned: checkpoints and state frames written by one
// build must read back in another, and a reordered section would still
// pass every round trip above. Fixed-seed one- and two-input bins with
// nonempty pending maps, on MapState and DenseState, hash to constants
// taken from the format as it stands; a change to them is a format change.
uint64_t HashFrames(const std::vector<std::vector<uint8_t>>& frames) {
  uint64_t h = HashMix64(frames.size());
  for (const auto& f : frames) {
    h = HashCombine(h, HashBytes(std::string_view(
                           reinterpret_cast<const char*>(f.data()), f.size())));
  }
  return h;
}

/// Hashes of a filled bin's Serialize bytes and of its chunk frames at
/// bounds 0 and 4096.
template <typename BinT>
std::array<uint64_t, 3> BinFingerprint() {
  std::array<uint64_t, 3> out{};
  BinT bin;
  FillBin(bin, 2024);
  Writer w;
  bin.Serialize(w);
  out[0] = HashFrames({w.Take()});
  size_t k = 1;
  for (size_t bound : {size_t{0}, size_t{4096}}) {
    BinsShared<BinT, uint64_t> shared(1);
    shared.bins[0] = std::make_unique<BinT>();
    FillBin(*shared.bins[0], 2024);
    auto cursor = detail::ExtractBin(shared, 0);
    out[k++] = HashFrames(DrainFrames(*cursor, bound));
  }
  return out;
}

TEST(ChunkCursor, BinBytesArePinned) {
  using Fingerprint = std::array<uint64_t, 3>;
  using MapS = state::MapState<uint64_t, std::string>;
  using DenseS = state::DenseState<uint64_t>;
  EXPECT_EQ(BinFingerprint<UnaryBin<MapS>>(),
            (Fingerprint{0x3cc819e5e6e75af5ULL, 0xc32f3d75c867cf44ULL,
                         0x63780c44486dd62aULL}));
  EXPECT_EQ(BinFingerprint<PairBin<MapS>>(),
            (Fingerprint{0x79ac832fb1481951ULL, 0xcb683a060e3e5b57ULL,
                         0xeb94e1a77f31ca44ULL}));
  EXPECT_EQ(BinFingerprint<UnaryBin<DenseS>>(),
            (Fingerprint{0x4a23d2fcd72bf228ULL, 0xe8ac422a75018bcfULL,
                         0x6084a53b22d7355bULL}));
  EXPECT_EQ(BinFingerprint<PairBin<DenseS>>(),
            (Fingerprint{0x9faa86507a1b9963ULL, 0x20fb6187c834aebbULL,
                         0x0b57fb86a09b2742ULL}));
}

// The two control-plane frames are pinned byte for byte: the state
// channel's BinChunk and the adaptive stats channel's BinStatsReport. Each
// is its fields in declaration order, integers in host order (these bytes
// are for little-endian hosts), vectors prefixed by a u64 count.
TEST(ChunkCursor, ControlFrameBytesArePinned) {
  BinChunk c;
  c.target = 1;
  c.bin = 0x0207;
  c.seq = 3;
  c.last = 0;
  c.bytes = {0xaa, 0xbb};
  const std::vector<uint8_t> chunk = {
      0x01, 0x00, 0x00, 0x00,                          // target
      0x07, 0x02, 0x00, 0x00,                          // bin
      0x03, 0x00, 0x00, 0x00,                          // seq
      0x00,                                            // last
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // bytes: count
      0xaa, 0xbb};
  EXPECT_EQ(EncodeToBytes(c), chunk);
  EXPECT_EQ(c.WireSize(), chunk.size());
  BinChunk back = DecodeFromBytes<BinChunk>(chunk);
  EXPECT_EQ(back.target, 1u);
  EXPECT_EQ(back.bin, 0x0207u);
  EXPECT_EQ(back.seq, 3u);
  EXPECT_EQ(back.last, 0u);
  EXPECT_EQ(back.bytes, c.bytes);

  BinStatsReport r;
  r.worker = 2;
  r.epoch = 0x0105;
  r.records = {1, 0x0302};
  r.state_bytes = {300};
  r.resident = {1, 0};
  const std::vector<uint8_t> report = {
      0x02, 0x00, 0x00, 0x00,                          // worker
      0x05, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // records: count
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // state_bytes: count
      0x2c, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // resident: count
      0x01, 0x00};
  EXPECT_EQ(EncodeToBytes(r), report);
  BinStatsReport rback = DecodeFromBytes<BinStatsReport>(report);
  EXPECT_EQ(rback.worker, 2u);
  EXPECT_EQ(rback.epoch, 0x0105u);
  EXPECT_EQ(rback.records, r.records);
  EXPECT_EQ(rback.state_bytes, r.state_bytes);
  EXPECT_EQ(rback.resident, r.resident);
}

}  // namespace
}  // namespace megaphone
