// Property tests for the wire serde: random values of every type that
// crosses a process boundary survive encode/decode unchanged, and every
// malformed buffer — any strict prefix of a valid encoding, and length
// prefixes pointing past the end — fails with a clean SerdeError instead
// of an out-of-bounds read or a multi-gigabyte allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "fault/fault.hpp"
#include "harness/histogram.hpp"
#include "megaphone/bin.hpp"
#include "megaphone/control.hpp"
#include "megaphone/stateful.hpp"
#include "net/frame.hpp"
#include "state/checkpoint.hpp"
#include "state/dense_state.hpp"
#include "state/log_state.hpp"
#include "timely/channel.hpp"
#include "timely/progress.hpp"

namespace megaphone {
namespace {

using timely::Bundle;
using timely::Change;

// --- random generators ----------------------------------------------------

std::vector<uint64_t> RandomU64s(Xoshiro256& rng, size_t max_len) {
  std::vector<uint64_t> v(rng.NextBelow(max_len + 1));
  for (auto& x : v) x = rng.Next();
  return v;
}

std::string RandomString(Xoshiro256& rng, size_t max_len) {
  std::string s(rng.NextBelow(max_len + 1), '\0');
  for (auto& c : s) c = static_cast<char>(rng.NextBelow(256));
  return s;
}

Bundle<uint64_t, uint64_t> RandomBundle(Xoshiro256& rng) {
  Bundle<uint64_t, uint64_t> b;
  b.time = rng.Next();
  b.data = RandomU64s(rng, 64);
  return b;
}

std::vector<ControlInst> RandomControlBatch(Xoshiro256& rng) {
  std::vector<ControlInst> batch(rng.NextBelow(32));
  for (auto& c : batch) {
    c.bin = static_cast<BinId>(rng.NextBelow(1 << 12));
    c.worker = static_cast<uint32_t>(rng.NextBelow(64));
  }
  return batch;
}

std::vector<Change<uint64_t>> RandomChangeBatch(Xoshiro256& rng) {
  std::vector<Change<uint64_t>> batch(rng.NextBelow(32));
  for (auto& c : batch) {
    c.loc = static_cast<uint32_t>(rng.NextBelow(256));
    c.time = rng.Next();
    c.delta = static_cast<int64_t>(rng.Next()) >> 32;  // signed
  }
  return batch;
}

using WireBinaryBin =
    StateBin<std::unordered_map<uint64_t, uint64_t>, uint64_t, uint64_t,
             std::pair<uint64_t, std::string>>;

WireBinaryBin RandomBinaryBin(Xoshiro256& rng) {
  WireBinaryBin bin;
  for (size_t i = rng.NextBelow(32); i > 0; --i) {
    bin.state[rng.Next()] = rng.Next();
  }
  for (size_t i = rng.NextBelow(4); i > 0; --i) {
    std::get<0>(bin.pending)[rng.Next()] = RandomU64s(rng, 8);
  }
  for (size_t i = rng.NextBelow(4); i > 0; --i) {
    auto& slot = std::get<1>(bin.pending)[rng.Next()];
    for (size_t j = rng.NextBelow(4); j > 0; --j) {
      slot.emplace_back(rng.Next(), RandomString(rng, 12));
    }
  }
  return bin;
}

net::HeartbeatBody RandomHeartbeat(Xoshiro256& rng) {
  net::HeartbeatBody hb;
  hb.next_seq = rng.Next();
  hb.ack = rng.Next();
  return hb;
}

fault::FaultSpec RandomFaultSpec(Xoshiro256& rng) {
  fault::FaultSpec f;
  f.seed = rng.Next();
  // Probabilities as exact dyadic rationals so ToString/Parse aside,
  // the serde round-trip is bit-exact trivially.
  f.drop_p = static_cast<double>(rng.NextBelow(1024)) / 1024.0;
  f.dup_p = static_cast<double>(rng.NextBelow(1024)) / 1024.0;
  f.delay_p = static_cast<double>(rng.NextBelow(1024)) / 1024.0;
  f.delay_us = rng.NextBelow(10'000);
  f.corrupt_p = static_cast<double>(rng.NextBelow(1024)) / 1024.0;
  f.partition_after = rng.Next();
  f.kill_after = rng.Next();
  return f;
}

Histogram RandomHistogram(Xoshiro256& rng) {
  Histogram h;
  for (size_t i = rng.NextBelow(64); i > 0; --i) {
    h.Add(rng.Next() >> rng.NextBelow(64), 1 + rng.NextBelow(8));
  }
  return h;
}

state::CheckpointSegment RandomSegment(Xoshiro256& rng) {
  state::CheckpointSegment seg;
  seg.epoch = rng.Next();
  seg.assignment.resize(rng.NextBelow(64));
  for (auto& w : seg.assignment) w = static_cast<uint32_t>(rng.NextBelow(16));
  for (size_t i = rng.NextBelow(4); i > 0; --i) {
    auto& bins = seg.workers[static_cast<uint32_t>(rng.NextBelow(8))];
    for (size_t j = rng.NextBelow(4); j > 0; --j) {
      std::vector<uint8_t> bytes(rng.NextBelow(32));
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextBelow(256));
      bins.emplace_back(static_cast<uint32_t>(rng.NextBelow(1 << 12)),
                        std::move(bytes));
    }
  }
  seg.collector.resize(rng.NextBelow(48));
  for (auto& b : seg.collector) b = static_cast<uint8_t>(rng.NextBelow(256));
  return seg;
}

// --- comparators (StateBin has no operator==) -----------------------------

template <typename T>
void ExpectEqual(const T& a, const T& b) {
  EXPECT_EQ(a, b);
}

void ExpectEqual(const Bundle<uint64_t, uint64_t>& a,
                 const Bundle<uint64_t, uint64_t>& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.data, b.data);
}

void ExpectEqual(const Change<uint64_t>& a, const Change<uint64_t>& b) {
  EXPECT_EQ(a.loc, b.loc);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.delta, b.delta);
}

void ExpectEqual(const std::vector<Change<uint64_t>>& a,
                 const std::vector<Change<uint64_t>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ExpectEqual(a[i], b[i]);
}

void ExpectEqual(const WireBinaryBin& a, const WireBinaryBin& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(std::get<0>(a.pending), std::get<0>(b.pending));
  EXPECT_EQ(std::get<1>(a.pending), std::get<1>(b.pending));
}

void ExpectEqual(const BinChunk& a, const BinChunk& b) {
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.bin, b.bin);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.last, b.last);
  EXPECT_EQ(a.bytes, b.bytes);
}

void ExpectEqual(const net::HeartbeatBody& a, const net::HeartbeatBody& b) {
  EXPECT_EQ(a.next_seq, b.next_seq);
  EXPECT_EQ(a.ack, b.ack);
}

void ExpectEqual(const fault::FaultSpec& a, const fault::FaultSpec& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.drop_p, b.drop_p);
  EXPECT_EQ(a.dup_p, b.dup_p);
  EXPECT_EQ(a.delay_p, b.delay_p);
  EXPECT_EQ(a.delay_us, b.delay_us);
  EXPECT_EQ(a.corrupt_p, b.corrupt_p);
  EXPECT_EQ(a.partition_after, b.partition_after);
  EXPECT_EQ(a.kill_after, b.kill_after);
}

void ExpectEqual(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(EncodeToBytes(a), EncodeToBytes(b));
}

void ExpectEqual(const state::CheckpointSegment& a,
                 const state::CheckpointSegment& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.collector, b.collector);
}

void ExpectEqual(const state::LogManifest& a, const state::LogManifest& b) {
  EXPECT_EQ(a.dir, b.dir);
  EXPECT_EQ(a.delta, b.delta);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].segment, b.segments[i].segment);
    EXPECT_EQ(a.segments[i].file, b.segments[i].file);
    EXPECT_EQ(a.segments[i].bytes, b.segments[i].bytes);
  }
}

// The shared property: round-trips exactly, and every strict prefix of
// the encoding throws SerdeError (a truncated frame can never decode).
template <typename T>
void CheckRoundTripAndTruncation(const T& value, bool check_all_prefixes) {
  std::vector<uint8_t> bytes = EncodeToBytes(value);
  ExpectEqual(DecodeFromBytes<T>(bytes), value);
  size_t step = check_all_prefixes ? 1 : std::max<size_t>(1, bytes.size() / 7);
  for (size_t cut = 0; cut < bytes.size(); cut += step) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(DecodeFromBytes<T>(truncated), SerdeError)
        << "prefix of " << cut << "/" << bytes.size()
        << " bytes decoded without error";
  }
}

TEST(SerdeFuzz, BundleRoundTripAndTruncation) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 200; ++i) {
    CheckRoundTripAndTruncation(RandomBundle(rng), i < 50);
  }
}

TEST(SerdeFuzz, ControlBatchRoundTripAndTruncation) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 200; ++i) {
    CheckRoundTripAndTruncation(RandomControlBatch(rng), i < 50);
  }
}

TEST(SerdeFuzz, ProgressChangeBatchRoundTripAndTruncation) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 200; ++i) {
    CheckRoundTripAndTruncation(RandomChangeBatch(rng), i < 50);
  }
}

TEST(SerdeFuzz, BinaryBinRoundTripAndTruncation) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 60; ++i) {
    CheckRoundTripAndTruncation(RandomBinaryBin(rng), i < 10);
  }
}

TEST(SerdeFuzz, BinChunkRoundTripAndTruncation) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    BinChunk m;
    m.target = static_cast<uint32_t>(rng.NextBelow(64));
    m.bin = static_cast<BinId>(rng.NextBelow(1 << 12));
    m.seq = static_cast<uint32_t>(rng.NextBelow(128));
    m.last = static_cast<uint8_t>(rng.NextBelow(2));
    auto payload = RandomU64s(rng, 32);
    m.bytes = EncodeToBytes(payload);
    CheckRoundTripAndTruncation(m, i < 25);
  }
}

TEST(SerdeFuzz, HeartbeatBodyRoundTripAndTruncation) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    CheckRoundTripAndTruncation(RandomHeartbeat(rng), true);
  }
}

TEST(SerdeFuzz, FaultSpecRoundTripAndTruncation) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 100; ++i) {
    CheckRoundTripAndTruncation(RandomFaultSpec(rng), i < 25);
  }
}

TEST(SerdeFuzz, CheckpointSegmentRoundTripAndTruncation) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 60; ++i) {
    CheckRoundTripAndTruncation(RandomSegment(rng), i < 15);
  }
}

TEST(SerdeFuzz, HistogramRoundTripAndTruncation) {
  Xoshiro256 rng(29);
  for (int i = 0; i < 100; ++i) {
    CheckRoundTripAndTruncation(RandomHistogram(rng), i < 25);
  }
}

// Histogram shards cross process boundaries; a corrupt shard must fail
// loudly instead of yielding silently wrong quantiles. The encodings below
// are hand-built around the sparse (index, count)* total max wire format.
TEST(SerdeFuzz, HistogramRejectsInconsistentEncodings) {
  auto encode = [](std::vector<std::pair<uint32_t, uint64_t>> entries,
                   uint64_t total, uint64_t max) {
    Writer w;
    Encode<uint64_t>(w, entries.size());
    for (auto& [idx, count] : entries) {
      Encode(w, idx);
      Encode(w, count);
    }
    Encode(w, total);
    Encode(w, max);
    return w.Take();
  };

  // A well-formed encoding still decodes.
  auto ok = encode({{3, 5}, {10, 7}}, 12, 100);
  Histogram h = DecodeFromBytes<Histogram>(ok);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.max(), 100u);

  // Duplicate bucket index.
  EXPECT_THROW(DecodeFromBytes<Histogram>(encode({{3, 5}, {3, 7}}, 12, 100)),
               SerdeError);
  // Unsorted (decreasing) bucket indices.
  EXPECT_THROW(DecodeFromBytes<Histogram>(encode({{10, 7}, {3, 5}}, 12, 100)),
               SerdeError);
  // Decoded total disagrees with the sum of the counts.
  EXPECT_THROW(DecodeFromBytes<Histogram>(encode({{3, 5}, {10, 7}}, 13, 100)),
               SerdeError);
  // Bucket index out of range.
  EXPECT_THROW(
      DecodeFromBytes<Histogram>(
          encode({{static_cast<uint32_t>(Histogram::kBuckets), 5}}, 5, 100)),
      SerdeError);
}

// The frame payloads of one bin migration, encoded by its cursor over a
// copy of `bin`.
template <typename BinT>
std::vector<std::vector<uint8_t>> Frames(const BinT& bin, size_t chunk_bytes) {
  detail::BinCursor<BinT> cursor(std::make_unique<BinT>(bin));
  std::vector<std::vector<uint8_t>> out;
  while (!cursor.done()) {
    Writer w;
    cursor.NextFrame(w, chunk_bytes);
    out.push_back(w.Take());
  }
  return out;
}

// Chunked extraction/absorption of a randomized two-input bin must
// rebuild an identical bin at every chunk size, and a corrupted chunk
// payload must fail with SerdeError rather than UB (S decodes chunks from
// the wire).
TEST(SerdeFuzz, ChunkedBinaryBinRebuildAndCorruption) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 60; ++i) {
    auto bin = RandomBinaryBin(rng);
    for (size_t chunk_bytes : {size_t{0}, size_t{1}, size_t{64},
                               size_t{1} << 12}) {
      std::vector<std::vector<uint8_t>> payloads = Frames(bin, chunk_bytes);
      WireBinaryBin back;
      for (size_t c = 0; c < payloads.size(); ++c) {
        Reader r(payloads[c]);
        back.AbsorbChunk(r, c + 1 == payloads.size());
      }
      ExpectEqual(back, bin);
    }
    std::vector<std::vector<uint8_t>> payloads = Frames(bin, 48);
    auto& bytes = payloads[rng.NextBelow(payloads.size())];
    if (bytes.empty()) continue;
    bytes[rng.NextBelow(bytes.size())] = static_cast<uint8_t>(rng.Next());
    try {
      WireBinaryBin back;
      for (size_t c = 0; c < payloads.size(); ++c) {
        Reader r(payloads[c]);
        back.AbsorbChunk(r, c + 1 == payloads.size());
      }
    } catch (const SerdeError&) {
      // clean failure; fine
    }
  }
}

// The frames worker 0 of 2 sends when `bins` random binary bins (the
// even bins of 16) migrate to worker 1 at one time, cut at `chunk_bytes`.
std::vector<BinChunk> PackedFrames(Xoshiro256& rng, size_t bins,
                                   size_t chunk_bytes) {
  BinsShared<WireBinaryBin, uint64_t> shared(16);
  ControlState<uint64_t> cs(16, 2, 0);
  timely::OpCtx<uint64_t> ctx(nullptr, "F");
  ctx.NoteInputTime(0);
  std::vector<ControlInst> moves;
  for (BinId b = 0; b < 2 * bins; b += 2) {
    shared.bins[b] = std::make_unique<WireBinaryBin>(RandomBinaryBin(rng));
    moves.push_back({b, 1});
  }
  cs.Enqueue(ctx, 5, moves);
  cs.IntegrateFinal(ctx, timely::Antichain<uint64_t>({6}));
  cs.RunReadyMigrations(
      ctx, [](const uint64_t&) { return true; },
      [&](const uint64_t&, BinId b) { return detail::ExtractBin(shared, b); });
  std::vector<BinChunk> frames;
  cs.FlushChunks(ctx, chunk_bytes, 0, [&](const uint64_t&, BinChunk&& c) {
    frames.push_back(std::move(c));
  });
  return frames;
}

// Feeds `frames[0, k)` and then `last` through S's frame-absorb path on
// worker 1 of 16 bins. Returns normally only if every segment installed
// cleanly; then each resident bin must be a whole, encodable bin.
void AbsorbAtWorkerOne(const std::vector<BinChunk>& frames, size_t k,
                       const BinChunk& last) {
  BinsShared<WireBinaryBin, uint64_t> shared(16);
  std::map<BinId, detail::AbsorbingBin<WireBinaryBin>> absorbing;
  auto hold = [](const uint64_t&) {};
  for (size_t i = 0; i < k; ++i) {
    detail::AbsorbChunkFrame(shared, absorbing, frames[i], 1, hold);
  }
  detail::AbsorbChunkFrame(shared, absorbing, last, 1, hold);
  for (const auto& bin : shared.bins) {
    if (bin) (void)EncodeToBytes(*bin);
  }
}

// A packed frame of several bins, truncated at every prefix of its
// payload or with any of its encoded bytes flipped, either installs
// validly or fails with SerdeError — S reads it from the wire, so it must
// never crash or abort. The frames before it arrive intact, so the
// mutated frame's segments continue bins that are mid-absorption.
TEST(SerdeFuzz, PackedFrameTruncationAndCorruption) {
  Xoshiro256 rng(19);
  for (size_t chunk_bytes : {size_t{0}, size_t{200}}) {
    std::vector<BinChunk> frames = PackedFrames(rng, 6, chunk_bytes);
    size_t k = 0;
    size_t most = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
      size_t segments = 0;
      ForEachSegment(frames[i],
                     [&](BinId, uint32_t, bool, Reader&) { ++segments; });
      if (segments > most) {
        most = segments;
        k = i;
      }
    }
    ASSERT_GE(most, 2u) << "no multi-bin frame at bound " << chunk_bytes;
    EXPECT_NO_THROW(AbsorbAtWorkerOne(frames, k, frames[k]));
    for (size_t len = 0; len < frames[k].bytes.size(); ++len) {
      BinChunk cut = frames[k];
      cut.bytes.resize(len);
      try {
        AbsorbAtWorkerOne(frames, k, cut);
      } catch (const SerdeError&) {
        // clean failure; fine
      }
    }
    const std::vector<uint8_t> wire = EncodeToBytes(frames[k]);
    for (size_t pos = 0; pos < wire.size(); ++pos) {
      std::vector<uint8_t> bad = wire;
      bad[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
      try {
        AbsorbAtWorkerOne(frames, k, DecodeFromBytes<BinChunk>(bad));
      } catch (const SerdeError&) {
        // clean failure; fine
      }
    }
  }
}

// A segment header naming a bin past the operator's bin count is a
// SerdeError, in the frame header and in a packed segment alike.
TEST(SerdeFuzz, OutOfRangeSegmentBinIsASerdeError) {
  Xoshiro256 rng(23);
  std::vector<BinChunk> frames = PackedFrames(rng, 3, 0);
  ASSERT_EQ(frames.size(), 1u);
  BinChunk first = frames[0];
  first.bin = 16;
  EXPECT_THROW(AbsorbAtWorkerOne(frames, 0, first), SerdeError);

  BinChunk packed;
  packed.target = 1;
  packed.bin = 0;
  Writer w;
  struct EmptyBin final : FrameCursor {
    size_t NextFrame(Writer&, size_t) override {
      sent = true;
      return 0;
    }
    bool done() const override { return sent; }
    bool sent = false;
  } empty;
  AppendSegment(w, /*bin=*/1u << 20, 0, empty, 0);
  packed.bytes = w.Take();
  EXPECT_THROW(AbsorbAtWorkerOne(frames, 0, packed), SerdeError);
}

// Every proper prefix of a dense chunk payload fails with SerdeError:
// either the chunk itself (a torn header, a torn value, no values) or, if
// it absorbs as a shorter run of the values, FinishAbsorb, because the
// bin falls short of the total its header carries. Never a read past the
// buffer.
TEST(SerdeFuzz, DenseChunkPrefixTruncation) {
  Xoshiro256 rng(17);
  state::DenseState<uint64_t> src;
  src.resize(40);
  for (size_t i = 0; i < src.size(); ++i) src[i] = rng.Next();
  std::vector<std::vector<uint8_t>> chunks;
  src.EnumerateChunks(0, [&](std::vector<uint8_t>&& c) {
    chunks.push_back(std::move(c));
  });
  ASSERT_EQ(chunks.size(), 1u);
  const std::vector<uint8_t>& full = chunks[0];
  constexpr size_t kHead = 2 * sizeof(uint64_t);
  for (size_t len = 0; len <= full.size(); ++len) {
    Reader r(full.data(), len);
    state::DenseState<uint64_t> back;
    if (len <= kHead || (len - kHead) % 8 != 0) {
      EXPECT_THROW(back.AbsorbChunk(r), SerdeError) << "len=" << len;
      continue;
    }
    back.AbsorbChunk(r);
    size_t n = (len - kHead) / 8;
    ASSERT_EQ(back.size(), n) << "len=" << len;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(back[i], src[i]);
    if (len < full.size()) {
      EXPECT_THROW(back.FinishAbsorb(), SerdeError) << "len=" << len;
    } else {
      back.FinishAbsorb();
      EXPECT_EQ(back, src);
    }
  }
}

// --- segment log on-disk format (state/segment_log.hpp) -------------------
// Segment files survive process crashes and feed checkpoint restore, so
// their records get the same hostile-input treatment as network frames:
// truncation anywhere and flipped bytes must raise SerdeError, never UB.

std::vector<uint8_t> RandomBytes(Xoshiro256& rng, size_t max_len) {
  std::vector<uint8_t> v(rng.NextBelow(max_len + 1));
  for (auto& b : v) b = static_cast<uint8_t>(rng.NextBelow(256));
  return v;
}

TEST(SerdeFuzz, SegmentRecordRoundTripTruncationAndCorruption) {
  Xoshiro256 rng(37);
  for (int i = 0; i < 200; ++i) {
    bool tomb = rng.NextBelow(4) == 0;
    auto key = RandomBytes(rng, 32);
    auto value = tomb ? std::vector<uint8_t>{} : RandomBytes(rng, 64);
    std::vector<uint8_t> buf;
    state::AppendSegmentRecord(
        buf,
        tomb ? state::kSegmentRecordTombstone : state::kSegmentRecordPut,
        key, value);

    Reader r(buf);
    state::SegmentRecord rec = state::DecodeSegmentRecord(r);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(rec.type, tomb ? state::kSegmentRecordTombstone
                             : state::kSegmentRecordPut);
    EXPECT_EQ(rec.key, key);
    EXPECT_EQ(rec.value, value);

    // Every strict prefix is a torn write: SerdeError.
    size_t step = i < 50 ? 1 : std::max<size_t>(1, buf.size() / 7);
    for (size_t cut = 0; cut < buf.size(); cut += step) {
      Reader rr(buf.data(), cut);
      EXPECT_THROW(state::DecodeSegmentRecord(rr), SerdeError)
          << "prefix of " << cut << "/" << buf.size() << " bytes decoded";
    }

    // A guaranteed-changed byte anywhere fails magic, type, length
    // sanity, or the CRC — one of them always trips.
    auto corrupt = buf;
    size_t pos = rng.NextBelow(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    Reader rc(corrupt);
    EXPECT_THROW(
        {
          state::DecodeSegmentRecord(rc);
          // Length corruption can leave trailing bytes; a clean decode of
          // mutated input with nothing left over would be a missed CRC.
          if (!rc.AtEnd()) throw SerdeError("trailing bytes");
        },
        SerdeError)
        << "flipped byte at " << pos << " decoded cleanly";
  }
}

TEST(SerdeFuzz, SegmentFileScanRejectsTruncationAnywhere) {
  Xoshiro256 rng(41);
  std::vector<uint8_t> file(state::kSegmentFileHeaderBytes);
  std::memcpy(file.data(), &state::kSegmentFileMagic, 8);
  std::set<size_t> record_boundaries;  // cuts here are valid shorter files
  record_boundaries.insert(file.size());
  for (int i = 0; i < 5; ++i) {
    state::AppendSegmentRecord(file, state::kSegmentRecordPut,
                               RandomBytes(rng, 16), RandomBytes(rng, 24));
    record_boundaries.insert(file.size());
  }

  size_t records = 0;
  state::ForEachSegmentRecord(file, [&](const state::SegmentRecord&,
                                        uint64_t) { ++records; });
  EXPECT_EQ(records, 5u);

  for (size_t cut = 0; cut < file.size(); ++cut) {
    if (record_boundaries.count(cut)) continue;  // not torn, just shorter
    std::vector<uint8_t> prefix(file.begin(),
                                file.begin() + static_cast<long>(cut));
    EXPECT_THROW(state::ForEachSegmentRecord(
                     prefix, [](const state::SegmentRecord&, uint64_t) {}),
                 SerdeError)
        << "prefix of " << cut << "/" << file.size() << " bytes scanned";
  }

  auto bad_magic = file;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(state::ForEachSegmentRecord(
                   bad_magic, [](const state::SegmentRecord&, uint64_t) {}),
               SerdeError);
}

state::LogManifest RandomManifest(Xoshiro256& rng) {
  state::LogManifest m;
  m.dir = "/tmp/ck_" + RandomString(rng, 12);
  m.segments.resize(rng.NextBelow(6));
  for (auto& e : m.segments) {
    e.segment = rng.Next();
    e.file = "seg_" + RandomString(rng, 8);
    e.bytes = rng.Next();
  }
  m.delta = RandomBytes(rng, 48);
  return m;
}

TEST(SerdeFuzz, LogManifestRoundTripAndTruncation) {
  Xoshiro256 rng(43);
  for (int i = 0; i < 100; ++i) {
    CheckRoundTripAndTruncation(RandomManifest(rng), i < 25);
  }
}

// Chunked migration of a spilled LogState bin: every chunk bound rebuilds
// an identical bin, and a corrupted chunk payload fails with SerdeError
// rather than UB (the absorb path appends decoded records to disk).
TEST(SerdeFuzz, LogStateChunkRebuildAndCorruption) {
  Xoshiro256 rng(47);
  state::LogStateOptions opts;
  opts.memtable_bytes = 256;  // force segment traffic at test scale
  for (int i = 0; i < 8; ++i) {
    state::LogState<uint64_t, uint64_t> src(opts);
    std::map<uint64_t, uint64_t> ref;
    for (size_t n = 20 + rng.NextBelow(120); n > 0; --n) {
      uint64_t k = rng.NextBelow(256);
      src[k] = rng.Next();
      ref[k] = src.Get(k).value();
    }
    for (size_t chunk_bytes :
         {size_t{0}, size_t{1}, size_t{64}, size_t{1} << 12}) {
      std::vector<std::vector<uint8_t>> payloads;
      src.EnumerateChunks(chunk_bytes, [&](std::vector<uint8_t>&& c) {
        payloads.push_back(std::move(c));
      });
      state::LogState<uint64_t, uint64_t> back(opts);
      for (auto& p : payloads) {
        Reader r(p);
        back.AbsorbChunk(r);
      }
      back.FinishAbsorb();
      EXPECT_EQ(back.Snapshot(), ref) << "chunk_bytes=" << chunk_bytes;
    }

    std::vector<std::vector<uint8_t>> payloads;
    src.EnumerateChunks(48, [&](std::vector<uint8_t>&& c) {
      payloads.push_back(std::move(c));
    });
    if (payloads.empty()) continue;
    auto& bytes = payloads[rng.NextBelow(payloads.size())];
    if (bytes.empty()) continue;
    bytes[rng.NextBelow(bytes.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBelow(255));
    try {
      state::LogState<uint64_t, uint64_t> back(opts);
      for (auto& p : payloads) {
        Reader r(p);
        back.AbsorbChunk(r);
      }
      back.FinishAbsorb();
    } catch (const SerdeError&) {
      // clean failure; fine
    }
  }
}

// A corrupted length prefix must not drive a giant allocation: the decode
// throws before reserving anything close to the claimed size.
TEST(SerdeFuzz, HugeLengthPrefixFailsCleanly) {
  Writer w;
  Encode<uint64_t>(w, ~uint64_t{0});  // vector length 2^64-1
  auto bytes = w.Take();
  EXPECT_THROW(DecodeFromBytes<std::vector<uint64_t>>(bytes), SerdeError);
  EXPECT_THROW(DecodeFromBytes<std::string>(bytes), SerdeError);
  EXPECT_THROW((DecodeFromBytes<std::map<uint64_t, uint64_t>>(bytes)),
               SerdeError);
  EXPECT_THROW(
      (DecodeFromBytes<std::unordered_map<uint64_t, uint64_t>>(bytes)),
      SerdeError);
}

// Random corruption of a length byte inside a valid encoding either still
// decodes (the mutated length happened to stay consistent) or fails with
// SerdeError — never UB, never abort.
TEST(SerdeFuzz, RandomLengthCorruptionNeverCrashes) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 300; ++i) {
    auto bin = RandomBinaryBin(rng);
    auto bytes = EncodeToBytes(bin);
    if (bytes.empty()) continue;
    size_t pos = rng.NextBelow(bytes.size());
    bytes[pos] = static_cast<uint8_t>(rng.Next());
    try {
      auto decoded = DecodeFromBytes<WireBinaryBin>(bytes);
      (void)decoded;  // consistent mutation; fine
    } catch (const SerdeError&) {
      // clean failure; fine
    }
  }
}

}  // namespace
}  // namespace megaphone
