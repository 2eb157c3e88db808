// Unit tests for the migratable-state layer (src/state/): every backend
// must round-trip through whole-value serde AND through chunked
// enumerate/absorb at any chunk size, chunks must respect the byte bound
// (up to one entry of slack), and the backend-selection trait must pick
// the right backend for user-declared state types.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "state/checkpoint.hpp"
#include "state/state.hpp"

namespace megaphone {
namespace state {
namespace {

/// Rebuilds a backend from its chunk stream at the given bound.
template <typename S>
S ChunkRoundTrip(const S& src, size_t max_bytes,
                 size_t* num_chunks = nullptr) {
  std::vector<std::vector<uint8_t>> chunks;
  src.EnumerateChunks(max_bytes, [&](std::vector<uint8_t>&& c) {
    chunks.push_back(std::move(c));
  });
  if (num_chunks != nullptr) *num_chunks = chunks.size();
  S out;
  for (auto& c : chunks) {
    Reader r(c);
    out.AbsorbChunk(r);
    EXPECT_TRUE(r.AtEnd()) << "chunk not fully absorbed";
  }
  out.FinishAbsorb();
  return out;
}

TEST(MapState, SerdeAndChunkRoundTripAtEveryBound) {
  Xoshiro256 rng(1);
  MapState<uint64_t, std::string> m;
  for (int i = 0; i < 700; ++i) {
    m[rng.Next()] = std::string(rng.NextBelow(20), 'x');
  }
  EXPECT_EQ(DecodeFromBytes<decltype(m)>(EncodeToBytes(m)), m);
  for (size_t bound : {size_t{0}, size_t{1}, size_t{128}, size_t{1} << 16}) {
    EXPECT_EQ(ChunkRoundTrip(m, bound), m) << "bound=" << bound;
  }
  size_t chunks = 0;
  ChunkRoundTrip(m, 256, &chunks);
  EXPECT_GT(chunks, 10u) << "700 entries must split at a 256-byte bound";
}

TEST(MapState, EmptyStateYieldsNoChunks) {
  MapState<uint64_t, uint64_t> m;
  size_t chunks = ~size_t{0};
  EXPECT_EQ(ChunkRoundTrip(m, 64, &chunks), m);
  EXPECT_EQ(chunks, 0u);
}

TEST(SortedState, ChunksAreSortedRunsAndAbsorbInOrder) {
  Xoshiro256 rng(2);
  SortedState<uint64_t, uint64_t> s;
  for (int i = 0; i < 500; ++i) s[rng.Next()] = rng.Next();
  EXPECT_EQ(DecodeFromBytes<decltype(s)>(EncodeToBytes(s)), s);

  std::vector<std::vector<uint8_t>> chunks;
  s.EnumerateChunks(128, [&](std::vector<uint8_t>&& c) {
    chunks.push_back(std::move(c));
  });
  ASSERT_GT(chunks.size(), 4u);
  // Each chunk is a sorted run, and runs ascend across chunks: the first
  // key of chunk i+1 exceeds the last key of chunk i.
  uint64_t prev = 0;
  bool first = true;
  for (auto& c : chunks) {
    Reader r(c);
    while (!r.AtEnd()) {
      uint64_t k = Decode<uint64_t>(r);
      (void)Decode<uint64_t>(r);
      if (!first) {
        EXPECT_GT(k, prev) << "keys not globally sorted";
      }
      prev = k;
      first = false;
    }
  }
  EXPECT_EQ(ChunkRoundTrip(s, 128), s);
}

TEST(DenseState, OffsetChunksRebuildInPlace) {
  DenseState<uint64_t> d;
  d.resize(10'000);
  for (size_t i = 0; i < d.size(); ++i) d[i] = i * 7;
  EXPECT_EQ(DecodeFromBytes<decltype(d)>(EncodeToBytes(d)), d);
  for (size_t bound : {size_t{0}, size_t{64}, size_t{4096}}) {
    EXPECT_EQ(ChunkRoundTrip(d, bound), d) << "bound=" << bound;
  }
  size_t chunks = 0;
  ChunkRoundTrip(d, 1 << 12, &chunks);
  EXPECT_GE(chunks, 10'000 * 8 / (1 << 12)) << "80 KB at 4 KB chunks";
}

TEST(DenseState, ChunkGapIsASerdeError) {
  DenseState<uint64_t> src;
  src.resize(100);
  std::vector<std::vector<uint8_t>> chunks;
  src.EnumerateChunks(64, [&](std::vector<uint8_t>&& c) {
    chunks.push_back(std::move(c));
  });
  ASSERT_GT(chunks.size(), 1u);
  DenseState<uint64_t> out;
  Reader r(chunks[1]);  // skipping chunk 0 leaves a gap
  EXPECT_THROW(out.AbsorbChunk(r), SerdeError);
}

/// A hand-made dense chunk: [u64 offset][u64 total][values].
std::vector<uint8_t> DenseChunk(uint64_t off, uint64_t total,
                                const std::vector<uint64_t>& values) {
  Writer w;
  w.WriteBytes(&off, sizeof(off));
  w.WriteBytes(&total, sizeof(total));
  w.WriteBytes(values.data(), values.size() * sizeof(uint64_t));
  return w.Take();
}

/// Absorbs `chunks` into a fresh state, in order, then finishes it.
void AbsorbAll(const std::vector<std::vector<uint8_t>>& chunks) {
  DenseState<uint64_t> out;
  for (const auto& c : chunks) {
    Reader r(c);
    out.AbsorbChunk(r);
  }
  out.FinishAbsorb();
}

// Every chunk carries the bin's total, so each inconsistency in a chunk
// sequence is caught where it shows, as a SerdeError.
TEST(DenseState, InconsistentChunkSequencesAreSerdeErrors) {
  const std::vector<uint64_t> v4 = {1, 2, 3, 4};
  AbsorbAll({DenseChunk(0, 8, v4), DenseChunk(4, 8, v4)});  // the good one
  // Truncated bin: the second chunk never arrives.
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 8, v4)}), SerdeError);
  // The chunks disagree on the total.
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 8, v4), DenseChunk(4, 9, v4)}),
               SerdeError);
  // Overlap: the second chunk rewrites values already absorbed.
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 8, v4), DenseChunk(2, 8, v4)}),
               SerdeError);
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 8, v4), DenseChunk(0, 8, v4)}),
               SerdeError);
  // Overrun: more values than the total, in the first or a later chunk.
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 3, v4)}), SerdeError);
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 6, v4), DenseChunk(4, 6, v4)}),
               SerdeError);
  // A chunk with no values, and a zero total.
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 8, {})}), SerdeError);
  EXPECT_THROW(AbsorbAll({DenseChunk(0, 0, v4)}), SerdeError);
}

// A corrupt total reserves at most kMaxReserveBytes up front and fails
// as a SerdeError at the end of the bin, never as bad_alloc.
TEST(DenseState, HostileTotalIsBoundedAndRejected) {
  using D = DenseState<uint64_t>;
  for (uint64_t total : {uint64_t{1} << 40, ~uint64_t{0}}) {
    D out;
    auto c = DenseChunk(0, total, {7, 8, 9});
    Reader r(c);
    out.AbsorbChunk(r);
    EXPECT_LE(out.raw().capacity() * sizeof(uint64_t), D::kMaxReserveBytes);
    EXPECT_THROW(out.FinishAbsorb(), SerdeError) << "total=" << total;
  }
}

TEST(BlobState, SlicesAndReassemblesAnySerdeType) {
  BlobState<std::map<std::string, std::vector<uint64_t>>> b;
  Xoshiro256 rng(3);
  for (int i = 0; i < 60; ++i) {
    b.value[std::to_string(rng.Next())] = {rng.Next(), rng.Next()};
  }
  auto bytes = EncodeToBytes(b);
  EXPECT_EQ(DecodeFromBytes<decltype(b)>(bytes).value, b.value);

  size_t chunks = 0;
  auto back = ChunkRoundTrip(b, 100, &chunks);
  EXPECT_EQ(back.value, b.value);
  EXPECT_GT(chunks, 2u) << "blob must slice at small bounds";
  // Every chunk except the final one is exactly the bound (pure slices).
  std::vector<std::vector<uint8_t>> cs;
  b.EnumerateChunks(100, [&](std::vector<uint8_t>&& c) {
    cs.push_back(std::move(c));
  });
  for (size_t i = 0; i + 1 < cs.size(); ++i) {
    EXPECT_EQ(cs[i].size(), 100u);
  }
}

TEST(Sections, AppendSectionPatchesTheLengthAndReadsBack) {
  Writer w;
  std::vector<uint8_t> payload(20, 0xab);
  for (uint8_t tag = 1; tag <= 3; ++tag) {
    size_t n = AppendSection(w, tag, [&](Writer& fw) {
      fw.WriteBytes(payload.data(), payload.size());
    });
    EXPECT_EQ(n, payload.size());
  }
  AppendSection(w, 4, [](Writer&) {});  // empty sections are legal
  auto bytes = w.Take();
  EXPECT_EQ(bytes.size(), 3 * (kSectionHeader + 20) + kSectionHeader);
  Reader r(bytes);
  std::vector<std::pair<uint8_t, size_t>> seen;
  ForEachSection(r, [&](uint8_t tag, Reader& sec) {
    seen.emplace_back(tag, sec.remaining());
  });
  EXPECT_EQ(seen, (std::vector<std::pair<uint8_t, size_t>>{
                      {1, 20}, {2, 20}, {3, 20}, {4, 0}}));
}

// The bulk path must cut chunks exactly where the per-element loop does
// ("stop once [u64 offset][u64 total] + values reaches the bound"), so
// frames stay byte-identical: 8190 u64 values per 64 KB chunk.
TEST(DenseState, BulkChunksCutWhereThePerElementLoopCuts) {
  DenseState<uint64_t> d;
  d.resize(1 << 16);
  for (size_t i = 0; i < d.size(); ++i) d[i] = i * 31;
  for (size_t bound : {size_t{1}, size_t{16}, size_t{17}, size_t{4096},
                       size_t{65536}}) {
    std::vector<std::vector<uint8_t>> chunks;
    d.EnumerateChunks(bound, [&](std::vector<uint8_t>&& c) {
      chunks.push_back(std::move(c));
    });
    // Reference: the per-element rule, spelled out.
    size_t off = 0;
    for (const auto& c : chunks) {
      Writer w;
      const uint64_t head[2] = {off, d.size()};
      w.WriteBytes(head, sizeof(head));
      while (off < d.size()) {
        Encode(w, d[off++]);
        if (w.size() >= bound) break;
      }
      EXPECT_EQ(c, w.Take()) << "bound=" << bound;
    }
    EXPECT_EQ(off, d.size()) << "bound=" << bound;
  }
  std::vector<size_t> sizes;
  d.EnumerateChunks(65536, [&](std::vector<uint8_t>&& c) {
    sizes.push_back(c.size());
    EXPECT_EQ(c.capacity(), c.size()) << "chunk buffer sized to the chunk";
  });
  ASSERT_EQ(sizes.size(), 9u);
  EXPECT_EQ(sizes[0], 16 + 8190 * 8u);
}

TEST(DenseState, PayloadEndingMidValueIsASerdeError) {
  DenseState<uint64_t> src;
  src.resize(10);
  std::vector<std::vector<uint8_t>> chunks;
  src.EnumerateChunks(0, [&](std::vector<uint8_t>&& c) {
    chunks.push_back(std::move(c));
  });
  ASSERT_EQ(chunks.size(), 1u);
  chunks[0].pop_back();  // 16 + 79 bytes: the last value is torn
  DenseState<uint64_t> out;
  Reader r(chunks[0]);
  EXPECT_THROW(out.AbsorbChunk(r), SerdeError);
}

// Absorb allocates once, at the first chunk, for the bin's total: later
// chunks append into that capacity, so the storage never moves and ends
// exactly full.
TEST(DenseState, AbsorbAllocatesOnceAtTheTotal) {
  DenseState<uint64_t> src;
  src.resize(1 << 16);
  for (size_t i = 0; i < src.size(); ++i) src[i] = i;
  std::vector<std::vector<uint8_t>> chunks;
  src.EnumerateChunks(65536, [&](std::vector<uint8_t>&& c) {
    chunks.push_back(std::move(c));
  });
  ASSERT_GT(chunks.size(), 2u);
  DenseState<uint64_t> out;
  const uint64_t* storage = nullptr;
  for (const auto& c : chunks) {
    Reader r(c);
    out.AbsorbChunk(r);
    if (storage == nullptr) storage = out.data();
    EXPECT_EQ(out.data(), storage) << "after " << out.size() << " values";
  }
  out.FinishAbsorb();
  EXPECT_EQ(out, src);
  EXPECT_EQ(out.raw().capacity(), out.size());
}

// A bin larger than the up-front reserve cap grows past it and still ends
// with capacity exactly at its total.
TEST(DenseState, BinAboveTheReserveCapEndsExactlyFull) {
  using D = DenseState<uint64_t>;
  D src;
  src.resize(D::kMaxReserveBytes / sizeof(uint64_t) * 3 / 2 + 5);
  for (size_t i = 0; i < src.size(); ++i) src[i] = i * 3;
  D out = ChunkRoundTrip(src, 1 << 20);
  EXPECT_EQ(out, src);
  EXPECT_EQ(out.raw().capacity(), out.size());
}

// Value types that do not encode as their raw bytes keep the per-element
// path (std::pair<uint8_t, uint64_t> has padding the encoding omits).
TEST(DenseState, NonRawValuesRoundTripElementWise) {
  DenseState<std::pair<uint8_t, uint64_t>> d;
  d.resize(300);
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = {static_cast<uint8_t>(i), i * 5};
  }
  for (size_t bound : {size_t{0}, size_t{1}, size_t{17}, size_t{256}}) {
    EXPECT_EQ(ChunkRoundTrip(d, bound), d) << "bound=" << bound;
  }
}

TEST(BackendSelection, MapsDeclaredTypesToBackends) {
  using M = BackendFor<std::unordered_map<uint64_t, uint64_t>>;
  using S = BackendFor<std::map<uint64_t, uint64_t>>;
  using D = BackendFor<std::vector<uint64_t>>;
  using Explicit = BackendFor<MapState<uint64_t, uint64_t>>;
  struct Custom {
    uint64_t x = 0;
    MEGA_SERDE_FIELDS(Custom, x)
  };
  using B = BackendFor<Custom>;
  static_assert(std::is_same_v<M, MapState<uint64_t, uint64_t>>);
  static_assert(std::is_same_v<S, SortedState<uint64_t, uint64_t>>);
  static_assert(std::is_same_v<D, DenseState<uint64_t>>);
  static_assert(std::is_same_v<Explicit, MapState<uint64_t, uint64_t>>);
  static_assert(std::is_same_v<B, BlobState<Custom>>);

  // The user-reference accessor hands back the declared type.
  M m;
  std::unordered_map<uint64_t, uint64_t>& raw =
      BackendSel<std::unordered_map<uint64_t, uint64_t>>::user(m);
  raw[3] = 4;
  EXPECT_EQ(m.raw().at(3), 4u);
}

// ------------------------------------------------------------- LogState

/// Options that force disk traffic at test scale: a few hundred bytes of
/// memtable, 4 KiB segments, and automatic compaction disabled
/// (compact_min_bytes out of reach) so tests trigger CompactNow
/// deliberately.
LogStateOptions SmallLogOpts(uint64_t memtable_bytes = 512) {
  LogStateOptions o;
  o.memtable_bytes = memtable_bytes;
  o.segment_bytes = 4ull << 10;
  o.compact_min_bytes = 1ull << 40;
  return o;
}

TEST(LogState, SpillsAndServesReadsFromDisk) {
  LogState<uint64_t, std::string> s(SmallLogOpts());
  std::map<uint64_t, std::string> ref;
  Xoshiro256 rng(51);
  for (int i = 0; i < 400; ++i) {
    uint64_t k = rng.NextBelow(300);  // overwrites generate garbage
    std::string v(1 + rng.NextBelow(24), static_cast<char>('a' + (k % 26)));
    s[k] = v;
    ref[k] = v;
  }
  EXPECT_GT(s.segment_count(), 0u) << "400 writes never spilled";
  EXPECT_LT(s.memtable_entries(), ref.size())
      << "everything still resident; the memtable bound did nothing";
  EXPECT_EQ(s.size(), ref.size());
  EXPECT_EQ(s.Snapshot(), ref);
  for (auto& [k, v] : ref) {
    EXPECT_TRUE(s.contains(k));
    auto got = s.Get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, v);
  }
  EXPECT_FALSE(s.Get(1'000'000).has_value());
  EXPECT_FALSE(s.contains(1'000'000));
}

TEST(LogState, EraseTombstonesAndRevival) {
  LogState<uint64_t, uint64_t> s(SmallLogOpts());
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t k = 0; k < 200; ++k) {
    s[k] = k * 3;
    ref[k] = k * 3;
  }
  s.FlushNow();  // push everything to disk so erase must tombstone
  for (uint64_t k = 0; k < 200; k += 2) {
    EXPECT_EQ(s.erase(k), 1u);
    ref.erase(k);
  }
  EXPECT_EQ(s.erase(7777), 0u);  // never present
  EXPECT_EQ(s.size(), ref.size());
  EXPECT_FALSE(s.contains(42));
  EXPECT_FALSE(s.Get(42).has_value());
  s[42] = 999;  // revive an erased, spilled key
  ref[42] = 999;
  EXPECT_EQ(s.Get(42).value(), 999u);
  EXPECT_EQ(s.Snapshot(), ref);
}

TEST(LogState, CompactionShrinksDiskAndPreservesContents) {
  LogState<uint64_t, uint64_t> s(SmallLogOpts(256));
  for (uint64_t k = 0; k < 300; ++k) s[k] = k;
  for (uint64_t k = 0; k < 300; ++k) s[k] = k + 1;  // 50% garbage
  s.FlushNow();
  ASSERT_GT(s.garbage_bytes(), 0u);
  auto before_snapshot = s.Snapshot();
  uint64_t before_disk = s.disk_bytes();
  s.CompactNow();
  EXPECT_LT(s.disk_bytes(), before_disk)
      << "rewriting live records did not drop the dead ones";
  EXPECT_EQ(s.garbage_bytes(), 0u);
  EXPECT_EQ(s.Snapshot(), before_snapshot);
  EXPECT_GT(s.segment_count(), 0u);
}

TEST(LogState, ChunkRoundTripAtEveryBound) {
  using S = LogState<uint64_t, std::string>;
  S src(SmallLogOpts());
  Xoshiro256 rng(53);
  for (int i = 0; i < 250; ++i) {
    src[rng.NextBelow(400)] = std::string(rng.NextBelow(20), 'x');
  }
  for (uint64_t k = 0; k < 400; k += 5) src.erase(k);  // tombstones too
  for (int i = 0; i < 8; ++i) src[1000 + i] = "delta";  // fresh memtable tail
  auto ref = src.Snapshot();
  ASSERT_GT(src.segment_count(), 0u);
  for (size_t bound : {size_t{0}, size_t{1}, size_t{128}, size_t{1} << 16}) {
    EXPECT_EQ(ChunkRoundTrip(src, bound).Snapshot(), ref)
        << "bound=" << bound;
  }
  size_t chunks = 0;
  ChunkRoundTrip(src, 256, &chunks);
  EXPECT_GT(chunks, 4u) << "spilled state must split at a 256-byte bound";

  // Chunks stream the live range in globally ascending key order, the
  // same sorted-run contract SortedState honors.
  std::vector<std::vector<uint8_t>> cs;
  src.EnumerateChunks(128, [&](std::vector<uint8_t>&& c) {
    cs.push_back(std::move(c));
  });
  uint64_t prev = 0;
  bool first = true;
  for (auto& c : cs) {
    Reader r(c);
    while (!r.AtEnd()) {
      uint64_t k = Decode<uint64_t>(r);
      (void)Decode<std::string>(r);
      if (!first) {
        EXPECT_GT(k, prev) << "keys not globally sorted";
      }
      prev = k;
      first = false;
    }
  }
}

TEST(LogState, WholeValueSerdeRoundTripsInline) {
  // Without a CheckpointDirScope the encoding is self-contained (tag 0):
  // it must decode in a process that shares no filesystem state.
  LogState<uint64_t, std::string> s(SmallLogOpts());
  for (uint64_t k = 0; k < 150; ++k) s[k] = std::string(k % 17, 'y');
  s.erase(3);
  s.erase(99);
  auto back = DecodeFromBytes<LogState<uint64_t, std::string>>(
      EncodeToBytes(s));
  EXPECT_EQ(back.Snapshot(), s.Snapshot());
  EXPECT_EQ(back.size(), s.size());
}

TEST(LogState, MoveTransfersSegmentOwnership) {
  auto make = [] {
    LogState<uint64_t, uint64_t> src(SmallLogOpts());
    for (uint64_t k = 0; k < 200; ++k) src[k] = k * 7;
    src.FlushNow();
    EXPECT_GT(src.segment_count(), 0u);
    return src;  // moves out; the source dtor must not delete the files
  };
  LogState<uint64_t, uint64_t> dst = make();
  EXPECT_GT(dst.segment_count(), 0u);
  for (uint64_t k = 0; k < 200; ++k) {
    auto got = dst.Get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k << " lost across the move";
    EXPECT_EQ(*got, k * 7);
  }
}

TEST(LogState, ManifestCheckpointRestoresAndRejectsTornSegment) {
  char tmpl[] = "/tmp/mega_lsck_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  std::string ckdir = tmpl;

  LogState<uint64_t, std::string> s(SmallLogOpts());
  std::map<uint64_t, std::string> ref;
  for (uint64_t k = 0; k < 180; ++k) {
    std::string v(1 + (k % 13), 'z');
    s[k] = v;
    ref[k] = v;
  }
  s.FlushNow();
  for (uint64_t k = 500; k < 510; ++k) {  // memtable delta rides the manifest
    s[k] = "delta";
    ref[k] = "delta";
  }
  ASSERT_GT(s.segment_count(), 0u);

  std::vector<uint8_t> bytes;
  {
    CheckpointDirScope scope(ckdir);
    bytes = EncodeToBytes(s);
  }

  // Restore outside the scope: the manifest carries its own directory.
  auto back = DecodeFromBytes<LogState<uint64_t, std::string>>(bytes);
  EXPECT_EQ(back.Snapshot(), ref);

  // Find the largest published segment file under the checkpoint dir.
  std::filesystem::path victim;
  uintmax_t victim_size = 0;
  for (auto& e : std::filesystem::recursive_directory_iterator(ckdir)) {
    if (e.is_regular_file() && e.file_size() > victim_size) {
      victim = e.path();
      victim_size = e.file_size();
    }
  }
  ASSERT_FALSE(victim.empty()) << "checkpoint published no segment files";
  std::vector<uint8_t> original = ReadSegmentBytes(victim.string());

  auto rewrite = [&](const std::vector<uint8_t>& content) {
    std::filesystem::remove(victim);
    std::ofstream out(victim, std::ios::binary);
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
  };

  // A flipped byte inside a record fails the CRC at restore.
  {
    auto corrupt = original;
    corrupt[corrupt.size() / 2] ^= 0x40;
    rewrite(corrupt);
    EXPECT_THROW(
        (DecodeFromBytes<LogState<uint64_t, std::string>>(bytes)),
        SerdeError);
    rewrite(original);
  }

  // A crash mid-compaction leaves stray .tmp files; restore only reads
  // what the manifest lists, so the leftover is ignored.
  {
    std::ofstream stray(victim.string() + ".junk.tmp", std::ios::binary);
    stray << "half-written compaction output";
    stray.close();
    auto ok = DecodeFromBytes<LogState<uint64_t, std::string>>(bytes);
    EXPECT_EQ(ok.Snapshot(), ref);
  }

  // A truncated (torn) segment fails the manifest size check outright —
  // no silent replay of a prefix.
  {
    auto torn = original;
    torn.resize(torn.size() - 5);
    rewrite(torn);
    EXPECT_THROW(
        (DecodeFromBytes<LogState<uint64_t, std::string>>(bytes)),
        SerdeError);
  }

  std::error_code ec;
  std::filesystem::remove_all(ckdir, ec);
}

TEST(SerdeFieldsMacro, EncodesInDeclarationOrder) {
  struct Pod {
    uint64_t a = 0;
    std::string b;
    std::vector<uint32_t> c;
    MEGA_SERDE_FIELDS(Pod, a, b, c)
  };
  Pod p;
  p.a = 99;
  p.b = "megaphone";
  p.c = {1, 2, 3};
  Pod q = DecodeFromBytes<Pod>(EncodeToBytes(p));
  EXPECT_EQ(q.a, p.a);
  EXPECT_EQ(q.b, p.b);
  EXPECT_EQ(q.c, p.c);

  // Field order is the declared order: a's 8 bytes lead the encoding.
  auto bytes = EncodeToBytes(p);
  Reader r(bytes);
  EXPECT_EQ(Decode<uint64_t>(r), 99u);
}

}  // namespace
}  // namespace state
}  // namespace megaphone
