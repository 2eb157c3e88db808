// Tests for src/common: hashing, RNG, serde, pacing, throttling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/rate_limiter.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "net/frame.hpp"
#include "state/segment_log.hpp"

namespace megaphone {
namespace {

TEST(Hash, Mix64IsDeterministic) {
  EXPECT_EQ(HashMix64(42), HashMix64(42));
  EXPECT_NE(HashMix64(42), HashMix64(43));
}

TEST(Hash, HighBitsAreWellDistributed) {
  // Megaphone bins by the MOST significant bits (paper §4.2): sequential
  // keys must spread across bins.
  constexpr int kLogBins = 8;
  std::vector<int> counts(1 << kLogBins, 0);
  constexpr int kKeys = 1 << 16;
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t bin = HashMix64(k) >> (64 - kLogBins);
    counts[bin]++;
  }
  int expected = kKeys / (1 << kLogBins);
  for (int c : counts) {
    EXPECT_GT(c, expected / 2);
    EXPECT_LT(c, expected * 2);
  }
}

TEST(Hash, BytesDiffersByContent) {
  EXPECT_NE(HashBytes("hello"), HashBytes("hellp"));
  EXPECT_EQ(HashBytes("hello"), HashBytes("hello"));
}

// The checksum bytes on the wire and on disk: one FNV-1a serves mesh
// frames, segment records and HashBytes, and its outputs are pinned so a
// refactor of the hash cannot silently change a format.
TEST(Hash, Fnv1aOutputsArePinned) {
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  EXPECT_EQ(net::FrameChecksum(buf.data(), buf.size()), 0xdabb4342u);
  EXPECT_EQ(net::FrameChecksum(buf.data(), 0), 0x4fd0bfc1u);
  std::vector<uint8_t> rec;
  state::AppendSegmentRecord(rec, state::kSegmentRecordPut, {1, 2, 3},
                             {'v', 'a', 'l'});
  ASSERT_EQ(rec.size(), 31u);
  uint32_t crc;
  std::memcpy(&crc, rec.data() + rec.size() - 4, 4);
  EXPECT_EQ(crc, 0x209b0da1u);
  Reader r(rec.data(), rec.size());
  EXPECT_EQ(state::DecodeSegmentRecord(r).value,
            (std::vector<uint8_t>{'v', 'a', 'l'}));
  EXPECT_EQ(HashBytes("megaphone"), 0xa1282cff1d936b93ull);
}

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, XoshiroDeterministicPerSeed) {
  Xoshiro256 a(1), b(1), c(2);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    if (x != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(3);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Xoshiro256 rng(11);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 100000; ++i) buckets[rng.NextBelow(10)]++;
  for (int b : buckets) {
    EXPECT_GT(b, 9000);
    EXPECT_LT(b, 11000);
  }
}

template <typename T>
void RoundTrip(const T& v) {
  auto bytes = EncodeToBytes(v);
  T back = DecodeFromBytes<T>(bytes);
  EXPECT_EQ(v, back);
}

TEST(Serde, Scalars) {
  RoundTrip<uint64_t>(0);
  RoundTrip<uint64_t>(~uint64_t{0});
  RoundTrip<int32_t>(-17);
  RoundTrip<double>(3.25);
  RoundTrip<char>('x');
  RoundTrip<bool>(true);
}

TEST(Serde, Strings) {
  RoundTrip(std::string());
  RoundTrip(std::string("megaphone"));
  RoundTrip(std::string(10000, 'z'));
  RoundTrip(std::string("embedded\0null", 13));
}

TEST(Serde, PairsAndOptionals) {
  RoundTrip(std::pair<int, std::string>{4, "four"});
  RoundTrip(std::optional<int>{});
  RoundTrip(std::optional<int>{9});
  RoundTrip(std::optional<std::string>{"opt"});
}

TEST(Serde, Vectors) {
  RoundTrip(std::vector<uint64_t>{});
  RoundTrip(std::vector<uint64_t>{1, 2, 3});
  RoundTrip(std::vector<std::string>{"a", "", "ccc"});
  RoundTrip(std::vector<std::vector<int>>{{1}, {}, {2, 3}});
}

TEST(Serde, Maps) {
  RoundTrip(std::map<uint64_t, uint64_t>{{1, 10}, {2, 20}});
  RoundTrip(std::map<std::string, std::vector<int>>{{"k", {1, 2}}});
  std::unordered_map<uint64_t, std::string> um{{5, "five"}, {6, "six"}};
  auto bytes = EncodeToBytes(um);
  auto back = DecodeFromBytes<std::unordered_map<uint64_t, std::string>>(bytes);
  EXPECT_EQ(um, back);
}

struct CustomState {
  uint64_t count = 0;
  std::string tag;
  std::vector<uint32_t> history;

  bool operator==(const CustomState&) const = default;

  void Serialize(Writer& w) const {
    Encode(w, count);
    Encode(w, tag);
    Encode(w, history);
  }
  static CustomState Deserialize(Reader& r) {
    CustomState s;
    s.count = Decode<uint64_t>(r);
    s.tag = Decode<std::string>(r);
    s.history = Decode<std::vector<uint32_t>>(r);
    return s;
  }
};

TEST(Serde, CustomTypeMemberSerde) {
  CustomState s{42, "bin-7", {1, 2, 3}};
  RoundTrip(s);
  RoundTrip(std::vector<CustomState>{s, {}, s});
  RoundTrip(std::map<uint64_t, CustomState>{{3, s}});
}

TEST(Serde, PropertyRandomRoundTrips) {
  Xoshiro256 rng(1234);
  for (int iter = 0; iter < 200; ++iter) {
    std::map<uint64_t, std::vector<std::pair<uint64_t, std::string>>> m;
    int keys = static_cast<int>(rng.NextBelow(8));
    for (int k = 0; k < keys; ++k) {
      auto& v = m[rng.Next()];
      int items = static_cast<int>(rng.NextBelow(5));
      for (int i = 0; i < items; ++i) {
        v.emplace_back(rng.Next(),
                       std::string(rng.NextBelow(16), 'a' + (k % 26)));
      }
    }
    RoundTrip(m);
  }
}

TEST(Serde, DecodeChecksTrailingBytes) {
  auto bytes = EncodeToBytes<uint64_t>(7);
  bytes.push_back(0);
  EXPECT_THROW(DecodeFromBytes<uint64_t>(bytes), SerdeError);
}

TEST(Serde, DecodePastEndThrows) {
  std::vector<uint8_t> bytes{1, 2};
  EXPECT_THROW(DecodeFromBytes<uint64_t>(bytes), SerdeError);
}

TEST(Pacer, DeadlinesAreEvenlySpaced) {
  OpenLoopPacer p(1e6, 1000);  // 1M rec/s, 1us per record
  EXPECT_EQ(p.DeadlineFor(0), 1000u);
  EXPECT_EQ(p.DeadlineFor(1), 2000u);
  EXPECT_EQ(p.DeadlineFor(1000), 1001000u);
}

TEST(Pacer, RecordsDueIsOpenLoop) {
  OpenLoopPacer p(1000.0, 0);  // 1ms per record
  EXPECT_EQ(p.RecordsDueBy(0), 1u);          // record 0's deadline is t=0
  EXPECT_EQ(p.RecordsDueBy(1'000'000), 2u);  // records 0 and 1 due
  // A stall does not reduce the due count: the backlog accumulates.
  EXPECT_EQ(p.RecordsDueBy(10'000'000), 11u);
}

TEST(Pacer, FirstRecordDueExactlyAtStart) {
  // DeadlineFor(0) == start, so the due count must flip 0 -> 1 exactly at
  // the start instant, not one poll later.
  OpenLoopPacer p(1000.0, 5'000'000);
  EXPECT_EQ(p.RecordsDueBy(4'999'999), 0u);
  EXPECT_EQ(p.RecordsDueBy(5'000'000), 1u);
  EXPECT_EQ(p.RecordsDueBy(5'000'001), 1u);
  EXPECT_EQ(p.DeadlineFor(0), p.start_nanos());
}

TEST(Throttle, DisabledAdmitsEverything) {
  ByteThrottle t(0);
  EXPECT_TRUE(t.Admit(1 << 30, 0));
  EXPECT_TRUE(t.Admit(1 << 30, 0));
}

TEST(Throttle, EnforcesRate) {
  ByteThrottle t(1000);  // 1000 B/s
  uint64_t now = 1;
  EXPECT_TRUE(t.Admit(600, now));   // bucket starts full: 1000 B of credit
  EXPECT_FALSE(t.Admit(600, now));  // only 400 left
  now += 500'000'000;               // +0.5s -> 400 + 500 = 900 bytes
  EXPECT_TRUE(t.Admit(600, now));
  now += 200'000'000;               // +0.2s -> 300 + 200 = 500 bytes
  EXPECT_FALSE(t.Admit(600, now));
}

TEST(Throttle, FirstAdmitAtTimeZeroGetsFullBucket) {
  // Clocks may legitimately start at 0: the first Admit must still see a
  // full bucket (the old sentinel conflated now==0 with "never refilled").
  ByteThrottle t(1000);
  EXPECT_TRUE(t.Admit(1000, 0));
  EXPECT_FALSE(t.Admit(1, 0));  // drained, and no time has passed
  EXPECT_TRUE(t.Admit(1, 1'000'000));  // 1 ms -> 1 byte of credit
}

TEST(Throttle, CreditCapsAtOneSecond) {
  ByteThrottle t(1000);
  uint64_t now = 1;
  EXPECT_TRUE(t.Admit(1000, now));  // drain the initial full bucket
  now += 60ULL * 1'000'000'000;  // one minute idle
  EXPECT_TRUE(t.Admit(1000, now));
  EXPECT_FALSE(t.Admit(500, now));  // cap was 1s worth, not 60s
}

}  // namespace
}  // namespace megaphone
