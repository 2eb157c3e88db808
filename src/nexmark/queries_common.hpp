// Shared types and configuration for the NEXMark query implementations.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "nexmark/event.hpp"
#include "timely/stream.hpp"

namespace nexmark {

/// The three demultiplexed event streams every query consumes.
template <typename T>
struct NexmarkStreams {
  timely::Stream<Person, T> persons;
  timely::Stream<Auction, T> auctions;
  timely::Stream<Bid, T> bids;
};

/// Per-query parameters. Windows are in event-time milliseconds and encode
/// the paper's time dilation (§5.1: Q5's sixty-minute window reported per
/// second, Q8's twelve-hour window dilated by 79x) as directly
/// configurable sizes.
struct QueryConfig {
  uint32_t num_bins = 256;
  /// State-chunk frame bound for the query's stateful operators (0 =
  /// monolithic single-frame migration).
  uint64_t chunk_bytes = 0;

  uint32_t q3_category = 0;      // auction category to join on
  uint64_t q5_slide_ms = 200;    // Q5 slide ("report every second", dilated)
  uint64_t q5_slices = 10;       // Q5 window = slide * slices
  uint64_t q7_window_ms = 1000;  // Q7 tumbling window ("each minute", dilated)
  uint64_t q8_window_ms = 5000;  // Q8 tumbling window ("twelve hours", dilated)
};

// Query output types.
using Q1Out = Bid;                                   // price in EUR
using Q2Out = std::pair<uint64_t, uint64_t>;         // (auction, price)
using Q3Out = std::tuple<std::string, std::string, std::string, uint64_t>;
// (name, city, state, auction)
struct ClosedAuction {  // intermediate for Q4/Q6
  uint64_t auction = 0;
  uint64_t seller = 0;
  uint32_t category = 0;
  uint64_t price = 0;
  friend bool operator==(const ClosedAuction&, const ClosedAuction&) = default;
  friend bool operator<(const ClosedAuction& a, const ClosedAuction& b) {
    return a.auction < b.auction;
  }
};
using Q4Out = std::pair<uint32_t, uint64_t>;  // (category, running avg)
using Q5Out = std::pair<uint64_t, uint64_t>;  // (window end, hottest auction)
using Q6Out = std::pair<uint64_t, uint64_t>;  // (seller, avg of last 10)
using Q7Out = std::pair<uint64_t, uint64_t>;  // (window end, highest bid)
using Q8Out = std::pair<uint64_t, std::string>;  // (person id, name)

/// Q3's person filter (paper: "recommend local auctions to individuals").
inline bool Q3StateFilter(const Person& p) {
  return p.state == "OR" || p.state == "ID" || p.state == "CA";
}

/// Q2's auction filter.
inline bool Q2AuctionFilter(const Bid& b) { return b.auction % 8 == 0; }

/// Q1's currency conversion (USD -> EUR at the paper-era rate 0.908).
inline uint64_t ToEuros(uint64_t usd) { return usd * 908 / 1000; }

}  // namespace nexmark
