// Megaphone implementations of the eight NEXMark queries (paper §5.1):
// the same query logic as queries_native.hpp, expressed through the
// migratable stateful operator interface. State lives in bins on the
// migratable-state layer (src/state/): keyed join/aggregate state is a
// state::MapState, small ordered aggregates (categories, sellers) use
// state::SortedState — so every query migrates as size-bounded chunks
// absorbed incrementally, with no per-query serde or bin plumbing (plain
// aggregate per-key values declare their fields with MEGA_SERDE_FIELDS).
// Window triggers are post-dated records that migrate with their bin.
//
// The `// [Qn-mega-begin/end]` markers delimit each query's implementation
// for the Table 1 lines-of-code comparison.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "megaphone/megaphone.hpp"
#include "nexmark/queries_common.hpp"
#include "nexmark/queries_native.hpp"
#include "timely/timely.hpp"

namespace nexmark {

using megaphone::Config;
using megaphone::ControlInst;
using megaphone::StatefulOutput;

/// Trivial bin state for stateless queries routed through Megaphone.
struct NoState {};

namespace detail {
template <typename T>
Config MegaConfig(const QueryConfig& cfg, const char* name) {
  Config m;
  m.num_bins = cfg.num_bins;
  m.chunk_bytes = cfg.chunk_bytes;
  m.name = name;
  (void)sizeof(T);
  return m;
}
}  // namespace detail

// [Q1-mega-begin]
/// Q1: currency conversion through the Megaphone interface (no state, so
/// migrations move nothing — the Figs. 5/6 baseline).
template <typename T>
StatefulOutput<Q1Out, T> Q1Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  return megaphone::Unary<NoState, Q1Out>(
      control, in.bids, [](const Bid& b) { return HashMix64(b.auction); },
      [](const T&, NoState&, std::vector<Bid>& bids, auto emit, auto&) {
        for (auto& b : bids) {
          b.price = ToEuros(b.price);
          emit(std::move(b));
        }
      },
      detail::MegaConfig<T>(cfg, "Q1"));
}
// [Q1-mega-end]

// [Q2-mega-begin]
/// Q2: selection through the Megaphone interface.
template <typename T>
StatefulOutput<Q2Out, T> Q2Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  return megaphone::Unary<NoState, Q2Out>(
      control, in.bids, [](const Bid& b) { return HashMix64(b.auction); },
      [](const T&, NoState&, std::vector<Bid>& bids, auto emit, auto&) {
        for (auto& b : bids) {
          if (Q2AuctionFilter(b)) emit(Q2Out{b.auction, b.price});
        }
      },
      detail::MegaConfig<T>(cfg, "Q2"));
}
// [Q2-mega-end]

// [Q3-mega-begin]
/// Q3: incremental person⋈auction join with migratable per-key state.
template <typename T>
StatefulOutput<Q3Out, T> Q3Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  auto people = timely::Filter(in.persons, Q3StateFilter);
  auto auctions = timely::Filter(in.auctions, [cfg](const Auction& a) {
    return a.category == cfg.q3_category;
  });
  using State = megaphone::state::MapState<
      uint64_t, std::pair<std::optional<Person>, std::vector<uint64_t>>>;
  return megaphone::Binary<State, Q3Out>(
      control, people, auctions,
      [](const Person& p) { return HashMix64(p.id); },
      [](const Auction& a) { return HashMix64(a.seller); },
      [](const T&, State& state, std::vector<Person>& ps,
         std::vector<Auction>& as, auto emit, auto&) {
        for (auto& p : ps) {
          auto& [person, pending] = state[p.id];
          for (uint64_t auction : pending) {
            emit(Q3Out{p.name, p.city, p.state, auction});
          }
          pending.clear();
          person = std::move(p);
        }
        for (auto& a : as) {
          auto& [person, pending] = state[a.seller];
          if (person) {
            emit(Q3Out{person->name, person->city, person->state, a.id});
          } else {
            pending.push_back(a.id);
          }
        }
      },
      detail::MegaConfig<T>(cfg, "Q3"));
}
// [Q3-mega-end]

// [ClosedAuctions-mega-begin]
/// Shared Q4/Q6 sub-plan: migratable auction⋈bid join keyed by auction id.
/// Each auction schedules a post-dated "close" marker at its expiry; the
/// marker migrates with the bin, so in-flight windows survive migration.
struct Q46Open {
  Auction auction;
  uint64_t best = 0;
};
template <typename T>
StatefulOutput<ClosedAuction, T> ClosedAuctionsMega(
    timely::Stream<ControlInst, T> control, NexmarkStreams<T>& in,
    const QueryConfig& cfg) {
  constexpr uint64_t kClose = ~uint64_t{0};  // marker: initial_bid = kClose
  using State = megaphone::state::MapState<uint64_t, Q46Open>;
  return megaphone::Binary<State, ClosedAuction>(
      control, in.auctions, in.bids,
      [](const Auction& a) { return HashMix64(a.id); },
      [](const Bid& b) { return HashMix64(b.auction); },
      [](const T& t, State& state, std::vector<Auction>& as,
         std::vector<Bid>& bs, auto emit, auto& sched) {
        std::vector<uint64_t> closing;
        for (auto& a : as) {
          if (a.initial_bid == kClose) {
            closing.push_back(a.id);  // close after same-time bids apply
            continue;
          }
          Auction marker = a;
          marker.initial_bid = kClose;
          sched.Schedule1(a.expires, std::move(marker));
          state.emplace(a.id, Q46Open{std::move(a), 0});
        }
        for (auto& b : bs) {
          auto it = state.find(b.auction);
          if (it != state.end() && b.date_time <= it->second.auction.expires) {
            it->second.best = std::max(it->second.best, b.price);
          }
        }
        for (uint64_t id : closing) {
          auto it = state.find(id);
          if (it == state.end()) continue;
          const Auction& a = it->second.auction;
          emit(ClosedAuction{a.id, a.seller, a.category, it->second.best});
          state.erase(it);
        }
        (void)t;
      },
      detail::MegaConfig<T>(cfg, "Q46Closed"));
}
// [ClosedAuctions-mega-end]

// [Q4-mega-begin]
/// Q4: running average closing price per category.
template <typename T>
StatefulOutput<Q4Out, T> Q4Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  auto closed = ClosedAuctionsMega(control, in, cfg);
  // Categories are few and ordered: the sorted backend migrates them as
  // sorted runs with O(1) hinted ingest per entry.
  using State =
      megaphone::state::SortedState<uint32_t, std::pair<uint64_t, uint64_t>>;
  return megaphone::Unary<State, Q4Out>(
      control, closed.stream,
      [](const ClosedAuction& c) { return HashMix64(c.category); },
      [](const T&, State& state, std::vector<ClosedAuction>& cs, auto emit,
         auto&) {
        std::map<uint32_t, std::vector<uint64_t>> by_cat;
        for (auto& c : cs) by_cat[c.category].push_back(c.price);
        for (auto& [cat, prices] : by_cat) {
          auto& [sum, count] = state[cat];
          for (uint64_t p : prices) sum += p;
          count += prices.size();
          emit(Q4Out{cat, sum / count});
        }
      },
      detail::MegaConfig<T>(cfg, "Q4Avg"));
}
// [Q4-mega-end]

// [Q5-mega-begin]
/// Q5: hot items over a sliding window; per-auction slice counts with
/// post-dated flush markers, then a per-window global argmax.
struct Q5PerAuction {
  std::map<uint64_t, uint64_t> slots;  // slice -> bid count
  uint64_t next_flush = 0;             // 0 = no flush scheduled
  MEGA_SERDE_FIELDS(Q5PerAuction, slots, next_flush)
};
template <typename T>
StatefulOutput<Q5Out, T> Q5Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  constexpr uint64_t kFlush = ~uint64_t{0};  // marker: bidder = kFlush
  const uint64_t slide = cfg.q5_slide_ms, slices = cfg.q5_slices;
  using Partial = std::tuple<uint64_t, uint64_t, uint64_t>;
  using S1 = megaphone::state::MapState<uint64_t, Q5PerAuction>;
  auto partials = megaphone::Unary<S1, Partial>(
      control, in.bids, [](const Bid& b) { return HashMix64(b.auction); },
      [slide, slices](const T& t, S1& state, std::vector<Bid>& bs, auto emit,
                      auto& sched) {
        std::vector<uint64_t> flushes;
        for (auto& b : bs) {
          if (b.bidder == kFlush) {
            flushes.push_back(b.auction);
            continue;
          }
          auto& s = state[b.auction];
          s.slots[b.date_time / slide]++;
          if (s.next_flush == 0) {
            s.next_flush = (b.date_time / slide + 1) * slide;
            Bid marker{b.auction, kFlush, 0, s.next_flush};
            sched.ScheduleAt(s.next_flush, std::move(marker));
          }
        }
        for (uint64_t auction : flushes) {
          auto it = state.find(auction);
          if (it == state.end()) continue;
          auto& s = it->second;
          uint64_t f = t;
          uint64_t first_slot = f / slide >= slices ? f / slide - slices : 0;
          while (!s.slots.empty() && s.slots.begin()->first < first_slot) {
            s.slots.erase(s.slots.begin());
          }
          uint64_t count = 0;
          for (auto& [slot, c] : s.slots) {
            if (slot < f / slide) count += c;
          }
          if (count > 0) emit(Partial{f, auction, count});
          if (!s.slots.empty()) {
            s.next_flush = f + slide;
            Bid marker{auction, kFlush, 0, s.next_flush};
            sched.ScheduleAt(s.next_flush, std::move(marker));
          } else {
            state.erase(it);
          }
        }
      },
      detail::MegaConfig<T>(cfg, "Q5Count"));
  // Stage 2: all of a window's partials share its timestamp, so a single
  // application per (time, bin) computes the global argmax statelessly.
  return megaphone::Unary<NoState, Q5Out>(
      control, partials.stream,
      [](const Partial& p) { return HashMix64(std::get<0>(p)); },
      [](const T& t, NoState&, std::vector<Partial>& ps, auto emit, auto&) {
        // (count, auction); higher count wins, lowest auction breaks ties.
        std::pair<uint64_t, uint64_t> best{0, ~uint64_t{0}};
        for (auto& [end, auction, count] : ps) {
          if (count > best.first ||
              (count == best.first && auction < best.second)) {
            best = {count, auction};
          }
        }
        if (best.first > 0) emit(Q5Out{t, best.second});
      },
      detail::MegaConfig<T>(cfg, "Q5Max"));
}
// [Q5-mega-end]

// [Q6-mega-begin]
/// Q6: average closing price of each seller's last ten auctions.
template <typename T>
StatefulOutput<Q6Out, T> Q6Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  auto closed = ClosedAuctionsMega(control, in, cfg);
  // Seller -> last-ten ring; sorted for the same reason as Q4.
  using State =
      megaphone::state::SortedState<uint64_t, std::vector<uint64_t>>;
  return megaphone::Unary<State, Q6Out>(
      control, closed.stream,
      [](const ClosedAuction& c) { return HashMix64(c.seller); },
      [](const T&, State& state, std::vector<ClosedAuction>& cs, auto emit,
         auto&) {
        std::map<uint64_t, std::vector<ClosedAuction>> by_seller;
        for (auto& c : cs) by_seller[c.seller].push_back(c);
        for (auto& [seller, closures] : by_seller) {
          std::sort(closures.begin(), closures.end());  // by auction id
          auto& ring = state[seller];
          for (auto& c : closures) {
            ring.push_back(c.price);
            if (ring.size() > 10) ring.erase(ring.begin());
          }
          uint64_t sum = 0;
          for (uint64_t p : ring) sum += p;
          emit(Q6Out{seller, sum / ring.size()});
        }
      },
      detail::MegaConfig<T>(cfg, "Q6Avg"));
}
// [Q6-mega-end]

// [Q7-mega-begin]
/// Q7: highest bid per tumbling window. Worker-local pre-aggregation is
/// shared with the native implementation (it holds no keyed state); the
/// windowed global maximum is a migratable Megaphone operator.
template <typename T>
StatefulOutput<Q7Out, T> Q7Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  const uint64_t window = cfg.q7_window_ms;
  timely::OperatorBuilder<T> b1(*in.bids.scope(), "Q7MegaLocal");
  auto* b_in = b1.AddInput(in.bids, timely::Pact<Bid>::Pipeline());
  auto [p_out, partials] = b1.template AddOutput<Q7Out>();
  struct S1 {
    std::map<T, uint64_t> local_max;
    timely::FrontierNotificator<T> notif;
  };
  auto s1 = std::make_shared<S1>();
  b1.Build([=](timely::OpCtx<T>& ctx) {
    b_in->ForEach([&](const T&, std::vector<Bid>& bs) {
      for (auto& bd : bs) {
        T end = (bd.date_time / window + 1) * window;
        auto [it, inserted] = s1->local_max.emplace(end, bd.price);
        if (!inserted) it->second = std::max(it->second, bd.price);
        if (inserted) s1->notif.NotifyAt(ctx, end);
      }
    });
    s1->notif.ForEachReady(ctx, {&b_in->frontier()}, [&](const T& end) {
      auto it = s1->local_max.find(end);
      if (it == s1->local_max.end()) return;
      p_out->Send(end, Q7Out{end, it->second});
      s1->local_max.erase(it);
    });
  });
  return megaphone::Unary<NoState, Q7Out>(
      control, partials,
      [](const Q7Out& p) { return HashMix64(p.first); },
      [](const T& t, NoState&, std::vector<Q7Out>& ps, auto emit, auto&) {
        uint64_t best = 0;
        for (auto& [end, price] : ps) best = std::max(best, price);
        emit(Q7Out{t, best});
      },
      detail::MegaConfig<T>(cfg, "Q7Max"));
}
// [Q7-mega-end]

// [Q8-mega-begin]
/// Q8: persons who registered and sold in the same tumbling window.
struct Q8PerPerson {
  uint64_t window = ~uint64_t{0};
  std::string name;
  uint64_t emitted = ~uint64_t{0};
  /// Auction windows seen before this person's record arrived (the
  /// same-time race: an auction bundle can be processed ahead of the
  /// person bundle it joins with). Flushed when the person arrives.
  std::vector<uint64_t> pending;
  MEGA_SERDE_FIELDS(Q8PerPerson, window, name, emitted, pending)
};
template <typename T>
StatefulOutput<Q8Out, T> Q8Mega(timely::Stream<ControlInst, T> control,
                                NexmarkStreams<T>& in,
                                const QueryConfig& cfg) {
  const uint64_t window = cfg.q8_window_ms;
  using State = megaphone::state::MapState<uint64_t, Q8PerPerson>;
  return megaphone::Binary<State, Q8Out>(
      control, in.persons, in.auctions,
      [](const Person& p) { return HashMix64(p.id); },
      [](const Auction& a) { return HashMix64(a.seller); },
      [window](const T&, State& state, std::vector<Person>& ps,
               std::vector<Auction>& as, auto emit, auto&) {
        for (auto& p : ps) {
          auto& s = state[p.id];
          s.window = p.date_time / window;
          s.name = std::move(p.name);
          for (uint64_t w : s.pending) {
            if (w == s.window && s.emitted != w) {
              emit(Q8Out{p.id, s.name});
              s.emitted = w;
            }
          }
          s.pending.clear();
        }
        for (auto& a : as) {
          auto& s = state[a.seller];
          uint64_t w = a.date_time / window;
          if (s.window == w) {
            if (s.emitted != w) {
              emit(Q8Out{a.seller, s.name});
              s.emitted = w;
            }
          } else if (s.window == ~uint64_t{0}) {
            s.pending.push_back(w);  // same-time race: person not yet seen
          }
        }
      },
      detail::MegaConfig<T>(cfg, "Q8"));
}
// [Q8-mega-end]

}  // namespace nexmark
