// Additional engine tests: batching, throttled outputs, routing pacts,
// frontier monotonicity, channel registry, and input-handle misuse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "timely/timely.hpp"

namespace timely {
namespace {

using megaphone::HashMix64;

TEST(TimelyExtra, LargeBatchesFlushCompletely) {
  // More records per epoch than the output batch size (1024) exercises
  // mid-logic buffer flushes.
  std::atomic<uint64_t> count{0};
  Execute(Config{2}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      auto ex = Exchange(stream, [](const uint64_t& x) { return x; });
      Sink(ex, [&](const uint64_t&, std::vector<uint64_t>& d) {
        count += d.size();
      });
      return in;
    });
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < 10000; ++i) batch.push_back(i);
    input->SendBatch(std::move(batch));
    input->Close();
  });
  EXPECT_EQ(count.load(), 20000u);
}

TEST(TimelyExtra, RoutePactDeliversToNamedWorker) {
  const uint32_t workers = 4;
  std::mutex mu;
  std::map<uint32_t, std::set<uint64_t>> seen;
  Execute(Config{workers}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      OperatorBuilder<uint64_t> b(s, "RouteSink");
      auto* h = b.AddInput(stream, Pact<uint64_t>::Route([](const uint64_t& x) {
        return static_cast<uint32_t>(x % 3);  // explicit target worker
      }));
      uint32_t me = s.worker();
      b.Build([h, me, &mu, &seen](OpCtx<uint64_t>&) {
        h->ForEach([&](const uint64_t&, std::vector<uint64_t>& d) {
          std::lock_guard<std::mutex> lock(mu);
          for (auto x : d) seen[me].insert(x);
        });
      });
      return in;
    });
    if (w.index() == 0) {
      for (uint64_t i = 0; i < 30; ++i) input->Send(i);
    }
    input->Close();
  });
  for (auto& [worker, xs] : seen) {
    for (uint64_t x : xs) EXPECT_EQ(x % 3, worker);
  }
  EXPECT_EQ(seen[0].size() + seen[1].size() + seen[2].size(), 30u);
  EXPECT_TRUE(seen[3].empty());
}

TEST(TimelyExtra, ThrottledOutputDelaysButDeliversAll) {
  // A throttled output handle models network bandwidth: everything still
  // arrives, and sender-side pending bytes eventually drain.
  std::atomic<uint64_t> received{0};
  Execute(Config{1}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      OperatorBuilder<uint64_t> b(s, "Throttled");
      auto* h = b.AddInput(stream, Pact<uint64_t>::Pipeline());
      auto [out, out_stream] = b.AddOutput<uint64_t>();
      out->SetThrottle(64 * 1024,  // 64 KiB/s
                       [](const uint64_t&) { return size_t{1024}; });
      b.Build([h, out](OpCtx<uint64_t>&) {
        h->ForEach([&](const uint64_t& t, std::vector<uint64_t>& d) {
          out->SendBatch(t, std::move(d));
        });
      });
      Sink(out_stream, [&](const uint64_t&, std::vector<uint64_t>& d) {
        received += d.size();
      });
      return std::make_pair(in, Probe(out_stream));
    });
    auto& [input, probe] = handles;
    for (uint64_t i = 0; i < 64; ++i) input->Send(i);  // 64 KiB of "bytes"
    input->Close();
    w.StepUntil([&] { return probe.Done(); });
  });
  EXPECT_EQ(received.load(), 64u);
}

TEST(TimelyExtra, ThrottledRecordLargerThanOneSecondStillDelivers) {
  // A single record that outweighs a full second of bandwidth can never
  // fit a one-second token bucket; the throttle must still let it through
  // once its own credit has built up instead of spinning forever.
  std::atomic<uint64_t> received{0};
  Execute(Config{1}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      OperatorBuilder<uint64_t> b(s, "Oversized");
      auto* h = b.AddInput(stream, Pact<uint64_t>::Pipeline());
      auto [out, out_stream] = b.AddOutput<uint64_t>();
      out->SetThrottle(1024,  // 1 KiB/s, one record is 1.5 KiB
                       [](const uint64_t&) { return size_t{1536}; });
      b.Build([h, out](OpCtx<uint64_t>&) {
        h->ForEach([&](const uint64_t& t, std::vector<uint64_t>& d) {
          out->SendBatch(t, std::move(d));
        });
      });
      // The only consumer, so the one record is one throttled bundle.
      Sink(out_stream, [&](const uint64_t&, std::vector<uint64_t>& d) {
        received += d.size();
      });
      return in;
    });
    input->Send(7);
    input->Close();
  });
  EXPECT_EQ(received.load(), 1u);
}

TEST(TimelyExtra, FrontiersAreMonotone) {
  // Property: the frontier an operator observes never regresses.
  std::atomic<bool> regressed{false};
  Execute(Config{4}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      auto ex = Exchange(stream, [](const uint64_t& x) { return x; });
      OperatorBuilder<uint64_t> b(s, "MonotoneCheck");
      auto* h = b.AddInput(ex, Pact<uint64_t>::Pipeline());
      auto last = std::make_shared<Antichain<uint64_t>>();
      b.Build([h, last, &regressed](OpCtx<uint64_t>&) {
        h->ForEach([](const uint64_t&, std::vector<uint64_t>&) {});
        const auto& f = h->frontier();
        // Monotone advance: every element of the new frontier must be in
        // advance of the previous frontier.
        if (!last->empty()) {
          for (const auto& n : f.elements()) {
            if (!last->LessEqual(n)) regressed = true;
          }
        }
        *last = f;
      });
      return in;
    });
    for (uint64_t e = 0; e < 50; ++e) {
      input->Send(e * 4 + w.index());
      input->AdvanceTo(e + 1);
      w.Step();
    }
    input->Close();
  });
  EXPECT_FALSE(regressed.load());
}

TEST(TimelyExtra, AdvanceToSameEpochIsNoOp) {
  Execute(Config{1}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      Sink(stream, [](const uint64_t&, std::vector<uint64_t>&) {});
      return in;
    });
    input->AdvanceTo(5);
    input->AdvanceTo(5);  // no-op
    EXPECT_EQ(input->epoch(), 5u);
    input->Close();
  });
}

TEST(TimelyExtra, SendOnClosedInputAborts) {
  EXPECT_DEATH(
      {
        Execute(Config{1}, [&](Worker& w) {
          auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
            auto [in, stream] = NewInput<uint64_t>(s);
            Sink(stream, [](const uint64_t&, std::vector<uint64_t>&) {});
            return in;
          });
          input->Close();
          input->Send(1);
        });
      },
      "closed input");
}

TEST(TimelyExtra, BackwardsAdvanceAborts) {
  EXPECT_DEATH(
      {
        Execute(Config{1}, [&](Worker& w) {
          auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
            auto [in, stream] = NewInput<uint64_t>(s);
            Sink(stream, [](const uint64_t&, std::vector<uint64_t>&) {});
            return in;
          });
          input->AdvanceTo(10);
          input->AdvanceTo(4);
        });
      },
      "monotone");
}

TEST(TimelyExtra, DeepPipelineAcrossWorkers) {
  // A ten-stage pipeline alternating maps and exchanges.
  std::atomic<uint64_t> sum{0};
  constexpr uint64_t kRecords = 1000;
  Execute(Config{4}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      Stream<uint64_t, uint64_t> cur = stream;
      for (int stage = 0; stage < 5; ++stage) {
        cur = Map(cur, [](uint64_t x) { return x + 1; });
        cur = Exchange(cur, [stage](const uint64_t& x) {
          return HashMix64(x + stage);
        });
      }
      Sink(cur, [&](const uint64_t&, std::vector<uint64_t>& d) {
        for (auto x : d) sum += x;
      });
      return in;
    });
    for (uint64_t i = w.index(); i < kRecords; i += w.peers()) {
      input->Send(i);
    }
    input->Close();
  });
  // Each record gains +5 over the pipeline.
  EXPECT_EQ(sum.load(), kRecords * (kRecords - 1) / 2 + 5 * kRecords);
}

TEST(TimelyExtra, ProbeSemanticsOnEmptyFrontier) {
  Execute(Config{2}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      return std::make_pair(in, Probe(stream));
    });
    auto& [input, probe] = handles;
    EXPECT_TRUE(probe.LessEqual(0));
    EXPECT_FALSE(probe.LessThan(0));
    EXPECT_TRUE(probe.LessThan(100));
    input->Close();
    w.StepUntil([&] { return probe.Done(); });
    // Empty frontier: nothing may still arrive.
    EXPECT_FALSE(probe.LessEqual(0));
    EXPECT_FALSE(probe.LessThan(~uint64_t{0}));
  });
}

TEST(TimelyExtra, PerSenderFifoThroughExchange) {
  // Records from one sender to one receiver preserve order within a time.
  const uint32_t workers = 4;
  std::mutex mu;
  std::map<uint64_t, std::vector<uint64_t>> per_sender;  // sender -> seq
  Execute(Config{workers}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<std::pair<uint64_t, uint64_t>>(s);
      // All records to worker 0.
      OperatorBuilder<uint64_t> b(s, "FifoSink");
      auto* h = b.AddInput(
          stream, Pact<std::pair<uint64_t, uint64_t>>::Route(
                      [](const auto&) { return 0u; }));
      b.Build([h, &mu, &per_sender](OpCtx<uint64_t>&) {
        h->ForEach([&](const uint64_t&, auto& d) {
          std::lock_guard<std::mutex> lock(mu);
          for (auto& [sender, seq] : d) per_sender[sender].push_back(seq);
        });
      });
      return in;
    });
    for (uint64_t seq = 0; seq < 2000; ++seq) {
      input->Send({w.index(), seq});
    }
    input->Close();
  });
  ASSERT_EQ(per_sender.size(), workers);
  for (auto& [sender, seqs] : per_sender) {
    ASSERT_EQ(seqs.size(), 2000u);
    for (uint64_t i = 0; i < seqs.size(); ++i) {
      ASSERT_EQ(seqs[i], i) << "sender " << sender;
    }
  }
}

TEST(TimelyExtra, NotificationOrderAcrossManyEpochsUnderLoad) {
  // Per-worker delivery order of notifications is by timestamp even when
  // many epochs are in flight simultaneously.
  const uint32_t workers = 2;
  std::mutex mu;
  std::map<uint32_t, std::vector<uint64_t>> delivered;
  Execute(Config{workers}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      OperatorBuilder<uint64_t> b(s, "ManyEpochs");
      auto* h = b.AddInput(stream, Pact<uint64_t>::Exchange(
                                       [](const uint64_t& x) { return x; }));
      auto notif = std::make_shared<FrontierNotificator<uint64_t>>();
      uint32_t me = s.worker();
      b.Build([h, notif, me, &mu, &delivered](OpCtx<uint64_t>& ctx) {
        h->ForEach([&](const uint64_t& t, std::vector<uint64_t>&) {
          notif->NotifyAt(ctx, t);
        });
        notif->ForEachReady(ctx, {&h->frontier()}, [&](const uint64_t& t) {
          std::lock_guard<std::mutex> lock(mu);
          delivered[me].push_back(t);
        });
      });
      return in;
    });
    // Send 100 epochs without stepping in between (all in flight at once).
    for (uint64_t e = 0; e < 100; ++e) {
      input->Send(w.index());
      input->Send(1 - w.index());
      input->AdvanceTo(e + 1);
    }
    input->Close();
  });
  for (auto& [worker, times] : delivered) {
    ASSERT_EQ(times.size(), 100u);
    for (size_t i = 1; i < times.size(); ++i) {
      EXPECT_LT(times[i - 1], times[i]) << "worker " << worker;
    }
  }
}

// Per-target FIFO across every send path (DESIGN.md, hot-path invariant
// 4): per-record Send, small (buffered) and large (adopted or scattered)
// SendBatch, and pre-routed SendBundle, interleaved at one time over
// several epochs, from an input (published by each send call) and from an
// operator output (staged until the step commits), under Pipeline and
// Exchange contracts. Every receiver must see each sender's records in
// send order.
using FifoRec = std::pair<uint64_t, uint64_t>;  // (sender, seq)

struct FifoLog {
  std::mutex mu;
  // (sender, receiver) -> seqs, in send order and in arrival order.
  std::map<std::pair<uint64_t, uint32_t>, std::vector<uint64_t>> sent;
  std::map<std::pair<uint64_t, uint32_t>, std::vector<uint64_t>> received;
};

uint32_t FifoExchangeTarget(const FifoRec& r) {
  return static_cast<uint32_t>(HashMix64(r.second) % 2);
}

// One epoch's interleaving of every send path on `out` at `time`.
void EmitMixed(OutputHandle<FifoRec, uint64_t>* out, uint64_t time,
               uint32_t sender, bool exchange, uint64_t& seq, FifoLog& log) {
  auto dest = [&](const FifoRec& r) {
    return exchange ? FifoExchangeTarget(r) : sender;
  };
  std::vector<FifoRec> sent;  // this epoch's records, in send order
  auto next = [&] {
    sent.push_back(FifoRec{sender, seq++});
    return sent.back();
  };
  auto send = [&](int n) {
    for (int i = 0; i < n; ++i) out->Send(time, next());
  };
  auto batch = [&](size_t n) {
    std::vector<FifoRec> v;
    for (size_t i = 0; i < n; ++i) v.push_back(next());
    out->SendBatch(time, std::move(v));
  };
  auto bundle = [&](size_t n) {
    for (uint32_t target = 0; target < 2; ++target) {
      if (!exchange && target != sender) continue;
      std::vector<FifoRec> v;
      while (v.size() < n) {
        FifoRec r{sender, seq++};
        if (dest(r) != target) continue;  // this seq is never sent
        sent.push_back(r);
        v.push_back(r);
      }
      out->SendBundle(time, target, v);
    }
  };
  send(3);
  batch(100);   // buffered
  send(2);
  bundle(50);
  batch(600);   // adopted (Pipeline) or scattered (Exchange)
  send(1);
  batch(5000);  // crosses a buffer boundary when buffered
  batch(300);
  bundle(700);
  send(1);
  std::lock_guard<std::mutex> lock(log.mu);
  for (const auto& r : sent) log.sent[{sender, dest(r)}].push_back(r.second);
}

void RunMixedSendFifo(bool from_operator, bool exchange) {
  constexpr uint64_t kEpochs = 3;
  FifoLog log;
  Execute(Config{2}, [&](Worker& w) {
    auto [input, emitter] = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<FifoRec>(s);
      OutputHandle<FifoRec, uint64_t>* emitter = stream.output();
      Stream<FifoRec, uint64_t> mixed = stream;
      if (from_operator) {
        // The input only triggers the operator, which emits one epoch's
        // interleaving per trigger.
        OperatorBuilder<uint64_t> b(s, "MixedEmitter");
        auto* h = b.AddInput(stream, Pact<FifoRec>::Pipeline());
        auto [out, out_stream] = b.AddOutput<FifoRec>();
        auto seq = std::make_shared<uint64_t>(0);
        uint32_t me = s.worker();
        b.Build([h, out, seq, me, exchange, &log](OpCtx<uint64_t>&) {
          h->ForEach([&](const uint64_t& t, std::vector<FifoRec>&) {
            EmitMixed(out, t, me, exchange, *seq, log);
          });
        });
        mixed = out_stream;
        emitter = nullptr;
      }
      auto pact = exchange ? Pact<FifoRec>::Exchange([](const FifoRec& r) {
        return HashMix64(r.second);
      })
                           : Pact<FifoRec>::Pipeline();
      OperatorBuilder<uint64_t> b(s, "FifoCollector");
      auto* h = b.AddInput(mixed, pact);
      uint32_t me = s.worker();
      b.Build([h, me, &log](OpCtx<uint64_t>&) {
        h->ForEach([&](const uint64_t&, std::vector<FifoRec>& d) {
          std::lock_guard<std::mutex> lock(log.mu);
          for (const auto& [sender, seq] : d) {
            log.received[{sender, me}].push_back(seq);
          }
        });
      });
      return std::make_pair(in, emitter);
    });
    uint64_t seq = 0;
    for (uint64_t e = 0; e < kEpochs; ++e) {
      if (emitter != nullptr) {
        EmitMixed(emitter, e, w.index(), exchange, seq, log);
      } else {
        input->Send(FifoRec{w.index(), 0});  // trigger
      }
      input->AdvanceTo(e + 1);
      w.Step();
    }
    input->Close();
  });
  ASSERT_EQ(log.sent.size(), exchange ? 4u : 2u);
  for (const auto& [link, seqs] : log.sent) {
    EXPECT_EQ(log.received[link], seqs)
        << "sender " << link.first << " -> receiver " << link.second;
  }
}

TEST(TimelyExtra, MixedSendPathsKeepFifoFromInputPipeline) {
  RunMixedSendFifo(/*from_operator=*/false, /*exchange=*/false);
}
TEST(TimelyExtra, MixedSendPathsKeepFifoFromInputExchange) {
  RunMixedSendFifo(/*from_operator=*/false, /*exchange=*/true);
}
TEST(TimelyExtra, MixedSendPathsKeepFifoFromOperatorPipeline) {
  RunMixedSendFifo(/*from_operator=*/true, /*exchange=*/false);
}
TEST(TimelyExtra, MixedSendPathsKeepFifoFromOperatorExchange) {
  RunMixedSendFifo(/*from_operator=*/true, /*exchange=*/true);
}

}  // namespace
}  // namespace timely
