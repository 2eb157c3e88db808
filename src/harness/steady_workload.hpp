// Closed-loop steady-state throughput suite: full multi-worker dataflows,
// native and Megaphone paths, counting keys into dense per-key state so
// the runtime hot path dominates. The operators are the count
// workload's kNativeKey and kKeyCount (detail::BuildCountOperator in
// count_workload.hpp) over kSteadyDomain keys. Each worker injects its
// share of records, advancing epochs as it goes; throughput is records
// over the wall time from spawn to full drain.
//
// This suite produces the machine-readable steady_throughput entries the
// BENCH_*.json baselines record and the CI regression gate
// (tools/bench_check.py) compares against. Run by `megabench --steady`.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/time_util.hpp"
#include "harness/count_workload.hpp"
#include "harness/report.hpp"
#include "timely/timely.hpp"

namespace megaphone {

struct SteadyConfig {
  std::string name;
  uint32_t workers = 4;
  uint64_t records_per_worker = 1 << 18;
  uint64_t epochs = 8;
  uint32_t num_bins = 4096;   // megaphone path only; the paper's §4.2 pick
  bool use_megaphone = true;  // false: native exchange + stateful unary
};

struct SteadyResult {
  double seconds = 0;
  uint64_t records = 0;
  double recs_per_sec = 0;
};

constexpr uint64_t kSteadyDomain = 1 << 16;  // distinct keys, power of two

inline SteadyResult RunSteadyThroughput(const SteadyConfig& cfg) {
  using T = uint64_t;

  CountBenchConfig op_cfg;
  op_cfg.mode =
      cfg.use_megaphone ? CountMode::kKeyCount : CountMode::kNativeKey;
  op_cfg.num_bins = cfg.num_bins;
  op_cfg.domain = kSteadyDomain;
  const uint64_t per_epoch =
      (cfg.records_per_worker + cfg.epochs - 1) / cfg.epochs;
  // Keys are pre-generated per worker and timing starts once every worker
  // is ready to inject, so the measurement covers the dataflow, not the
  // load generator.
  std::atomic<uint32_t> ready{0};
  std::atomic<uint64_t> t_begin{0};

  timely::Execute(timely::Config{cfg.workers}, [&](timely::Worker& w) {
    auto [ctrl_in, data_in] = w.Dataflow<T>([&](timely::Scope<T>& s) {
      auto [ctrl, ctrl_stream] = timely::NewInput<ControlInst>(s);
      auto [data, data_stream] = timely::NewInput<uint64_t>(s);
      detail::BuildCountOperator(op_cfg, ctrl_stream, data_stream);
      return std::pair{ctrl, data};
    });

    const uint64_t chunk = 4096;
    std::vector<uint64_t> keys(per_epoch * cfg.epochs);
    uint64_t idx = w.index();
    for (auto& k : keys) {
      k = HashMix64(idx) & (kSteadyDomain - 1);
      idx += cfg.workers;
    }

    // Sense barrier: measurement starts when every worker is ready.
    ready.fetch_add(1);
    while (ready.load() < cfg.workers) std::this_thread::yield();
    uint64_t expected = 0;
    t_begin.compare_exchange_strong(expected, NowNanos());

    std::vector<uint64_t> batch;
    batch.reserve(chunk);
    size_t next = 0;
    uint64_t chunks = 0;
    for (uint64_t e = 0; e < cfg.epochs; ++e) {
      for (uint64_t i = 0; i < per_epoch; i += chunk) {
        uint64_t n = std::min(chunk, per_epoch - i);
        batch.assign(keys.begin() + next, keys.begin() + next + n);
        next += n;
        data_in->SendBatch(std::move(batch));
        w.Step();
        // Rotate oversubscribed workers at a coarse grain: a yield per
        // chunk costs a context switch each, which dominates at high
        // throughput.
        if ((++chunks & 7) == 0) std::this_thread::yield();
      }
      ctrl_in->AdvanceTo(e + 1);
      data_in->AdvanceTo(e + 1);
    }
    ctrl_in->Close();
    data_in->Close();
  });

  SteadyResult r;
  r.seconds = static_cast<double>(NowNanos() - t_begin.load()) * 1e-9;
  r.records = per_epoch * cfg.epochs * cfg.workers;
  r.recs_per_sec = static_cast<double>(r.records) / r.seconds;
  return r;
}

/// Runs the four standard steady configurations (native/megaphone x
/// w1/w4) and prints + returns the JSON the BENCH_*.json baselines and
/// the CI regression gate consume. With --out=FILE the JSON is also
/// written to FILE.
inline int RunSteadySuite(const Flags& flags) {
  const uint64_t records =
      flags.GetInt("records", (1 << 18) * 4ull);  // total, all workers
  const uint64_t epochs = flags.GetInt("epochs", 8);
  const uint32_t bins = static_cast<uint32_t>(flags.GetInt("bins", 4096));
  MEGA_CHECK(bins > 0 && bins <= kSteadyDomain)
      << "--bins must be in [1, " << kSteadyDomain
      << "] (the key domain) so every bin holds at least one key";

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("steady_throughput");
  json.Key("suite").Value("steady_throughput");
  json.Key("steady").BeginArray();
  for (uint32_t workers : {1u, 4u}) {
    for (bool mega : {false, true}) {
      SteadyConfig c;
      c.name = std::string(mega ? "megaphone" : "native") + "-count-w" +
               std::to_string(workers);
      c.workers = workers;
      c.records_per_worker = records / workers;
      c.epochs = epochs;
      c.num_bins = bins;
      c.use_megaphone = mega;
      SteadyResult r = RunSteadyThroughput(c);
      std::printf("%-24s workers=%u records=%llu seconds=%.3f "
                  "recs_per_sec=%.0f\n",
                  c.name.c_str(), c.workers,
                  static_cast<unsigned long long>(r.records), r.seconds,
                  r.recs_per_sec);
      std::fflush(stdout);
      json.BeginObject();
      json.Key("name").Value(c.name);
      json.Key("workers").Value(static_cast<uint64_t>(c.workers));
      json.Key("records").Value(r.records);
      json.Key("seconds").Value(r.seconds);
      json.Key("recs_per_sec").Value(r.recs_per_sec);
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  std::printf("# json\n%s\n", json.Str().c_str());

  const std::string out = flags.GetStr("out", "");
  return out.empty() || WriteJsonFile(out, json) ? 0 : 1;
}

}  // namespace megaphone
