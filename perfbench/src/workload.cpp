// The measured workload: one Megaphone count dataflow, launched at the
// workload's process x worker topology, preloaded, then driven through an
// optional closed-loop phase (throughput) and an open-loop phase with
// repeated all-at-once migrations (latency, migration windows). Every
// quantity is observed from here, around calls into the public API of
// `timely` (Worker::Step, Input::SendBatch, probes) and `megaphone`
// (Unary, MigrationController); nothing inside the library is changed.
#include <fcntl.h>
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "harness/count_workload.hpp"
#include "harness/launcher.hpp"
#include "megaphone/megaphone.hpp"
#include "perfbench.hpp"
#include "timely/timely.hpp"

namespace perfbench {

using megaphone::Assignment;
using megaphone::ControlInst;
using megaphone::MigrationController;
using megaphone::NowNanos;
using T = uint64_t;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec steady;
    steady.name = "steady";
    steady.processes = 1;
    steady.workers = 4;
    steady.bins = 4096;
    // 8 MB of dense counts, so a migration moves real state; the measured
    // records hit 2^16 keys, 16 per bin (512 KB of counts).
    steady.domain = 1 << 20;
    steady.hot_keys = 1 << 16;
    steady.closed_share = 0.6;
    steady.rate = 1'000'000;
    steady.mig_period_ms = 250;
    v.push_back(steady);

    WorkloadSpec mesh = steady;
    mesh.name = "steady-mesh";
    mesh.processes = 2;
    mesh.workers = 2;
    mesh.rate = 500'000;
    v.push_back(mesh);

    WorkloadSpec migrate;
    migrate.name = "migrate";
    migrate.processes = 1;
    migrate.workers = 2;
    migrate.bins = 16;
    migrate.domain = 1 << 20;  // 8 MB of dense counts
    migrate.hot_keys = migrate.domain;
    migrate.rate = 200'000;
    migrate.mig_period_ms = 500;
    v.push_back(migrate);

    WorkloadSpec spill;
    spill.name = "spill";
    spill.processes = 2;
    spill.workers = 1;
    spill.bins = 16;
    spill.domain = 1 << 12;  // 4096 keys x 4 KB pad
    spill.hot_keys = spill.domain;
    spill.backend = Backend::kLogPad;
    spill.pad_bytes = 4096;
    spill.memtable_bytes = 64 << 10;
    // 10k recs/s (4 KB rewritten per record, ~90 MB/s of segment churn)
    // doubled the run-to-run spread of the migration figures.
    spill.rate = 5'000;
    spill.mig_period_ms = 1000;
    v.push_back(spill);
    return v;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& s : AllWorkloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

constexpr uint64_t kEpochNs = 1'000'000;
// Closed loop: workers send kBatch-record batches, advance an epoch every
// kBatchesPerEpoch batches and run at most kWindow epochs ahead of the
// probe; throughput is the median over kSegments drained segments.
constexpr uint64_t kBatch = 4096;
constexpr uint32_t kBatchesPerEpoch = 16;
constexpr uint64_t kWindow = 4;
constexpr uint32_t kSegments = 5;
// Closed-phase segment s uses epochs s * kSegmentStride + 1, ... and ends
// at barrier epoch (s + 1) * kSegmentStride; the open phase follows the
// last barrier.
constexpr uint64_t kSegmentStride = 1ull << 20;

uint64_t ReadStatusKb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  size_t n = std::strlen(field);
  while (std::getline(f, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::strtoull(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

// Resets VmHWM to the current RSS, so a peak belongs to this run only.
void ResetPeakRss() {
  int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return;
  ssize_t n = ::write(fd, "5", 1);
  (void)n;
  ::close(fd);
}

struct OsSnap {
  double cpu_s = 0;
  uint64_t invol = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t steal_ticks = 0;  // machine-wide, from /proc/stat
  uint64_t all_ticks = 0;
};

OsSnap TakeOsSnap() {
  OsSnap s;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.invol = static_cast<uint64_t>(ru.ru_nivcsw);
  std::ifstream f("/proc/self/io");
  std::string key;
  uint64_t val = 0;
  while (f >> key >> val) {
    if (key == "read_bytes:") s.read_bytes = val;
    if (key == "write_bytes:") s.write_bytes = val;
  }
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream st("/proc/stat");
  st >> key;
  for (int i = 0; i < 8 && st >> val; ++i) {
    s.all_ticks += val;
    if (i == 7) s.steal_ticks = val;
  }
  return s;
}

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t k = ::read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

Assignment Rotation(uint32_t bins, uint32_t workers, uint64_t k) {
  Assignment a = megaphone::MakeInitialAssignment(bins, workers);
  for (auto& w : a) w = static_cast<uint32_t>((w + k) % workers);
  return a;
}

/// Root-only observations (global worker 0 of process 0).
struct RootLog {
  uint64_t origin_ns = 0;
  std::vector<uint64_t> seg_start_ns, seg_end_ns;  // closed segments
  uint64_t open_start_ns = 0;
  uint64_t close_ns = 0;  // inputs closed
  uint64_t drain_end_ns = 0;
  uint64_t first_epoch = 0;
  uint64_t last_epoch = 0;
  std::vector<uint64_t> completion_ns;  // per open-phase epoch
  std::vector<uint64_t> issue_ns, install_ns, steps_in_window;
};

/// One process's run: builds the dataflow on every local worker, drives
/// it, and fills `rep` (and `root` on global worker 0).
void RunProcess(const WorkloadSpec& spec, const RunOptions& opt,
                const timely::Config& tcfg,
                const std::vector<std::vector<uint64_t>>& pools,
                ProcReport* rep, megaphone::Histogram* steps_out,
                RootLog* root) {
  const uint32_t W = spec.total_workers();
  const uint64_t keys_per_bin = spec.domain / spec.bins;
  const int log_bins = __builtin_ctz(spec.bins);
  const double measure_ns = opt.seconds * 1e9;
  const uint64_t closed_ns =
      static_cast<uint64_t>(measure_ns * spec.closed_share);
  const uint64_t open_ns = static_cast<uint64_t>(measure_ns) - closed_ns;
  const uint64_t period_ns = spec.mig_period_ms * 1'000'000;
  // Migrations at (k + 1/2) periods, the last one leaving half a period
  // (at least 300 ms) to install before the inputs close.
  std::vector<uint64_t> mig_at;
  for (uint64_t k = 0;; ++k) {
    uint64_t at = period_ns / 2 + k * period_ns;
    if (at + std::max<uint64_t>(period_ns / 2, 300'000'000) > open_ns) break;
    if (mig_at.size() == kMaxMigrations) break;
    mig_at.push_back(at);
  }

  if (!opt.setup_only) ResetPeakRss();
  std::atomic<uint64_t> t0{0}, t_open{0};
  std::mutex mu;
  OsSnap os_begin;
  // After the drain: the local root reads the OS figures once every local
  // worker has drained, and only then do workers decode their state, so
  // the decoding's memory and CPU stay out of them.
  std::atomic<uint32_t> drained{0};
  std::atomic<bool> os_taken{false};

  timely::Execute(tcfg, [&](timely::Worker& w) {
    struct Handles {
      timely::Input<ControlInst, T> ctrl;
      timely::Input<uint64_t, T> data;
      timely::ProbeHandle<T> probe;
      std::function<void(megaphone::BinStats&)> take_stats;
      std::function<void(
          std::vector<std::pair<uint32_t, std::vector<uint8_t>>>&)>
          capture;
    };
    auto handles = w.Dataflow<T>([&](timely::Scope<T>& s) -> Handles {
      auto [ctrl_in, ctrl_stream] = timely::NewInput<ControlInst>(s);
      auto [data_in, data_stream] = timely::NewInput<uint64_t>(s);
      megaphone::Config mcfg;
      mcfg.num_bins = spec.bins;
      mcfg.chunk_bytes = kChunkBytes;
      mcfg.name = spec.name;
      if (spec.backend == Backend::kDense) {
        // Key k: bin k mod bins (its low bits, moved to the top of the
        // exchange value), slot k / bins.
        using DenseBin = megaphone::state::DenseState<uint64_t>;
        const int shift = 64 - log_bins;
        auto out = megaphone::Unary<DenseBin, uint64_t>(
            ctrl_stream, data_stream,
            [shift](const uint64_t& k) { return k << shift; },
            [keys_per_bin, log_bins](const T&, DenseBin& state,
                                     std::vector<uint64_t>& recs, auto,
                                     auto&) {
              if (state.empty()) state.resize(keys_per_bin);
              for (uint64_t k : recs) state[k >> log_bins]++;
            },
            mcfg);
        return Handles{ctrl_in, data_in, out.probe, out.take_bin_stats,
                       out.capture_bins};
      }
      using LogBin = megaphone::state::LogState<uint64_t, megaphone::PadCount>;
      auto out = megaphone::Unary<LogBin, uint64_t>(
          ctrl_stream, data_stream,
          [](const uint64_t& k) { return megaphone::HashMix64(k); },
          [pad = spec.pad_bytes](const T&, LogBin& state,
                                 std::vector<uint64_t>& recs, auto, auto&) {
            for (uint64_t k : recs) {
              megaphone::PadCount& v = state[k];
              if (v.pad.empty()) v.pad.assign(pad, 0xa5);
              v.count++;
            }
          },
          mcfg);
      return Handles{ctrl_in, data_in, out.probe, out.take_bin_stats,
                     out.capture_bins};
    });
    auto& [ctrl_in, data_in, probe, take_stats, capture] = handles;

    typename MigrationController<T>::Options mopts;
    mopts.strategy = megaphone::MigrationStrategy::kAllAtOnce;
    MigrationController<T> controller(ctrl_in, probe, w.index(), mopts);
    const uint32_t gw = w.index();
    const bool is_root = gw == 0;

    // Traced stepping: Worker::Step spans, plus the longest step inside
    // this worker's view of each migration window.
    std::optional<megaphone::Histogram> steps;
    if (opt.trace) steps.emplace();
    uint64_t mig_step_max[kMaxMigrations] = {};
    int window = -1;  // migration index in flight on this worker, or -1
    uint64_t window_steps = 0;
    auto step = [&] {
      ++window_steps;
      if (!steps) {
        w.Step();
        return;
      }
      uint64_t a = NowNanos();
      w.Step();
      uint64_t d = NowNanos() - a;
      steps->Add(d);
      if (window >= 0) {
        mig_step_max[window] = std::max(mig_step_max[window], d);
      }
    };
    uint64_t send_ns = 0, send_recs = 0;
    auto send_batch = [&](std::vector<uint64_t>&& b) {
      if (!opt.trace) {
        data_in->SendBatch(std::move(b));
        return;
      }
      uint64_t n = b.size();
      uint64_t a = NowNanos();
      data_in->SendBatch(std::move(b));
      send_ns += NowNanos() - a;
      send_recs += n;
    };

    // ---- Set-up: preload every key once at epoch 0. ------------------
    {
      std::vector<uint64_t> batch;
      for (uint64_t k = gw; k < spec.domain; k += W) {
        batch.push_back(k);
        if (batch.size() == 4096) {
          data_in->SendBatch(std::move(batch));
          batch.clear();
          w.Step();
        }
      }
      data_in->SendBatch(std::move(batch));
    }
    controller.Advance(0, 1);
    data_in->AdvanceTo(1);
    w.StepUntil([&] { return !probe.LessThan(1); });
    megaphone::BinStats discard;
    take_stats(discard);  // applied counters restart at the origin
    uint64_t expected = 0;
    t0.compare_exchange_strong(expected, NowNanos());
    const uint64_t start = t0.load();
    if (is_root) root->origin_ns = start;
    if (w.IsLocalRoot()) {
      std::lock_guard<std::mutex> lock(mu);
      os_begin = TakeOsSnap();
    }

    uint64_t closed_sent = 0, open_sent = 0, gen_lag = 0;
    uint64_t seg_sent[kMaxSegments] = {};
    uint64_t frames_begin = 0;
    uint64_t base = 0;  // epochs of the open phase are base + 1, ...
    uint64_t cur = 1;
    if (!opt.setup_only) {
      // ---- Closed loop: bounded run-ahead over the probe, in segments
      // that each end in a full drain (a barrier epoch all workers reach).
      if (closed_ns > 0) {
        const auto& pool = pools[gw];
        const uint64_t seg_ns = closed_ns / kSegments;
        size_t next = 0;
        std::vector<uint64_t> batch;
        uint64_t chunks = 0;
        uint64_t seg_start = start;
        for (uint32_t sg = 0; sg < kSegments; ++sg) {
          const uint64_t bar = (sg + 1) * kSegmentStride;
          uint64_t e = sg * kSegmentStride + 1;
          if (is_root) root->seg_start_ns.push_back(seg_start);
          while (NowNanos() < seg_start + seg_ns) {
            for (uint32_t b = 0; b < kBatchesPerEpoch; ++b) {
              batch.resize(kBatch);
              for (auto& k : batch) {
                k = pool[next];
                if (++next == pool.size()) next = 0;
              }
              seg_sent[sg] += batch.size();
              send_batch(std::move(batch));
              batch = std::vector<uint64_t>();
              batch.reserve(kBatch);
              step();
              if ((++chunks & 7) == 0) std::this_thread::yield();
            }
            ++e;
            controller.Advance(e, e + 1);
            data_in->AdvanceTo(e);
            while (e > sg * kSegmentStride + kWindow &&
                   probe.LessThan(e - kWindow)) {
              step();
              std::this_thread::yield();
            }
          }
          controller.Advance(bar, bar + 1);
          data_in->AdvanceTo(bar + 1);
          while (probe.LessThan(bar + 1)) {
            step();
            std::this_thread::yield();
          }
          seg_start = NowNanos();
          if (is_root) root->seg_end_ns.push_back(seg_start);
          closed_sent += seg_sent[sg];
        }
        base = kSegments * kSegmentStride;
        cur = base + 1;
      }

      // ---- Open loop with repeated migrations. -----------------------
      expected = 0;
      t_open.compare_exchange_strong(expected, NowNanos());
      const uint64_t ostart = t_open.load();
      const uint64_t oend = ostart + open_ns;
      if (w.IsLocalRoot()) {
        frames_begin = megaphone::chunk_counters().frames.load();
      }
      if (is_root) {
        root->open_start_ns = ostart;
        root->first_epoch = base + 1;
      }
      megaphone::OpenLoopPacer pacer(spec.rate, ostart);
      Assignment current = megaphone::MakeInitialAssignment(spec.bins, W);
      size_t next_mig = 0;
      std::optional<T> mig_time;  // epoch of the migration in flight
      uint64_t next_ack = base + 1;
      uint64_t idx = gw;  // global open-loop record index, strided
      std::vector<uint64_t> keys;
      // After each step: epoch completions (root) and the install of the
      // migration in flight.
      auto observe = [&](uint64_t now) {
        if (mig_time && !probe.LessEqual(*mig_time)) {
          if (is_root) {
            root->install_ns[window] = now;
            root->steps_in_window[window] = window_steps;
          }
          mig_time.reset();
          window = -1;
        }
        if (!is_root) return;
        while (next_ack < cur && !probe.LessEqual(next_ack)) {
          root->completion_ns.push_back(now);
          ++next_ack;
        }
      };
      while (true) {
        uint64_t now = NowNanos();
        if (now >= oend) break;
        uint64_t e = base + 1 + (now - ostart) / kEpochNs;
        if (e > cur) {
          bool issued = false;
          while (next_mig < mig_at.size() && ostart + mig_at[next_mig] <= now) {
            Assignment to = Rotation(spec.bins, W, next_mig + 1);
            controller.MigrateTo(current, to);
            current = to;
            if (is_root) {
              root->issue_ns.push_back(now);
              root->install_ns.push_back(0);
              root->steps_in_window.push_back(0);
            }
            ++next_mig;
            issued = true;
          }
          controller.Advance(e, e + 1);
          if (issued) {
            if (controller.in_flight_time() == e) {
              mig_time = e;
              window = static_cast<int>(next_mig - 1);
              window_steps = 0;
            } else if (is_root) {
              std::lock_guard<std::mutex> lock(mu);
              std::fprintf(stderr, "migration %zu queued behind another\n",
                           next_mig - 1);
            }
          }
          data_in->AdvanceTo(e);
          cur = e;
        }
        // Inject everything due by now, regardless of backlog.
        uint64_t due = pacer.RecordsDueBy(now);
        if (idx < due) {
          gen_lag = std::max(gen_lag, now - pacer.DeadlineFor(idx));
          keys.clear();
          while (idx < due && keys.size() < 65536) {
            keys.push_back(KeyOf(opt.seed, idx, spec.hot_keys));
            idx += W;
          }
          open_sent += keys.size();
          send_batch(std::move(keys));
          keys = std::vector<uint64_t>();
        }
        step();
        std::this_thread::yield();
        observe(NowNanos());
      }

      // ---- Close and drain. -------------------------------------------
      if (is_root) root->close_ns = NowNanos();
      controller.Close(cur + 1);
      data_in->Close();
      while (!probe.Done()) {
        step();
        observe(NowNanos());
        std::this_thread::yield();
      }
      if (is_root) {
        uint64_t now = NowNanos();
        root->drain_end_ns = now;
        root->last_epoch = cur;
        cur += 1;  // the final epoch is complete too
        observe(now);
      }

      // ---- OS figures, then the state the drained dataflow holds. ------
      drained.fetch_add(1);
      if (w.IsLocalRoot()) {
        while (drained.load() < tcfg.workers) std::this_thread::yield();
        OsSnap end = TakeOsSnap();
        std::lock_guard<std::mutex> lock(mu);
        rep->cpu_s = end.cpu_s - os_begin.cpu_s;
        rep->invol_cs = end.invol - os_begin.invol;
        rep->read_bytes = end.read_bytes - os_begin.read_bytes;
        rep->write_bytes = end.write_bytes - os_begin.write_bytes;
        if (end.all_ticks > os_begin.all_ticks) {
          rep->steal_pct =
              100.0 * static_cast<double>(end.steal_ticks -
                                          os_begin.steal_ticks) /
              static_cast<double>(end.all_ticks - os_begin.all_ticks);
        }
        rep->chunk_frames = megaphone::chunk_counters().frames.load() -
                            frames_begin;
        rep->hwm_kb = ReadStatusKb("VmHWM:");
        os_taken.store(true);
      }
      while (!os_taken.load()) std::this_thread::yield();
      if (spec.backend == Backend::kDense) {
        using DenseBin = megaphone::state::DenseState<uint64_t>;
        using BinT = megaphone::Bin<DenseBin, uint64_t, T>;
        std::vector<std::pair<uint32_t, std::vector<uint8_t>>> bins;
        capture(bins);
        uint64_t count = 0, check = 0;
        for (const auto& [b, bytes] : bins) {
          megaphone::Reader r(bytes);
          BinT bin = BinT::Deserialize(r);
          const auto& vals = bin.state.raw();
          for (uint64_t i = 0; i < vals.size(); ++i) {
            count += vals[i];
            check += vals[i] * Weight((i << log_bins) | b);
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        rep->state_count += count;
        rep->state_check += check;
      }
    } else {
      controller.Close(2);
      data_in->Close();
      w.StepUntil([&] { return probe.Done(); });
    }

    // ---- Per-worker results into the process report. -------------------
    megaphone::BinStats bs;
    take_stats(bs);
    std::lock_guard<std::mutex> lock(mu);
    rep->closed_sent += closed_sent;
    for (uint32_t sg = 0; sg < kMaxSegments; ++sg) {
      rep->seg_sent[sg] += seg_sent[sg];
    }
    rep->open_sent += open_sent;
    if (gw < kMaxWorkers) {
      rep->worker_closed[gw] = closed_sent;
      rep->worker_open[gw] = open_sent;
    }
    for (uint64_t r : bs.records) rep->applied += r;
    for (uint32_t b = 0; b < bs.resident.size() && b < kMaxBins; ++b) {
      if (!bs.resident[b]) continue;
      rep->owner[b] = rep->owner[b] == -1 ? static_cast<int32_t>(gw) : -2;
    }
    rep->gen_lag_ns = std::max(rep->gen_lag_ns, gen_lag);
    if (opt.trace) {
      rep->send_ns += send_ns;
      rep->send_recs += send_recs;
      steps_out->Merge(*steps);
      for (uint32_t k = 0; k < kMaxMigrations; ++k) {
        rep->mig_step_max_ns[k] = std::max(rep->mig_step_max_ns[k],
                                           mig_step_max[k]);
      }
    }
    rep->workers_done++;
  });
  rep->ok = rep->workers_done == tcfg.workers ? 1 : 0;
}

}  // namespace

RunOutcome RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  RunOutcome out;
  const uint32_t P = spec.processes;
  // One pipe per forked peer carries its ProcReport back to process 0.
  std::vector<std::array<int, 2>> pipes(P);
  for (uint32_t p = 1; p < P; ++p) {
    int fds[2];
    MEGA_CHECK_EQ(::pipe(fds), 0) << "pipe";
    pipes[p] = {fds[0], fds[1]};
  }
  if (spec.backend == Backend::kLogPad) {
    auto& o = megaphone::state::GlobalLogStateOptions();
    o.dir = opt.state_dir;
    o.memtable_bytes = spec.memtable_bytes;
  }

  // Closed-phase keys, pre-generated per global worker before the launch,
  // so input generation is not part of set-up.
  const uint32_t W = spec.total_workers();
  std::vector<std::vector<uint64_t>> pools;
  if (spec.closed_share > 0 && !opt.setup_only) {
    pools.resize(W);
    for (uint32_t gw = 0; gw < W; ++gw) {
      pools[gw].resize(1 << 18);
      for (size_t j = 0; j < pools[gw].size(); ++j) {
        pools[gw][j] = KeyOf(opt.seed ^ 0x5eed, gw + j * W, spec.hot_keys);
      }
    }
  }
  ::malloc_trim(0);  // earlier launches' freed heap must not count
  const uint64_t launch_ns = NowNanos();
  megaphone::MultiProcess mp =
      megaphone::LaunchLoopbackProcesses(P, spec.workers);
  const uint32_t me = mp.config.process_index;
  auto rep = std::make_unique<ProcReport>();
  megaphone::Histogram steps;
  RootLog root;
  if (me != 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    for (uint32_t p = 1; p < P; ++p) {
      ::close(pipes[p][0]);
      if (p != me) ::close(pipes[p][1]);
    }
    RunProcess(spec, opt, mp.config, pools, rep.get(), &steps, &root);
    megaphone::Writer hw;
    steps.Serialize(hw);
    std::vector<uint8_t> hist = hw.Take();
    uint64_t hist_len = hist.size();
    bool ok = WriteAll(pipes[me][1], rep.get(), sizeof(ProcReport)) &&
              WriteAll(pipes[me][1], &hist_len, sizeof(hist_len)) &&
              WriteAll(pipes[me][1], hist.data(), hist.size());
    ::_exit(ok ? 0 : 3);
  }
  for (uint32_t p = 1; p < P; ++p) ::close(pipes[p][1]);
  RunProcess(spec, opt, mp.config, pools, rep.get(), &steps, &root);
  out.steps.Merge(steps);

  ProcReport& tot = out.total;
  std::vector<std::unique_ptr<ProcReport>> reps;
  reps.push_back(std::move(rep));
  for (uint32_t p = 1; p < P; ++p) {
    auto r = std::make_unique<ProcReport>();
    uint64_t hist_len = 0;
    std::vector<uint8_t> hist;
    bool ok = ReadAll(pipes[p][0], r.get(), sizeof(ProcReport)) &&
              ReadAll(pipes[p][0], &hist_len, sizeof(hist_len)) &&
              hist_len < (1u << 20);
    if (ok) {
      hist.resize(hist_len);
      ok = ReadAll(pipes[p][0], hist.data(), hist.size());
    }
    try {
      megaphone::Reader hr(hist);
      if (ok) out.steps.Merge(megaphone::Histogram::Deserialize(hr));
    } catch (const megaphone::SerdeError&) {
      ok = false;
    }
    if (!ok) {
      out.problems.push_back("process " + std::to_string(p) +
                             " sent no report");
      r->ok = 0;
    }
    ::close(pipes[p][0]);
    reps.push_back(std::move(r));
  }
  if (megaphone::WaitForChildren(mp.children) != 0) {
    out.problems.push_back("a peer process exited abnormally");
  }

  out.setup_s = static_cast<double>(root.origin_ns - launch_ns) * 1e-9;
  if (opt.setup_only) return out;

  // ---- Merge the process reports. ---------------------------------------
  for (const auto& r : reps) {
    if (!r->ok) out.problems.push_back("a process did not finish its run");
    tot.closed_sent += r->closed_sent;
    for (uint32_t sg = 0; sg < kMaxSegments; ++sg) {
      tot.seg_sent[sg] += r->seg_sent[sg];
    }
    tot.open_sent += r->open_sent;
    tot.applied += r->applied;
    for (uint32_t gw = 0; gw < kMaxWorkers; ++gw) {
      tot.worker_closed[gw] += r->worker_closed[gw];
      tot.worker_open[gw] += r->worker_open[gw];
    }
    tot.state_count += r->state_count;
    tot.state_check += r->state_check;
    for (uint32_t b = 0; b < kMaxBins; ++b) {
      if (r->owner[b] == -1) continue;
      tot.owner[b] = tot.owner[b] == -1 ? r->owner[b] : -2;
    }
    tot.hwm_kb = std::max(tot.hwm_kb, r->hwm_kb);
    tot.cpu_s += r->cpu_s;
    tot.invol_cs += r->invol_cs;
    tot.read_bytes += r->read_bytes;
    tot.write_bytes += r->write_bytes;
    tot.steal_pct = std::max(tot.steal_pct, r->steal_pct);
    tot.chunk_frames += r->chunk_frames;
    tot.gen_lag_ns = std::max(tot.gen_lag_ns, r->gen_lag_ns);
    tot.send_ns += r->send_ns;
    tot.send_recs += r->send_recs;
    for (uint32_t k = 0; k < kMaxMigrations; ++k) {
      tot.mig_step_max_ns[k] =
          std::max(tot.mig_step_max_ns[k], r->mig_step_max_ns[k]);
    }
  }
  out.peak_rss_mb = static_cast<double>(tot.hwm_kb) / 1024.0;
  out.records = tot.closed_sent + tot.open_sent;
  out.drain_ms =
      static_cast<double>(root.drain_end_ns - root.close_ns) * 1e-6;

  // Throughput, from a start to the full drain of what was sent since:
  // the closed phase as a whole when the workload has one (its segments
  // follow each other without a gap), else the open phase as a whole.
  // Host contention drifts over seconds, so the whole phase varies less
  // from run to run than the median segment does.
  for (size_t sg = 0; sg < root.seg_end_ns.size(); ++sg) {
    double secs =
        static_cast<double>(root.seg_end_ns[sg] - root.seg_start_ns[sg]) *
        1e-9;
    out.seg_throughput.push_back(static_cast<double>(tot.seg_sent[sg]) /
                                 secs);
  }
  if (!out.seg_throughput.empty()) {
    out.throughput = static_cast<double>(tot.closed_sent) /
                     (static_cast<double>(root.seg_end_ns.back() -
                                          root.seg_start_ns.front()) * 1e-9);
  } else {
    out.throughput = static_cast<double>(tot.open_sent) /
                     (static_cast<double>(root.drain_end_ns -
                                          root.open_start_ns) * 1e-9);
  }

  // ---- Correctness of the measured run. ---------------------------------
  if (tot.applied != out.records) {
    out.problems.push_back("records applied " + std::to_string(tot.applied) +
                           " != injected " + std::to_string(out.records));
  }
  if (spec.backend == Backend::kDense) {
    // Every key was preloaded once; the measured records are recomputed
    // from the pools and the open-loop schedule, per worker.
    uint64_t check = 0;
    for (uint64_t k = 0; k < spec.domain; ++k) check += Weight(k);
    for (uint32_t gw = 0; gw < W && gw < kMaxWorkers; ++gw) {
      const uint64_t n = tot.worker_closed[gw];
      if (n > 0) {
        const auto& pool = pools[gw];
        uint64_t sum = 0, head = 0;
        for (size_t j = 0; j < pool.size(); ++j) {
          uint64_t x = Weight(pool[j]);
          sum += x;
          if (j < n % pool.size()) head += x;
        }
        check += (n / pool.size()) * sum + head;
      }
      for (uint64_t j = 0; j < tot.worker_open[gw]; ++j) {
        check += Weight(KeyOf(opt.seed, gw + j * W, spec.hot_keys));
      }
    }
    if (tot.state_count != spec.domain + out.records) {
      out.problems.push_back(
          "state holds " + std::to_string(tot.state_count) +
          " counts, expected " + std::to_string(spec.domain + out.records));
    } else if (tot.state_check != check) {
      out.problems.push_back("state content differs from the input");
    }
  }
  const uint64_t n_mig = root.issue_ns.size();
  Assignment final_assign = Rotation(spec.bins, W, n_mig);
  for (uint32_t b = 0; b < spec.bins; ++b) {
    if (tot.owner[b] != static_cast<int32_t>(final_assign[b])) {
      out.problems.push_back("bin " + std::to_string(b) + " resident on " +
                             std::to_string(tot.owner[b]) + ", expected " +
                             std::to_string(final_assign[b]));
      break;
    }
  }

  // ---- Epochs and migration windows. --------------------------------------
  const uint64_t ostart = root.open_start_ns;
  const uint64_t n_ep = root.completion_ns.size();
  out.epochs = root.last_epoch + 1 - root.first_epoch;
  out.epochs_done = n_ep;
  auto due = [&](uint64_t i) { return ostart + (i + 1) * kEpochNs; };
  std::vector<double> lat(n_ep);
  for (uint64_t i = 0; i < n_ep; ++i) {
    uint64_t c = root.completion_ns[i];
    lat[i] = c > due(i) ? static_cast<double>(c - due(i)) * 1e-6 : 0.0;
  }
  out.migrations = n_mig;
  std::vector<std::pair<uint64_t, uint64_t>> excluded;
  for (uint64_t k = 0; k < n_mig; ++k) {
    uint64_t issue = root.issue_ns[k], install = root.install_ns[k];
    if (install == 0) continue;
    out.migrations_installed++;
    if (k + 1 < n_mig && install >= root.issue_ns[k + 1]) {
      out.problems.push_back("migration windows overlap");
    }
    uint64_t wend = std::max(install, issue + kEpochNs);
    double mx = 0;
    uint64_t drain_end = wend;
    for (uint64_t i = 0; i < n_ep; ++i) {
      if (due(i) < issue || due(i) > wend) continue;
      mx = std::max(mx, lat[i]);
      drain_end = std::max(drain_end, root.completion_ns[i]);
    }
    excluded.emplace_back(issue, drain_end);
    out.mig_max_ms.push_back(mx);
    out.mig_dur_ms.push_back(static_cast<double>(install - issue) * 1e-6);
    out.mig_steps.push_back(root.steps_in_window[k]);
  }
  for (uint64_t i = 0; i < n_ep; ++i) {
    bool in_window = false;
    for (const auto& [a, b] : excluded) {
      if (due(i) >= a && due(i) <= b) in_window = true;
    }
    if (!in_window) {
      out.steady_lat_ms.push_back(lat[i]);
      size_t sec = (due(i) - ostart) / 1'000'000'000;
      if (out.steady_by_second.size() <= sec) {
        out.steady_by_second.resize(sec + 1);
      }
      out.steady_by_second[sec].push_back(lat[i]);
    }
  }
  return out;
}

}  // namespace perfbench
