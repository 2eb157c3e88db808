// Per-layer ledger: each figure times calls into one module's public
// functions from outside the library. Every figure is the median of
// several timed blocks, so one descheduled block does not move it.
#include <atomic>
#include <deque>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/serde.hpp"
#include "harness/count_workload.hpp"
#include "megaphone/megaphone.hpp"
#include "net/mesh.hpp"
#include "net/socket.hpp"
#include "perfbench.hpp"
#include "state/state.hpp"
#include "timely/timely.hpp"

namespace perfbench {

namespace {

using megaphone::NowNanos;
using T = uint64_t;

constexpr int kBlocks = 5;

/// Runs `fn` (which performs `ops` operations per call) in kBlocks blocks
/// of about `block_ms` each; returns the median ns per operation.
template <typename Fn>
double NsPerOp(Fn&& fn, double ops, double block_ms) {
  std::vector<double> per;
  for (int b = 0; b < kBlocks; ++b) {
    uint64_t calls = 0;
    uint64_t a = NowNanos();
    uint64_t end = a + static_cast<uint64_t>(block_ms * 1e6);
    uint64_t now = a;
    do {
      fn();
      ++calls;
      now = NowNanos();
    } while (now < end);
    per.push_back(static_cast<double>(now - a) /
                  (static_cast<double>(calls) * ops));
  }
  return QuantileOf(per, 0.5);
}

// ------------------------------------------------------------- timely
void ChannelLedger(Metrics* out) {
  timely::Channel<uint64_t, T> ch(1);
  std::deque<timely::Bundle<uint64_t, T>> in, got;
  std::vector<uint64_t> data(4096, 7);
  T t = 0;
  double ns = NsPerOp(
      [&] {
        in.push_back(timely::Bundle<uint64_t, T>{t++, std::move(data)});
        ch.PushMany(0, in);
        ch.PullAll(0, got);
        data = std::move(got.front().data);
        got.clear();
      },
      1, 20);
  out->emplace_back("timely.channel_ns_per_bundle", ns);
}

void ProgressLedger(Metrics* out) {
  // The count dataflow's shape: control and data inputs, F (control,
  // data -> routed, state), S (routed, state -> output), a probe.
  timely::GraphSpec spec;
  uint32_t n = spec.AddNode("ctrl");
  uint32_t c_out = spec.AddOutputPort(n);
  n = spec.AddNode("data");
  uint32_t d_out = spec.AddOutputPort(n);
  n = spec.AddNode("F");
  uint32_t f_c = spec.AddInputPort(n);
  uint32_t f_d = spec.AddInputPort(n);
  uint32_t f_r = spec.AddOutputPort(n);
  uint32_t f_s = spec.AddOutputPort(n);
  n = spec.AddNode("S");
  uint32_t s_r = spec.AddInputPort(n);
  uint32_t s_s = spec.AddInputPort(n);
  uint32_t s_o = spec.AddOutputPort(n);
  n = spec.AddNode("probe");
  uint32_t p_in = spec.AddInputPort(n);
  spec.AddEdge(c_out, f_c);
  spec.AddEdge(d_out, f_d);
  spec.AddEdge(f_r, s_r);
  spec.AddEdge(f_s, s_s);
  spec.AddEdge(s_o, p_in);
  timely::ProgressTracker<T> tracker;
  tracker.Finalize(spec);
  tracker.ApplyOne(c_out, 0, +1);
  tracker.ApplyOne(d_out, 0, +1);
  // One consolidated step: both input capabilities advance, the routed
  // bundle sent last step is consumed and a new one is in flight.
  T k = 0;
  std::vector<timely::Change<T>> batch;
  double ns = NsPerOp(
      [&] {
        batch.clear();
        batch.push_back({c_out, k, -1});
        batch.push_back({c_out, k + 1, +1});
        batch.push_back({d_out, k, -1});
        batch.push_back({d_out, k + 1, +1});
        batch.push_back({s_r, k + 1, +1});
        if (k > 0) batch.push_back({s_r, k, -1});
        tracker.Apply(std::span<const timely::Change<T>>(batch));
        ++k;
      },
      1, 20);
  out->emplace_back("timely.progress_ns_per_batch", ns);
}

constexpr uint64_t kCountDomain = 1 << 16;

/// The count job at one worker: native StatefulUnary or Megaphone Unary
/// over DenseState bins. Returns ns per record (start to full drain).
double CountJobNsPerRec(bool mega, const std::vector<uint64_t>& keys) {
  constexpr uint32_t kBins = 4096;
  uint64_t begin = 0, end = 0;
  timely::Execute(timely::Config{1}, [&](timely::Worker& w) {
    struct Handles {
      timely::Input<megaphone::ControlInst, T> ctrl;
      timely::Input<uint64_t, T> data;
      timely::ProbeHandle<T> probe;
    };
    auto h = w.Dataflow<T>([&](timely::Scope<T>& s) -> Handles {
      auto [ctrl_in, ctrl_stream] = timely::NewInput<megaphone::ControlInst>(s);
      auto [data_in, data_stream] = timely::NewInput<uint64_t>(s);
      if (mega) {
        using DenseBin = megaphone::state::DenseState<uint64_t>;
        megaphone::Config mcfg;
        mcfg.num_bins = kBins;
        const uint64_t per_bin = kCountDomain / kBins;
        auto out = megaphone::Unary<DenseBin, uint64_t>(
            ctrl_stream, data_stream,
            [](const uint64_t& k) { return k << 48; },
            [per_bin](const T&, DenseBin& st, std::vector<uint64_t>& recs,
                      auto, auto&) {
              if (st.empty()) st.resize(per_bin);
              for (uint64_t k : recs) st[k & (per_bin - 1)]++;
            },
            mcfg);
        return Handles{ctrl_in, data_in, out.probe};
      }
      struct State {
        std::vector<uint64_t> counts;
      };
      auto out = timely::StatefulUnary<State, uint64_t>(
          data_stream, "NativeCount", [](const uint64_t& k) { return k; },
          [](const T&, std::vector<uint64_t>& recs, State& st,
             timely::OpCtx<T>&, timely::OutputHandle<uint64_t, T>&) {
            if (st.counts.empty()) st.counts.resize(kCountDomain);
            for (uint64_t k : recs) st.counts[k]++;
          });
      return Handles{ctrl_in, data_in, timely::Probe(out)};
    });
    auto& [ctrl_in, data_in, probe] = h;
    begin = NowNanos();
    std::vector<uint64_t> batch;
    T e = 0;
    for (size_t i = 0; i < keys.size(); i += 4096) {
      batch.assign(keys.begin() + i, keys.begin() + i + 4096);
      data_in->SendBatch(std::move(batch));
      w.Step();
      if ((i / 4096) % 16 == 15) {
        ++e;
        ctrl_in->AdvanceTo(e);
        data_in->AdvanceTo(e);
      }
    }
    ctrl_in->Close();
    data_in->Close();
    w.StepUntil([&] { return probe.Done(); });
    end = NowNanos();
  });
  return static_cast<double>(end - begin) / static_cast<double>(keys.size());
}

void CountLedger(uint64_t seed, Metrics* out) {
  std::vector<uint64_t> keys(1 << 21);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = KeyOf(seed, i, kCountDomain);
  std::vector<double> native, mega;
  for (int r = 0; r < kBlocks; ++r) {
    native.push_back(CountJobNsPerRec(false, keys));
    mega.push_back(CountJobNsPerRec(true, keys));
  }
  out->emplace_back("timely.native_ns_per_rec", QuantileOf(native, 0.5));
  out->emplace_back("megaphone.count_ns_per_rec", QuantileOf(mega, 0.5));
}

// ------------------------------------------------------------- common
using WireBundle = timely::Bundle<megaphone::Routed<uint64_t>, T>;

WireBundle MakeBundle(size_t n) {
  WireBundle b;
  b.time = 42;
  for (size_t i = 0; i < n; ++i) {
    b.data.push_back({static_cast<uint32_t>(i & 3),
                      static_cast<uint32_t>(i & 4095), i * 2654435761u});
  }
  return b;
}

megaphone::BinChunk MakeChunk(size_t bytes) {
  megaphone::BinChunk c;
  c.target = 1;
  c.bin = 7;
  c.seq = 3;
  c.last = 0;
  c.bytes.assign(bytes, 0x5a);
  return c;
}

void SerdeLedger(uint64_t chunk_bytes, Metrics* out) {
  WireBundle b = MakeBundle(4096);
  std::vector<uint8_t> enc = megaphone::EncodeToBytes(b);
  volatile size_t sink = 0;
  out->emplace_back("common.encode_ns_per_rec",
                    NsPerOp([&] { sink = megaphone::EncodeToBytes(b).size(); },
                            4096, 20));
  out->emplace_back(
      "common.decode_ns_per_rec",
      NsPerOp([&] { sink = megaphone::DecodeFromBytes<WireBundle>(enc)
                               .data.size(); },
              4096, 20));
  megaphone::BinChunk c = MakeChunk(chunk_bytes);
  std::vector<uint8_t> cenc = megaphone::EncodeToBytes(c);
  double mb = static_cast<double>(chunk_bytes) / 1e6;
  out->emplace_back(
      "common.chunk_encode_mb_s",
      1e9 * mb / NsPerOp([&] { sink = megaphone::EncodeToBytes(c).size(); },
                         1, 20));
  out->emplace_back(
      "common.chunk_decode_mb_s",
      1e9 * mb /
          NsPerOp([&] {
            sink = megaphone::DecodeFromBytes<megaphone::BinChunk>(cenc)
                       .bytes.size();
          }, 1, 20));
  (void)sink;
}

// ---------------------------------------------------------------- net
struct MeshPair {
  std::unique_ptr<megaphone::net::NetMesh> m0, m1;
  MeshPair() {
    using megaphone::net::BindListener;
    using megaphone::net::ListenerPort;
    int l0 = BindListener("127.0.0.1", 0, 2);
    int l1 = BindListener("127.0.0.1", 0, 2);
    std::vector<std::string> addrs = {
        "127.0.0.1:" + std::to_string(ListenerPort(l0)),
        "127.0.0.1:" + std::to_string(ListenerPort(l1))};
    auto opts = [&](uint32_t i, int fd) {
      megaphone::net::MeshOptions o;
      o.processes = 2;
      o.process_index = i;
      o.workers_per_process = 1;
      o.addresses = addrs;
      o.listen_fd = fd;
      return o;
    };
    std::thread t([&] {
      m1 = std::make_unique<megaphone::net::NetMesh>(opts(1, l1));
    });
    m0 = std::make_unique<megaphone::net::NetMesh>(opts(0, l0));
    t.join();
  }
  ~MeshPair() {
    std::thread t([&] { m1->Shutdown(); });
    m0->Shutdown();
    t.join();
  }
};

/// Streams `frames` copies of `payload` from process 0 to process 1 of an
/// in-process loopback mesh; returns the median seconds per stream.
double MeshSeconds(MeshPair& mp, uint64_t channel,
                   const std::vector<uint8_t>& payload, uint64_t frames) {
  std::atomic<uint64_t> got{0};
  mp.m1->RegisterDataHandler(0, channel, [&](uint32_t, megaphone::Reader&) {
    got.fetch_add(1, std::memory_order_release);
  });
  std::vector<double> secs;
  for (int b = 0; b < kBlocks; ++b) {
    uint64_t target = got.load() + frames;
    uint64_t a = NowNanos();
    for (uint64_t i = 0; i < frames; ++i) {
      mp.m0->SendData(0, channel, 1, std::vector<uint8_t>(payload));
    }
    while (got.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
    secs.push_back(static_cast<double>(NowNanos() - a) * 1e-9);
  }
  return QuantileOf(secs, 0.5);
}

/// The same byte stream over one plain loopback TCP connection.
double TcpSeconds(size_t frame, uint64_t frames) {
  using namespace megaphone::net;
  int l = BindListener("127.0.0.1", 0, 1);
  Endpoint ep{"127.0.0.1", ListenerPort(l)};
  int c = ConnectWithRetry(ep, 5000);
  int s = AcceptWithTimeout(l, 5000);
  ::close(l);
  std::atomic<bool> stop{false};
  std::vector<uint8_t> buf(frame, 0x33);
  std::vector<double> secs;
  for (int b = 0; b < kBlocks; ++b) {
    uint64_t a = NowNanos();
    std::thread reader([&] {
      std::vector<uint8_t> in(frame);
      for (uint64_t i = 0; i < frames; ++i) {
        if (!ReadFull(s, in.data(), frame, stop)) return;
      }
    });
    for (uint64_t i = 0; i < frames; ++i) WriteFull(c, buf.data(), frame, stop);
    reader.join();
    secs.push_back(static_cast<double>(NowNanos() - a) * 1e-9);
  }
  ::close(c);
  ::close(s);
  return QuantileOf(secs, 0.5);
}

void NetLedger(uint64_t chunk_bytes, Metrics* out) {
  // A steady-mesh bundle: one 4096-record batch routed over 4 workers.
  std::vector<uint8_t> bundle = megaphone::EncodeToBytes(MakeBundle(1024));
  std::vector<uint8_t> chunk =
      megaphone::EncodeToBytes(MakeChunk(chunk_bytes));
  const uint64_t bundle_frames = (32u << 20) / bundle.size();
  const uint64_t chunk_frames = (32u << 20) / chunk.size();
  double bundle_s, chunk_s;
  {
    MeshPair mp;
    bundle_s = MeshSeconds(mp, 1, bundle, bundle_frames);
    chunk_s = MeshSeconds(mp, 2, chunk, chunk_frames);
  }
  double bundle_mb = static_cast<double>(bundle.size() * bundle_frames) / 1e6;
  double chunk_mb = static_cast<double>(chunk.size() * chunk_frames) / 1e6;
  out->emplace_back("net.mesh_mb_s", bundle_mb / bundle_s);
  out->emplace_back("net.mesh_frames_s",
                    static_cast<double>(bundle_frames) / bundle_s);
  out->emplace_back("net.tcp_mb_s",
                    bundle_mb / TcpSeconds(bundle.size(), bundle_frames));
  out->emplace_back("net.mesh_chunk_mb_s", chunk_mb / chunk_s);
}

// -------------------------------------------------------------- state
template <typename S>
std::vector<std::vector<uint8_t>> Extract(const S& st, size_t max_bytes) {
  std::vector<std::vector<uint8_t>> chunks;
  st.EnumerateChunks(max_bytes, [&](std::vector<uint8_t>&& c) {
    chunks.push_back(std::move(c));
  });
  return chunks;
}

size_t TotalBytes(const std::vector<std::vector<uint8_t>>& chunks) {
  size_t n = 0;
  for (const auto& c : chunks) n += c.size();
  return n;
}

void DenseLedger(uint64_t chunk_bytes, Metrics* out) {
  // One migrate-sized bin: 2^20 keys over 16 bins, 8-byte counts.
  megaphone::state::DenseState<uint64_t> st;
  st.resize(1 << 16);
  for (size_t i = 0; i < st.size(); ++i) st[i] = i * 31;
  auto chunks = Extract(st, chunk_bytes);
  double mb = static_cast<double>(TotalBytes(chunks)) / 1e6;
  volatile size_t sink = 0;
  out->emplace_back(
      "state.dense_extract_mb_s",
      1e9 * mb / NsPerOp([&] { sink = Extract(st, chunk_bytes).size(); }, 1,
                         20));
  out->emplace_back("state.dense_absorb_mb_s",
                    1e9 * mb / NsPerOp(
                                   [&] {
                                     megaphone::state::DenseState<uint64_t> d;
                                     for (const auto& c : chunks) {
                                       megaphone::Reader r(c);
                                       d.AbsorbChunk(r);
                                     }
                                     d.FinishAbsorb();
                                     sink = d.size();
                                   },
                                   1, 20));
  (void)sink;
}

using PadLog = megaphone::state::LogState<uint64_t, megaphone::PadCount>;

void Touch(PadLog& ls, uint64_t k) {
  megaphone::PadCount& v = ls[k];
  if (v.pad.empty()) v.pad.assign(4096, 0xa5);
  v.count++;
}

void LogLedger(const std::string& dir, uint64_t chunk_bytes, uint64_t seed,
               Metrics* out) {
  megaphone::state::LogStateOptions o;
  o.dir = dir;
  o.memtable_bytes = 64 << 10;
  volatile size_t sink = 0;

  // Extract/absorb of one spill-sized bin: 256 keys x 4 KB.
  {
    PadLog bin(o);
    for (uint64_t k = 0; k < 256; ++k) Touch(bin, k * 16);
    bin.FlushNow();
    auto chunks = Extract(bin, chunk_bytes);
    double mb = static_cast<double>(TotalBytes(chunks)) / 1e6;
    out->emplace_back(
        "state.log_extract_mb_s",
        1e9 * mb /
            NsPerOp([&] { sink = Extract(bin, chunk_bytes).size(); }, 1, 30));
    out->emplace_back("state.log_absorb_mb_s",
                      1e9 * mb / NsPerOp(
                                     [&] {
                                       PadLog d(o);
                                       for (const auto& c : chunks) {
                                         megaphone::Reader r(c);
                                         d.AbsorbChunk(r);
                                       }
                                       d.FinishAbsorb();
                                       sink = d.size();
                                     },
                                     1, 30));
  }

  // Point operations on a whole spill-sized state: 4096 keys x 4 KB.
  PadLog ls(o);
  constexpr uint64_t kKeys = 4096;
  for (uint64_t k = 0; k < kKeys; ++k) Touch(ls, k);
  ls.FlushNow();
  uint64_t i = 0;
  out->emplace_back(
      "state.log_put_ns",
      NsPerOp([&] { Touch(ls, KeyOf(seed, i++, kKeys)); }, 1, 30));
  out->emplace_back("state.log_get_ns",
                    NsPerOp(
                        [&] {
                          sink = ls.Get(KeyOf(seed, i++, kKeys))->count;
                        },
                        1, 30));
  // Flush: a memtable filled just below its bound, then written out.
  std::vector<double> flush_ms;
  for (int r = 0; r < 3 * kBlocks; ++r) {
    for (uint64_t j = 0; j < 12; ++j) Touch(ls, KeyOf(seed, i++, kKeys));
    uint64_t a = NowNanos();
    ls.FlushNow();
    flush_ms.push_back(static_cast<double>(NowNanos() - a) * 1e-6);
  }
  out->emplace_back("state.log_flush_ms", QuantileOf(flush_ms, 0.5));
  // Compaction of the whole state after every key was rewritten once.
  std::vector<double> compact_ms;
  for (int r = 0; r < 3; ++r) {
    for (uint64_t k = 0; k < kKeys; ++k) Touch(ls, k);
    ls.FlushNow();
    uint64_t a = NowNanos();
    ls.CompactNow();
    compact_ms.push_back(static_cast<double>(NowNanos() - a) * 1e-6);
  }
  out->emplace_back("state.log_compact_ms", QuantileOf(compact_ms, 0.5));
  (void)sink;
}

}  // namespace

void RunLedger(const std::string& state_dir, uint64_t seed, Metrics* out) {
  ChannelLedger(out);
  ProgressLedger(out);
  CountLedger(seed, out);
  SerdeLedger(kChunkBytes, out);
  NetLedger(kChunkBytes, out);
  DenseLedger(kChunkBytes, out);
  std::string dir = state_dir + "/ledger";
  std::filesystem::create_directories(dir);
  LogLedger(dir, kChunkBytes, seed, out);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
