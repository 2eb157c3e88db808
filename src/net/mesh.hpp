// The process mesh: one TCP connection per peer process, a send thread
// draining a bounded byte-budgeted queue and a receive thread parsing
// frames per peer.
//
// Topology: process i accepts connections from every j > i and initiates
// connections to every j < i (the standard full-mesh bring-up; the listen
// backlog absorbs arbitrary arrival order). Every connection opens with a
// handshake carrying the initiator's process index so the acceptor knows
// which peer it is talking to. Connect and handshake retries back off
// exponentially with jitter.
//
// Ordering: the per-peer send queue is FIFO and frames are written whole,
// so everything a process enqueues for one peer arrives in order. The
// engine's cross-process safety protocol rests on exactly this: a
// worker's progress batch (carrying `produced` counts) is enqueued before
// the data bundles it covers, so no receiving process can observe a
// bundle whose production its tracker replica has not yet counted.
//
// Reliability: data and progress frames carry per-link sequence numbers
// and a payload checksum, and stay in a go-back-N retransmit buffer until
// cumulatively acked. The receiver delivers exactly the sequence 1,2,3…:
// a gap (injected drop) or checksum mismatch (injected corruption)
// triggers a nack, and the sender replays from its buffer; duplicates are
// discarded by sequence. This exists to make the deterministic fault
// injector (src/fault/) a no-op on *results*: a seeded drop/dup/corrupt
// schedule must perturb timing only. Protocol frames (ack/nack/heartbeat/
// goodbye) are never injected against, so every fault schedule heals.
//
// Liveness: the send thread emits a heartbeat whenever the link has been
// idle for heartbeat_ms; the receive thread declares the peer down after
// peer_deadline_ms of total silence, on EOF without a goodbye, or on an
// unframeable byte stream. PeerDown does not throw from the mesh's own
// threads: it marks the mesh failed and wakes every blocked producer, and
// the worker loops (timely::Worker::StepUntil) observe the flag and raise
// timely::PeerDownError — a clean reported abort instead of a deadlock.
//
// Delivery before registration: data and progress handlers are registered
// while workers build their dataflows, but a faster peer may ship frames
// earlier. The dispatcher buffers frames per key and replays them, in
// order, when the handler arrives.
//
// Shutdown: each send thread drains its queue, emits a goodbye frame
// carrying its final sequence number, keeps servicing acks/nacks and
// heartbeats until the peer has acked everything and the receive side has
// finished, then half-closes. The receive thread finishes once it has the
// peer's goodbye, has delivered everything up to it, and our own goodbye
// is fully acked. Shutdown() therefore still acts as a global termination
// barrier, but one that a dead peer cannot hold forever: silence past the
// deadline turns the barrier into PeerDown. `force` (error paths) skips
// waiting via the stop flag.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "timely/remote.hpp"

namespace megaphone {
namespace net {

/// Deadline for the whole mesh bring-up (connects and handshakes).
constexpr uint64_t kConnectTimeoutMs = 30'000;
/// Bound on bytes queued per peer; producers block when exceeded
/// (backpressure toward the worker that is flooding the link).
constexpr size_t kMaxQueueBytes = 64u << 20;

struct MeshOptions {
  uint32_t processes = 1;
  uint32_t process_index = 0;
  uint32_t workers_per_process = 1;
  /// One "host:port" per process. Required when processes > 1.
  std::vector<std::string> addresses;
  /// Pre-bound listener for this process (the self-forking launcher binds
  /// port-0 listeners before forking, so ports are race-free); -1 means
  /// the mesh binds addresses[process_index] itself.
  int listen_fd = -1;
  /// Idle-link keepalive cadence per peer (also carries acks).
  uint64_t heartbeat_ms = 500;
  /// A peer silent for this long is declared down. Must comfortably
  /// exceed heartbeat_ms; 0 disables the deadline (not recommended).
  uint64_t peer_deadline_ms = 10'000;
  /// Deterministic transport-fault schedule (off by default).
  fault::FaultSpec fault;
};

class NetMesh final : public timely::NetRuntime {
 public:
  explicit NetMesh(MeshOptions opts) : opts_(std::move(opts)) {
    MEGA_CHECK_GE(opts_.processes, 2u) << "mesh needs at least 2 processes";
    MEGA_CHECK_LT(opts_.process_index, opts_.processes);
    MEGA_CHECK_EQ(opts_.addresses.size(), opts_.processes)
        << "one address per process required";

    const uint32_t me = opts_.process_index;
    listen_fd_ = opts_.listen_fd;
    if (listen_fd_ < 0) {
      Endpoint ep = ParseEndpoint(opts_.addresses[me]);
      listen_fd_ = BindListener(ep.host, ep.port,
                                static_cast<int>(opts_.processes));
    }
    SetNonBlocking(listen_fd_);

    peers_.resize(opts_.processes);
    // One deadline bounds the whole bring-up.
    const uint64_t deadline = NowNanos() + kConnectTimeoutMs * 1'000'000;
    auto remaining_ms = [&]() -> uint64_t {
      uint64_t now = NowNanos();
      MEGA_CHECK(now < deadline) << "mesh bring-up timed out";
      return (deadline - now) / 1'000'000 + 1;
    };
    // Initiate to lower-indexed peers; their listeners exist (the caller
    // bound every address before starting, or the launcher pre-bound all
    // listeners before forking) and their backlog holds us until they
    // accept. On fixed ports (manual mode) a connection can also land in
    // the backlog of the peer's *previous* run when processes launch
    // meshes back-to-back: that listener closes without ever replying,
    // so a failed handshake exchange means "peer not ready yet", not a
    // fatal error — drop the connection and retry until the deadline.
    RetryBackoff backoff;
    for (uint32_t j = 0; j < me; ++j) {
      for (;;) {
        int fd = ConnectWithRetry(ParseEndpoint(opts_.addresses[j]),
                                  remaining_ms());
        uint8_t buf[kHandshakeBytes];
        EncodeHandshake(buf,
                        Handshake{kHandshakeMagic, kProtocolVersion, me});
        if (!WriteFull(fd, buf, kHandshakeBytes, stop_) ||
            !ReadFull(fd, buf, kHandshakeBytes, stop_)) {
          ::close(fd);
          (void)remaining_ms();
          backoff.Sleep();
          continue;
        }
        Handshake peer = DecodeHandshake(buf);
        MEGA_CHECK(peer.magic == kHandshakeMagic &&
                   peer.version == kProtocolVersion && peer.process == j)
            << "bad handshake from process " << j;
        InstallPeer(j, fd);
        break;
      }
    }
    // Accept from higher-indexed peers, identifying each by handshake. An
    // accepted connection whose initiator hung up before completing the
    // handshake (it was aiming at a previous run on this port and has
    // already retried) is dropped and does not count.
    for (uint32_t remaining = opts_.processes - me - 1; remaining > 0;) {
      int fd = AcceptWithTimeout(listen_fd_, remaining_ms());
      uint8_t buf[kHandshakeBytes];
      if (!ReadFull(fd, buf, kHandshakeBytes, stop_)) {
        ::close(fd);
        continue;
      }
      Handshake peer = DecodeHandshake(buf);
      MEGA_CHECK(peer.magic == kHandshakeMagic &&
                 peer.version == kProtocolVersion && peer.process > me &&
                 peer.process < opts_.processes && !peers_[peer.process])
          << "bad handshake on accepted connection";
      EncodeHandshake(buf, Handshake{kHandshakeMagic, kProtocolVersion, me});
      MEGA_CHECK(WriteFull(fd, buf, kHandshakeBytes, stop_))
          << "handshake write on accepted connection failed";
      InstallPeer(peer.process, fd);
      --remaining;
    }
    // Threads start only after the full mesh is up. A receive thread that
    // throws (SerdeError from corrupted bytes, unexpected frame) reports
    // the peer down instead of escaping into std::terminate.
    for (auto& p : peers_) {
      if (!p) continue;
      Peer* peer = p.get();
      peer->send_thread = std::thread([this, peer] { SendLoop(*peer); });
      peer->recv_thread = std::thread([this, peer] {
        try {
          RecvLoop(*peer);
        } catch (const std::exception& e) {
          MarkPeerDown(*peer, std::string("receive failed: ") + e.what());
          peer->recv_done.store(true, std::memory_order_release);
          peer->cv_pop.notify_all();
        }
      });
    }
  }

  ~NetMesh() override { Shutdown(/*force=*/true); }

  NetMesh(const NetMesh&) = delete;
  NetMesh& operator=(const NetMesh&) = delete;

  /// Flushes every queue, exchanges goodbyes and final acks, joins
  /// threads, and closes sockets. The normal (non-forced) path returns
  /// only after every live peer has finished sending — a clean global
  /// teardown; a dead peer is bounded by the peer deadline instead of
  /// blocking forever. Idempotent.
  void Shutdown(bool force = false) {
    bool expected = false;
    if (!shut_.compare_exchange_strong(expected, true)) return;
    if (force) stop_.store(true, std::memory_order_relaxed);
    for (auto& p : peers_) {
      if (!p) continue;
      {
        std::lock_guard<std::mutex> lock(p->mu);
        p->closing = true;
      }
      p->cv_pop.notify_all();
      p->cv_push.notify_all();
    }
    for (auto& p : peers_) {
      if (!p) continue;
      if (p->send_thread.joinable()) p->send_thread.join();
      if (p->recv_thread.joinable()) p->recv_thread.join();
      ::close(p->fd);
      p->fd = -1;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  // --- timely::NetRuntime ----------------------------------------------

  uint32_t processes() const override { return opts_.processes; }
  uint32_t process_index() const override { return opts_.process_index; }
  uint32_t workers_per_process() const override {
    return opts_.workers_per_process;
  }

  bool PeerFailed() const override {
    return failed_.load(std::memory_order_acquire);
  }

  std::string FailureReason() const override {
    std::lock_guard<std::mutex> lock(fail_mu_);
    return fail_reason_;
  }

  void SendData(uint64_t dataflow_id, uint64_t channel_id,
                uint32_t target_worker,
                std::vector<uint8_t> payload) override {
    uint32_t proc = ProcessOfWorker(target_worker);
    MEGA_CHECK(proc != opts_.process_index && proc < opts_.processes)
        << "SendData target is not a remote worker";
    Enqueue(*peers_[proc],
            MakeOutFrame(FrameKind::kData, target_worker,
                         DataKey(dataflow_id, channel_id),
                         std::move(payload)));
  }

  void BroadcastProgress(uint64_t dataflow_id,
                         std::vector<uint8_t> payload) override {
    // Copy for all peers but the last, which takes the payload itself —
    // with P=2 (one peer) the per-step broadcast never copies.
    Peer* last = nullptr;
    for (auto& p : peers_) {
      if (!p) continue;
      if (last != nullptr) {
        Enqueue(*last, MakeOutFrame(FrameKind::kProgress, 0, dataflow_id,
                                    std::vector<uint8_t>(payload)));
      }
      last = p.get();
    }
    if (last != nullptr) {
      Enqueue(*last, MakeOutFrame(FrameKind::kProgress, 0, dataflow_id,
                                  std::move(payload)));
    }
  }

  void RegisterDataHandler(uint64_t dataflow_id, uint64_t channel_id,
                           DataHandler handler) override {
    Register(FrameKind::kData, DataKey(dataflow_id, channel_id),
             std::move(handler));
  }

  void RegisterProgressHandler(uint64_t dataflow_id,
                               ProgressHandler handler) override {
    Register(FrameKind::kProgress, dataflow_id,
             [h = std::move(handler)](uint32_t, megaphone::Reader& r) {
               h(r);
             });
  }

 private:
  /// Cumulative-ack cadence: one explicit ack per this many delivered
  /// frames (heartbeats carry acks on idle links, and the goodbye
  /// exchange forces a final one).
  static constexpr uint64_t kAckEvery = 256;

  /// An outbound frame kept as (header struct, payload) so payload bytes
  /// are never copied into a contiguous frame buffer; the send thread
  /// encodes the 40-byte header at write time and writes both parts with
  /// one gathered sendmsg.
  struct OutFrame {
    FrameHeader h;
    std::vector<uint8_t> payload;
    /// Replay from the retransmit buffer: exempt from fault injection
    /// and not re-appended to the buffer.
    bool retransmit = false;

    size_t size() const { return kFrameHeaderBytes + payload.size(); }
  };

  static OutFrame MakeOutFrame(FrameKind kind, uint32_t target, uint64_t key,
                               std::vector<uint8_t> payload) {
    OutFrame f;
    f.h.kind = static_cast<uint32_t>(kind);
    f.h.target = target;
    f.h.key = key;
    f.h.payload_len = payload.size();
    f.h.payload_crc = FrameChecksum(payload.data(), payload.size());
    f.payload = std::move(payload);
    return f;
  }

  struct Peer {
    uint32_t process = 0;
    int fd = -1;
    std::thread send_thread;
    std::thread recv_thread;

    mutable std::mutex mu;
    std::condition_variable cv_push;  // space available
    std::condition_variable cv_pop;   // frames/acks/closing available
    std::deque<OutFrame> queue;
    size_t queued_bytes = 0;
    bool closing = false;

    // Reliability state. Sequenced frames are assigned seq at enqueue
    // (under mu, so queue order == seq order) and copied into `retx`
    // just before their first write; `retx` always holds the contiguous
    // range [retx_base, retx_base + retx.size()).
    uint64_t next_seq = 1;      // under mu
    std::deque<OutFrame> retx;  // under mu
    uint64_t retx_base = 1;     // under mu
    /// Peer has delivered every sequenced frame with seq < acked.
    std::atomic<uint64_t> acked{1};
    /// We have delivered every incoming sequenced frame with seq <
    /// expected_in (mirrors the receive thread's counter for heartbeats).
    std::atomic<uint64_t> expected_in{1};
    /// Send thread has written (or blackholed) every seq < written_next.
    std::atomic<uint64_t> written_next{1};
    std::atomic<bool> dead{false};
    std::atomic<bool> recv_done{false};
    /// Fault schedule for this link direction (null = fault-free).
    std::unique_ptr<fault::FaultInjector> injector;
  };

  void InstallPeer(uint32_t process, int fd) {
    auto p = std::make_unique<Peer>();
    p->process = process;
    p->fd = fd;
    if (opts_.fault.Enabled()) {
      p->injector = std::make_unique<fault::FaultInjector>(
          opts_.fault, opts_.process_index, process);
    }
    peers_[process] = std::move(p);
  }

  /// Declares the peer dead: unblocks every producer and both link
  /// threads, and raises the mesh-wide failure flag that the worker
  /// loops poll. First reason wins.
  void MarkPeerDown(Peer& p, const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(p.mu);
      p.dead.store(true, std::memory_order_relaxed);
      p.queue.clear();
      p.queued_bytes = 0;
    }
    p.cv_push.notify_all();
    p.cv_pop.notify_all();
    {
      std::lock_guard<std::mutex> lock(fail_mu_);
      if (fail_reason_.empty()) {
        fail_reason_ = "peer process " + std::to_string(p.process) + " down: " + why;
      }
    }
    failed_.store(true, std::memory_order_release);
  }

  void Enqueue(Peer& p, OutFrame frame) {
    std::unique_lock<std::mutex> lock(p.mu);
    p.cv_push.wait(lock, [&] {
      return p.queued_bytes < kMaxQueueBytes || p.closing ||
             p.dead.load(std::memory_order_relaxed) ||
             stop_.load(std::memory_order_relaxed);
    });
    // Frames toward a dead peer are dropped silently: the mesh is already
    // marked failed and the worker loop is about to raise PeerDownError —
    // blocking here (or aborting) would turn a reported failure into a
    // deadlock inside the failure path itself.
    if (p.dead.load(std::memory_order_relaxed) ||
        stop_.load(std::memory_order_relaxed)) {
      return;
    }
    // Enqueueing after Shutdown would silently lose the frame (the send
    // thread may already have drained and said goodbye): a loud failure
    // beats a mesh that claims "all frames delivered" while dropping one.
    MEGA_CHECK(!p.closing) << "send to peer " << p.process
                           << " after Shutdown";
    if (IsSequencedKind(frame.h.kind)) frame.h.seq = p.next_seq++;
    p.queued_bytes += frame.size();
    p.queue.push_back(std::move(frame));
    p.cv_pop.notify_one();
  }

  /// Enqueue for protocol frames (ack/nack) issued by the receive
  /// thread. Exempt from backpressure and allowed during closing: the
  /// goodbye exchange depends on them.
  void EnqueueControl(Peer& p, OutFrame frame) {
    {
      std::lock_guard<std::mutex> lock(p.mu);
      if (p.dead.load(std::memory_order_relaxed)) return;
      p.queued_bytes += frame.size();
      p.queue.push_back(std::move(frame));
    }
    p.cv_pop.notify_one();
  }

  /// Cumulative ack from the peer: prune the retransmit buffer and wake
  /// the send thread (it may be waiting on this to finish shutdown).
  void HandleAck(Peer& p, uint64_t ack) {
    uint64_t cur = p.acked.load(std::memory_order_relaxed);
    while (ack > cur &&
           !p.acked.compare_exchange_weak(cur, ack,
                                          std::memory_order_release)) {
    }
    {
      std::lock_guard<std::mutex> lock(p.mu);
      while (!p.retx.empty() && p.retx_base < ack) {
        p.retx.pop_front();
        ++p.retx_base;
      }
    }
    p.cv_pop.notify_all();
  }

  /// Go-back-N: replay every written-but-unacked frame from `from_seq`
  /// on, ahead of whatever is queued (their seqs are all larger).
  void ScheduleRetransmit(Peer& p, uint64_t from_seq) {
    {
      std::lock_guard<std::mutex> lock(p.mu);
      if (p.retx.empty()) return;
      uint64_t base = p.retx_base;
      if (from_seq < base) from_seq = base;  // that prefix is acked
      if (from_seq >= base + p.retx.size()) return;  // not written yet
      for (size_t i = p.retx.size(); i-- > from_seq - base;) {
        OutFrame copy = p.retx[i];
        copy.retransmit = true;
        p.queued_bytes += copy.size();
        p.queue.push_front(std::move(copy));
      }
    }
    p.cv_pop.notify_one();
  }

  /// Writes one frame, applying the fault schedule to first
  /// transmissions of sequenced frames (retransmissions and protocol
  /// frames are exempt, so every schedule heals). Returns false on
  /// socket failure.
  bool WriteFrame(Peer& p, const OutFrame& f) {
    const bool first_tx = IsSequencedKind(f.h.kind) && !f.retransmit;
    fault::FaultDecision d;
    if (first_tx) {
      {
        std::lock_guard<std::mutex> lock(p.mu);
        if (p.retx.empty()) p.retx_base = f.h.seq;
        p.retx.push_back(f);  // pristine copy, before any write
      }
      if (p.injector) {
        d = p.injector->OnFrame();
        if (p.injector->KillDue()) {
          std::raise(SIGKILL);  // crash drill: die mid-stream, no goodbye
        }
      }
    }
    bool ok = true;
    const bool blackhole =
        d.drop || (p.injector && p.injector->PartitionActive());
    if (!blackhole) {
      if (d.delay_us > 0) ::usleep(static_cast<useconds_t>(d.delay_us));
      uint8_t hdr[kFrameHeaderBytes];
      EncodeFrameHeader(hdr, f.h);
      if (d.corrupt && !f.payload.empty()) {
        // Flip one payload byte in a copy; the retransmit buffer keeps
        // the pristine frame, so the nack-triggered replay heals this.
        std::vector<uint8_t> bad = f.payload;
        bad[d.corrupt_pos % bad.size()] ^=
            static_cast<uint8_t>(d.corrupt_xor);
        ok = WritevFull(p.fd, hdr, kFrameHeaderBytes, bad.data(),
                        bad.size(), stop_);
      } else {
        ok = WritevFull(p.fd, hdr, kFrameHeaderBytes, f.payload.data(),
                        f.payload.size(), stop_);
        if (ok && d.dup) {
          ok = WritevFull(p.fd, hdr, kFrameHeaderBytes, f.payload.data(),
                          f.payload.size(), stop_);
        }
      }
    }
    if (first_tx) {
      // Advances even when the write was blackholed: written_next tells
      // the peer (via heartbeat) what it *should* have, which is exactly
      // how a dropped tail frame gets discovered and nacked.
      p.written_next.store(f.h.seq + 1, std::memory_order_release);
    }
    return ok;
  }

  void SendLoop(Peer& p) {
    const auto hb_interval =
        std::chrono::milliseconds(std::max<uint64_t>(1, opts_.heartbeat_ms));
    bool goodbye_sent = false;
    uint64_t final_seq = 0;
    for (;;) {
      enum class Next { kFrame, kGoodbye, kHeartbeat, kExit };
      Next next = Next::kHeartbeat;
      OutFrame frame;
      {
        std::unique_lock<std::mutex> lock(p.mu);
        auto exit_ready = [&] {
          return goodbye_sent && p.queue.empty() &&
                 p.recv_done.load(std::memory_order_acquire) &&
                 p.acked.load(std::memory_order_acquire) >= final_seq;
        };
        p.cv_pop.wait_for(lock, hb_interval, [&] {
          return !p.queue.empty() || (p.closing && !goodbye_sent) ||
                 p.dead.load(std::memory_order_relaxed) ||
                 stop_.load(std::memory_order_relaxed) || exit_ready();
        });
        if (p.dead.load(std::memory_order_relaxed) ||
            stop_.load(std::memory_order_relaxed)) {
          p.queue.clear();
          p.queued_bytes = 0;
          p.cv_push.notify_all();
          return;
        }
        if (exit_ready()) {
          next = Next::kExit;
        } else if (!p.queue.empty()) {
          frame = std::move(p.queue.front());
          p.queue.pop_front();
          p.queued_bytes -= frame.size();
          p.cv_push.notify_all();
          next = Next::kFrame;
        } else if (p.closing && !goodbye_sent) {
          next = Next::kGoodbye;
          final_seq = p.next_seq;
        } else {
          next = Next::kHeartbeat;  // idle link: keepalive + ack carrier
        }
      }
      switch (next) {
        case Next::kExit:
          ::shutdown(p.fd, SHUT_WR);
          return;
        case Next::kFrame:
          if (!WriteFrame(p, frame)) {
            MarkPeerDown(p, "frame write failed");
            return;
          }
          break;
        case Next::kGoodbye: {
          OutFrame bye =
              MakeOutFrame(FrameKind::kGoodbye, 0, final_seq, {});
          if (!WriteFrame(p, bye)) {
            MarkPeerDown(p, "goodbye write failed");
            return;
          }
          goodbye_sent = true;
          break;
        }
        case Next::kHeartbeat: {
          HeartbeatBody body;
          body.next_seq = p.written_next.load(std::memory_order_acquire);
          body.ack = p.expected_in.load(std::memory_order_acquire);
          OutFrame hb = MakeOutFrame(FrameKind::kHeartbeat, 0, 0,
                                     EncodeToBytes(body));
          if (!WriteFrame(p, hb)) {
            MarkPeerDown(p, "heartbeat write failed");
            return;
          }
          break;
        }
      }
    }
  }

  void RecvLoop(Peer& p) {
    uint8_t header[kFrameHeaderBytes];
    uint64_t last_rx = NowNanos();
    const uint64_t idle_ns = opts_.peer_deadline_ms * 1'000'000;
    uint64_t expected = 1;          // next sequenced frame to deliver
    uint64_t delivered_since_ack = 0;
    uint64_t nacked_at = 0;         // suppression: last expected we nacked
    bool peer_goodbye = false;
    uint64_t peer_final = 0;
    bool final_ack_sent = false;

    auto finish = [&](bool clean, const std::string& why) {
      if (!clean) MarkPeerDown(p, why);
      p.recv_done.store(true, std::memory_order_release);
      p.cv_pop.notify_all();
    };
    auto send_ack = [&] {
      EnqueueControl(p, MakeOutFrame(FrameKind::kAck, 0, expected, {}));
    };
    auto nack_gap = [&] {
      if (nacked_at == expected) return;  // already asked for this one
      nacked_at = expected;
      EnqueueControl(p, MakeOutFrame(FrameKind::kNack, 0, expected, {}));
    };

    for (;;) {
      bool partial = false;
      ReadStatus st = ReadFullIdle(p.fd, header, kFrameHeaderBytes, stop_,
                                   idle_ns, &last_rx, &partial);
      if (st != ReadStatus::kOk) {
        if (st == ReadStatus::kStop) {
          finish(/*clean=*/true, "");
          return;
        }
        if (st == ReadStatus::kIdleTimeout) {
          finish(false, "silent past the " +
                            std::to_string(opts_.peer_deadline_ms) +
                            "ms deadline (no heartbeat)");
          return;
        }
        // EOF. Clean only when the whole goodbye protocol completed:
        // peer's goodbye seen and delivered up to it, our goodbye sent
        // (closing) and fully acked. Anything else is a dead peer.
        bool clean;
        {
          std::lock_guard<std::mutex> lock(p.mu);
          clean = !partial && peer_goodbye && expected >= peer_final &&
                  p.closing &&
                  p.acked.load(std::memory_order_relaxed) >= p.next_seq;
        }
        finish(clean, partial ? "closed mid-frame"
                              : "disconnected before goodbye");
        return;
      }
      FrameHeader h;
      if (!TryDecodeFrameHeader(header, &h)) {
        // An unframeable stream cannot be nacked back to health: frame
        // boundaries themselves are gone.
        finish(false, "frame header checksum mismatch (stream desync)");
        return;
      }
      if (h.payload_len > kMaxFramePayload) {
        finish(false, "oversized frame");
        return;
      }
      std::vector<uint8_t> payload(h.payload_len);
      if (h.payload_len > 0) {
        st = ReadFullIdle(p.fd, payload.data(), h.payload_len, stop_,
                          idle_ns, &last_rx, nullptr);
        if (st != ReadStatus::kOk) {
          finish(st == ReadStatus::kStop, "closed mid-frame");
          return;
        }
      }
      const bool payload_ok =
          FrameChecksum(payload.data(), payload.size()) == h.payload_crc;
      switch (static_cast<FrameKind>(h.kind)) {
        case FrameKind::kHeartbeat: {
          if (!payload_ok) break;  // next heartbeat is 500ms away
          auto body = DecodeFromBytes<HeartbeatBody>(payload);
          HandleAck(p, body.ack);
          // A tail gap: the peer wrote frames we never saw and the link
          // has gone quiet — no later data frame will reveal the loss.
          if (body.next_seq > expected) nack_gap();
          break;
        }
        case FrameKind::kAck:
          HandleAck(p, h.key);
          break;
        case FrameKind::kNack:
          ScheduleRetransmit(p, h.key);
          break;
        case FrameKind::kGoodbye:
          peer_goodbye = true;
          peer_final = h.key;
          break;
        case FrameKind::kData:
        case FrameKind::kProgress:
          if (!payload_ok) {
            nack_gap();  // corrupt in transit: replay from seq `expected`
            break;
          }
          if (h.seq == expected) {
            ++expected;
            p.expected_in.store(expected, std::memory_order_release);
            Dispatch(static_cast<FrameKind>(h.kind), h.key, h.target,
                     std::move(payload));
            if (++delivered_since_ack >= kAckEvery) {
              delivered_since_ack = 0;
              send_ack();
            }
          } else if (h.seq > expected) {
            nack_gap();  // gap: dropped frame(s); go-back-N replays
          }
          // h.seq < expected: duplicate of something delivered; discard.
          break;
        default:
          finish(false, "unknown frame kind " + std::to_string(h.kind));
          return;
      }
      // Post-goodbye: once caught up, send the final cumulative ack (the
      // peer's send thread waits on it), and exit as soon as our own
      // goodbye is acked too. Driven by the peer's acks/heartbeats.
      if (peer_goodbye && expected >= peer_final) {
        if (!final_ack_sent) {
          final_ack_sent = true;
          send_ack();
        }
        bool done;
        {
          std::lock_guard<std::mutex> lock(p.mu);
          done = p.closing &&
                 p.acked.load(std::memory_order_relaxed) >= p.next_seq;
        }
        if (done) {
          finish(/*clean=*/true, "");
          return;
        }
      }
    }
  }

  /// Handlers and early frames are keyed by (frame kind, key): a data
  /// frame's key is DataKey(dataflow, channel), a progress frame's the
  /// dataflow id. Progress handlers ignore the target.
  using RouteKey = std::pair<FrameKind, uint64_t>;

  /// Installs the handler for `(kind, key)`. Frames that arrived earlier
  /// are replayed through it first, in order, under the lock, so a frame
  /// arriving meanwhile cannot overtake them.
  void Register(FrameKind kind, uint64_t key, DataHandler handler) {
    const RouteKey route{kind, key};
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    auto early = early_.find(route);
    if (early != early_.end()) {
      for (auto& [target, bytes] : early->second) {
        megaphone::Reader r(bytes);
        handler(target, r);
      }
      early_.erase(early);
    }
    handlers_[route] = std::move(handler);
  }

  // Handlers run *outside* dispatch_mu_ so peers' receive threads decode
  // concurrently: the lock only covers the lookup/buffering decision.
  // Safe because a found handler implies its registration (including the
  // buffered replay) fully completed, handlers are never replaced, and
  // per-peer ordering is carried by each peer's single receive thread.
  void Dispatch(FrameKind kind, uint64_t key, uint32_t target,
                std::vector<uint8_t> payload) {
    const RouteKey route{kind, key};
    const DataHandler* handler = nullptr;
    {
      std::lock_guard<std::mutex> lock(dispatch_mu_);
      auto it = handlers_.find(route);
      if (it == handlers_.end()) {
        early_[route].emplace_back(target, std::move(payload));
        return;
      }
      handler = &it->second;
    }
    megaphone::Reader r(payload);
    (*handler)(target, r);
  }

  MeshOptions opts_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> shut_{false};
  std::atomic<bool> failed_{false};
  mutable std::mutex fail_mu_;
  std::string fail_reason_;
  std::vector<std::unique_ptr<Peer>> peers_;  // [process]; self is null

  std::mutex dispatch_mu_;
  std::map<RouteKey, DataHandler> handlers_;
  std::map<RouteKey, std::vector<std::pair<uint32_t, std::vector<uint8_t>>>>
      early_;  // frames that arrived before their handler, in order
};

}  // namespace net
}  // namespace megaphone
