// Operator construction: parallelization contracts, typed input/output
// handles, capability management, and the operator builder.
//
// The shapes here mirror timely dataflow's generic operator interface: a
// builder on which typed inputs (each with a parallelization contract
// deciding which worker receives each record) and typed outputs are
// declared, then a logic closure that is scheduled repeatedly. Capabilities
// follow timely's discipline: a message at time t received this scheduling
// step grants the right to send at times ≥ t and to retain an explicit
// capability at times ≥ t; explicit capabilities must be retained to defer
// output to a later step and released when done, which is what lets
// downstream frontiers advance.
//
// The record path is batch-first: SendBatch dispatches on the contract
// once per batch (the concrete routing functor is devirtualized into a
// single type-erased call computing every record's target), input handles
// drain whole channel queues with one lock, bundle buffers are recycled
// through the channel's pool, and each scheduling step publishes ONE
// consolidated progress batch — produced counts, consumed counts, and
// capability changes together — before staged bundles become visible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rate_limiter.hpp"
#include "common/time_util.hpp"
#include "timely/channel.hpp"
#include "timely/node.hpp"
#include "timely/stream.hpp"
#include "timely/worker.hpp"

namespace timely {

/// Parallelization contract: decides the receiving worker for each record
/// on a channel.
///
/// Exchange and Route capture their callable once, inside `targets`, which
/// computes the destinations of a whole batch in one type-erased call (the
/// per-record loop inside is devirtualized); a single record is a batch of
/// one.
template <typename D>
struct Pact {
  enum class Kind { kPipeline, kBroadcast, kPartition };

  Kind kind = Kind::kPipeline;
  /// kPartition: fills `out[0..n)` with the destination worker of each of
  /// `data[0..n)`.
  std::function<void(const D* data, size_t n, uint32_t peers, uint32_t* out)>
      targets;

  /// Records stay on the sending worker.
  static Pact Pipeline() { return Pact{}; }

  /// Records are partitioned by a hash of their content.
  template <typename H>
  static Pact Exchange(H h) {
    return Pact{Kind::kPartition, [h](const D* data, size_t n, uint32_t peers,
                                      uint32_t* out) {
                  for (size_t i = 0; i < n; ++i) {
                    out[i] = static_cast<uint32_t>(h(data[i]) % peers);
                  }
                }};
  }

  /// Every record is delivered to every worker (requires copyable D).
  static Pact Broadcast() { return Pact{Kind::kBroadcast, {}}; }

  /// Records carry their destination worker explicitly.
  template <typename R>
  static Pact Route(R r) {
    return Pact{Kind::kPartition,
                [r](const D* data, size_t n, uint32_t /*peers*/,
                    uint32_t* out) {
                  for (size_t i = 0; i < n; ++i) out[i] = r(data[i]);
                }};
  }
};

template <typename T>
class OpCtx;

/// Step-scoped flushing protocol implemented by output handles. A node
/// first *stages* every non-empty buffer (bundles move out of the
/// buffers, produced counts append to the step's change batch), then the
/// batch is applied to the tracker in one consolidated call, and only
/// then are staged bundles *committed* (made visible in channels) — the
/// safety order, with one tracker acquisition per step instead of one per
/// buffer plus one per step.
template <typename T>
class StepFlushable {
 public:
  virtual ~StepFlushable() = default;
  /// Moves full buffers into the staging area; appends their produced
  /// counts to `changes`. Returns true if anything was staged.
  virtual bool StageFlush(std::vector<Change<T>>& changes) = 0;
  /// Publishes staged bundles to their channels (and drains any byte
  /// throttle). Must be called after `changes` has been applied.
  virtual bool CommitFlush() = 0;
};

/// Typed output port handle. Owns per-channel, per-target buffers. Every
/// bundle leaves through one path: `Stage` appends its produced count to a
/// change batch and queues it, and `CommitFlush` makes the queue visible
/// once that batch has been applied (the safety order). An operator output
/// stages into its step's batch, which the dataflow step applies; an input
/// handle has no step, so it stages into its own batch and every send call
/// ends by publishing it.
///
/// An optional byte throttle models network bandwidth: staged bundles are
/// counted like any other (they occupy sender memory, as serialized state
/// does in the paper's Fig. 20) but enter the channel only as the token
/// bucket admits them.
template <typename D, typename T>
class OutputHandle final : public StepFlushable<T> {
 public:
  OutputHandle(ProgressTracker<T>* tracker, uint32_t worker, uint32_t peers,
               OpCtx<T>* cap_ctx)
      : tracker_(tracker), worker_(worker), peers_(peers), cap_ctx_(cap_ctx) {}

  /// Build-time: connect a consumer channel with its contract and the
  /// location of the consumer's input port.
  void Attach(std::shared_ptr<Channel<D, T>> chan, Pact<D> pact,
              uint32_t dst_loc) {
    attachments_.push_back(Attachment{std::move(chan), std::move(pact),
                                      dst_loc,
                                      std::vector<Bundle<D, T>>(peers_)});
  }

  /// Enables byte throttling (bytes_per_sec == 0 disables). `size_of`
  /// estimates the wire size of one record.
  void SetThrottle(uint64_t bytes_per_sec,
                   std::function<size_t(const D&)> size_of) {
    throttle_.emplace(bytes_per_sec);
    size_of_ = std::move(size_of);
  }

  void Send(const T& time, D item) {
    DebugCheckMaySend(time);
    for (size_t a = 0; a < attachments_.size(); ++a) {
      bool last = (a + 1 == attachments_.size());
      RouteIntoBuffers(attachments_[a], time, item, last);
    }
    PublishIfInput();
  }

  /// Sends every element of `items` at `time`. The contract dispatch runs
  /// once per attachment, not once per record; `items` is left empty (its
  /// capacity is retained for the caller to reuse).
  void SendBatch(const T& time, std::vector<D>&& items) {
    if (items.empty()) return;
    DebugCheckMaySend(time);
    for (size_t a = 0; a < attachments_.size(); ++a) {
      bool last = (a + 1 == attachments_.size());
      RouteBatchIntoBuffers(attachments_[a], time, items, last);
    }
    items.clear();
    PublishIfInput();
  }

  /// Zero-copy send of a pre-routed batch: `items` is adopted as one
  /// bundle for `target` and replaced with an empty pooled buffer, so the
  /// caller's partitioning buffer cycles through the channel's pool. Only
  /// valid on single-attachment outputs whose contract delivers each of
  /// `items` to `target` (the caller's guarantee — e.g. a Route contract
  /// reading a target the caller just wrote).
  void SendBundle(const T& time, uint32_t target, std::vector<D>& items) {
    if (items.empty()) return;
    DebugCheckMaySend(time);
    MEGA_DCHECK(attachments_.size() == 1);
    Adopt(attachments_[0], target, time, items);
    PublishIfInput();
  }

  /// Stages every buffer and publishes (input handles, which have no
  /// operator step to do it for them).
  void Flush() {
    StageFlush(input_changes_);
    Publish();
  }

  bool StageFlush(std::vector<Change<T>>& changes) override {
    bool any = false;
    for (auto& att : attachments_) {
      for (uint32_t w = 0; w < peers_; ++w) {
        if (!att.buffers[w].data.empty()) {
          StageBuffer(att, w, changes);
          any = true;
        }
      }
    }
    return any;
  }

  bool CommitFlush() override {
    bool any = !staged_.empty();
    // Consecutive staged bundles for the same channel and target (e.g. a
    // partial buffer staged ahead of an adopted bundle) publish under one
    // lock via PushMany.
    size_t i = 0;
    while (i < staged_.size()) {
      size_t j = i + 1;
      while (j < staged_.size() && staged_[j].att_idx == staged_[i].att_idx &&
             staged_[j].target == staged_[i].target) {
        ++j;
      }
      Channel<D, T>* chan = attachments_[staged_[i].att_idx].chan.get();
      if (j - i == 1) {
        chan->Push(staged_[i].target, std::move(staged_[i].bundle));
      } else {
        commit_scratch_.clear();
        for (size_t k = i; k < j; ++k) {
          commit_scratch_.push_back(std::move(staged_[k].bundle));
        }
        chan->PushMany(staged_[i].target, commit_scratch_);
      }
      i = j;
    }
    staged_.clear();
    any |= DrainPending();
    return any;
  }

 private:
  struct Attachment {
    std::shared_ptr<Channel<D, T>> chan;
    Pact<D> pact;
    uint32_t dst_loc;
    std::vector<Bundle<D, T>> buffers;  // per target worker
  };

  // Maximum records per bundle. Since every step flushes its partial
  // buffers, this only caps bundles mid-step; larger bundles amortize
  // channel and tracker synchronization without a latency cost.
  static constexpr size_t kBatch = 4096;
  // Below this batch size the shuffle fast path's per-target bundles get
  // too small to amortize their bookkeeping; records append into the
  // accumulating buffers instead.
  static constexpr size_t kScatterMin = 512;

  void DebugCheckMaySend(const T& time);

  /// The change batch staged bundles count into: the operator step's, or
  /// the input handle's own.
  std::vector<Change<T>>& Changes() {
    return cap_ctx_ != nullptr ? cap_ctx_->step_changes() : input_changes_;
  }

  /// An input handle's send calls end here: count what they staged, then
  /// make it visible.
  void PublishIfInput() {
    if (cap_ctx_ == nullptr && !input_changes_.empty()) Publish();
  }

  void Publish() {
    ConsolidateChanges(input_changes_);
    if (!input_changes_.empty()) {
      tracker_->Apply(std::span<const Change<T>>(input_changes_.data(),
                                                 input_changes_.size()));
      input_changes_.clear();
    }
    CommitFlush();
  }

  void RouteIntoBuffers(Attachment& att, const T& time, D& item, bool may_move) {
    switch (att.pact.kind) {
      case Pact<D>::Kind::kPipeline:
        Append(att, worker_, time, item, may_move);
        break;
      case Pact<D>::Kind::kBroadcast:
        for (uint32_t w = 0; w < peers_; ++w) {
          Append(att, w, time, item, may_move && (w + 1 == peers_));
        }
        break;
      case Pact<D>::Kind::kPartition: {
        uint32_t w;
        att.pact.targets(&item, 1, peers_, &w);
        MEGA_DCHECK(w < peers_);
        Append(att, w, time, item, may_move);
        break;
      }
    }
  }

  /// Batch routing: one contract dispatch per call. Pipeline and
  /// Broadcast bulk-append; Partition computes all targets with a single
  /// type-erased call, then runs a dispatch-free per-record loop. Large
  /// batches are adopted zero-copy: whole (Pipeline) or one partition per
  /// target.
  void RouteBatchIntoBuffers(Attachment& att, const T& time,
                             std::vector<D>& items, bool may_move) {
    const bool adopt = may_move && items.size() >= kScatterMin;
    switch (att.pact.kind) {
      case Pact<D>::Kind::kPipeline:
        if (adopt) {
          Adopt(att, worker_, time, items);
        } else {
          AppendRange(att, worker_, time, items, may_move);
        }
        break;
      case Pact<D>::Kind::kBroadcast:
        for (uint32_t w = 0; w < peers_; ++w) {
          AppendRange(att, w, time, items, may_move && (w + 1 == peers_));
        }
        break;
      case Pact<D>::Kind::kPartition: {
        targets_scratch_.resize(items.size());
        att.pact.targets(items.data(), items.size(), peers_,
                         targets_scratch_.data());
        if (!adopt) {
          for (size_t i = 0; i < items.size(); ++i) {
            uint32_t w = targets_scratch_[i];
            MEGA_DCHECK(w < peers_);
            Append(att, w, time, items[i], may_move);
          }
          break;
        }
        // Partition into per-target pooled buffers in one branch-light
        // pass, then adopt each nonempty partition as a bundle.
        if (scatter_scratch_.size() < peers_) scatter_scratch_.resize(peers_);
        for (size_t i = 0; i < items.size(); ++i) {
          uint32_t w = targets_scratch_[i];
          MEGA_DCHECK(w < peers_);
          scatter_scratch_[w].push_back(std::move(items[i]));
        }
        for (uint32_t w = 0; w < peers_; ++w) {
          if (!scatter_scratch_[w].empty()) {
            Adopt(att, w, time, scatter_scratch_[w]);
          }
        }
        break;
      }
    }
  }

  /// Zero-copy: `items` becomes one bundle for `target` and is replaced
  /// with a pooled buffer. Records buffered earlier for `target` are
  /// staged first, so they stay ahead in FIFO order.
  void Adopt(Attachment& att, uint32_t target, const T& time,
             std::vector<D>& items) {
    auto& changes = Changes();
    if (!att.buffers[target].data.empty()) StageBuffer(att, target, changes);
    Stage(att, target, Bundle<D, T>{time, std::move(items)}, changes);
    items = att.chan->AcquireBuffer(worker_);
  }

  void Append(Attachment& att, uint32_t target, const T& time, D& item,
              bool may_move) {
    auto& buf = att.buffers[target];
    if (!buf.data.empty() && !(buf.time == time)) {
      StageBuffer(att, target, Changes());
    }
    if (buf.data.empty()) {
      buf.time = time;
      if (buf.data.capacity() == 0) buf.data = att.chan->AcquireBuffer(worker_);
    }
    if (may_move) {
      buf.data.push_back(std::move(item));
    } else {
      buf.data.push_back(item);
    }
    if (buf.data.size() >= kBatch) StageBuffer(att, target, Changes());
  }

  /// Bulk append of a whole batch to one target, staging at bundle
  /// boundaries. Insertion is ranged, so trivially copyable records
  /// memcpy instead of pushing one at a time.
  void AppendRange(Attachment& att, uint32_t target, const T& time,
                   std::vector<D>& items, bool may_move) {
    auto& buf = att.buffers[target];
    if (!buf.data.empty() && !(buf.time == time)) {
      StageBuffer(att, target, Changes());
    }
    size_t i = 0;
    const size_t n = items.size();
    while (i < n) {
      if (buf.data.empty()) {
        buf.time = time;
        if (buf.data.capacity() == 0) buf.data = att.chan->AcquireBuffer(worker_);
      }
      size_t room = buf.data.size() < kBatch ? kBatch - buf.data.size() : 0;
      size_t take = std::min(room, n - i);
      if (may_move) {
        buf.data.insert(buf.data.end(),
                        std::make_move_iterator(items.begin() + i),
                        std::make_move_iterator(items.begin() + i + take));
      } else {
        buf.data.insert(buf.data.end(), items.begin() + i,
                        items.begin() + i + take);
      }
      i += take;
      if (buf.data.size() >= kBatch) StageBuffer(att, target, Changes());
    }
  }

  void StageBuffer(Attachment& att, uint32_t target,
                   std::vector<Change<T>>& changes) {
    auto& buf = att.buffers[target];
    Stage(att, target, Bundle<D, T>{buf.time, std::move(buf.data)}, changes);
    buf.data.clear();
  }

  /// The one way a bundle leaves: its produced count goes into `changes`
  /// (applied before the bundle becomes visible), the bundle into the
  /// staging area — or the throttle queue, which CommitFlush drains as
  /// the token bucket admits.
  void Stage(Attachment& att, uint32_t target, Bundle<D, T>&& bundle,
             std::vector<Change<T>>& changes) {
    changes.push_back(Change<T>{att.dst_loc, bundle.time,
                                static_cast<int64_t>(bundle.data.size())});
    size_t att_idx = static_cast<size_t>(&att - attachments_.data());
    if (!throttle_) {
      staged_.push_back(StagedBundle{att_idx, target, std::move(bundle)});
      return;
    }
    size_t bytes = 0;
    for (const auto& d : bundle.data) bytes += size_of_(d);
    pending_.push_back(PendingBundle{att_idx, target, bytes,
                                     std::move(bundle)});
  }

  bool DrainPending() {
    if (!throttle_) return false;
    bool any = false;
    uint64_t now = megaphone::NowNanos();
    while (!pending_.empty() &&
           throttle_->Admit(pending_.front().bytes, now)) {
      auto& p = pending_.front();
      attachments_[p.att_idx].chan->Push(p.target, std::move(p.bundle));
      pending_.pop_front();
      any = true;
    }
    return any;
  }

  struct StagedBundle {
    size_t att_idx;
    uint32_t target;
    Bundle<D, T> bundle;
  };

  struct PendingBundle {
    size_t att_idx;
    uint32_t target;
    size_t bytes;
    Bundle<D, T> bundle;
  };

  ProgressTracker<T>* tracker_;
  uint32_t worker_;
  uint32_t peers_;
  OpCtx<T>* cap_ctx_;  // nullable (input handles have no operator context)
  std::vector<Attachment> attachments_;
  std::vector<uint32_t> targets_scratch_;
  std::vector<std::vector<D>> scatter_scratch_;  // per target worker
  std::vector<StagedBundle> staged_;
  std::deque<Bundle<D, T>> commit_scratch_;
  std::vector<Change<T>> input_changes_;  // an input handle's staged counts
  std::optional<megaphone::ByteThrottle> throttle_;
  std::function<size_t(const D&)> size_of_;
  std::deque<PendingBundle> pending_;
};

/// Typed input port handle: drains queued bundles and exposes the port's
/// frontier.
template <typename D, typename T>
class InputHandle {
 public:
  InputHandle(std::shared_ptr<Channel<D, T>> chan, uint32_t loc,
              int32_t port_idx, DataflowInstance<T>* df, OpCtx<T>* ctx)
      : chan_(std::move(chan)),
        loc_(loc),
        port_idx_(port_idx),
        df_(df),
        ctx_(ctx) {}

  /// Calls `f(time, data)` for every queued bundle, recording consumption.
  /// The whole queue is drained with one lock acquisition; `data` may be
  /// consumed destructively, and buffers left behind are recycled into the
  /// channel's pool. Returns true if any bundle was delivered.
  template <typename F>
  bool ForEach(F f) {
    if (chan_->PullAll(df_->worker_index(), drained_) == 0) return false;
    for (auto& bundle : drained_) {
      ctx_->RecordConsumed(loc_, bundle.time,
                           static_cast<int64_t>(bundle.data.size()));
      f(bundle.time, bundle.data);
      chan_->RecycleBuffer(std::move(bundle.data), df_->worker_index());
    }
    drained_.clear();
    return true;
  }

  /// The frontier of this input: timestamps that may still arrive here.
  const Antichain<T>& frontier() const {
    return df_->FrontierOfPort(port_idx_);
  }

  uint32_t loc() const { return loc_; }

 private:
  std::shared_ptr<Channel<D, T>> chan_;
  uint32_t loc_;
  int32_t port_idx_;
  DataflowInstance<T>* df_;
  OpCtx<T>* ctx_;
  std::deque<Bundle<D, T>> drained_;
};

/// Per-node operator context: capability accounting and the end-of-step
/// progress batch.
template <typename T>
class OpCtx {
 public:
  OpCtx(DataflowInstance<T>* df, std::string name)
      : df_(df), name_(std::move(name)) {}

  uint32_t worker() const { return df_->worker_index(); }
  uint32_t peers() const { return df_->peers(); }
  const std::string& name() const { return name_; }

  /// Retains an explicit capability at `t` on every output of this node.
  /// Legal if `t` is in advance of a held capability or of a message time
  /// consumed this step.
  void Retain(const T& t) {
    MEGA_DCHECK(MaySend(t)) << "Retain at non-capable time in " << name_;
    caps_[t]++;
    for (uint32_t loc : output_locs_) {
      end_changes_.push_back(Change<T>{loc, t, +1});
    }
  }

  /// Releases one previously retained capability at `t`.
  void Release(const T& t) {
    auto it = caps_.find(t);
    MEGA_CHECK(it != caps_.end() && it->second > 0)
        << "Release without capability in " << name_;
    if (--it->second == 0) caps_.erase(it);
    for (uint32_t loc : output_locs_) {
      end_changes_.push_back(Change<T>{loc, t, -1});
    }
  }

  bool HasCap(const T& t) const { return caps_.count(t) > 0; }
  const std::map<T, int64_t>& caps() const { return caps_; }
  const std::vector<uint32_t>& output_locs() const { return output_locs_; }

  /// True if the node may currently produce output at time `t`.
  bool MaySend(const T& t) const {
    for (const auto& [ct, n] : caps_) {
      if (n > 0 && TimestampTraits<T>::LessEqual(ct, t)) return true;
    }
    for (const auto& st : step_times_) {
      if (TimestampTraits<T>::LessEqual(st, t)) return true;
    }
    return false;
  }

  // --- engine internals -----------------------------------------------

  void RecordConsumed(uint32_t loc, const T& time, int64_t count) {
    if (step_times_.empty() || !(step_times_.back() == time)) {
      step_times_.push_back(time);
    }
    end_changes_.push_back(Change<T>{loc, time, -count});
    consumed_any_ = true;
  }

  /// Registers that a message at `time` was received this step without a
  /// count change — used for same-worker handoffs whose produced and
  /// consumed deltas cancel within the step. Grants the same capability
  /// basis as RecordConsumed (the right to send and retain at ≥ time).
  void NoteInputTime(const T& time) {
    if (step_times_.empty() || !(step_times_.back() == time)) {
      step_times_.push_back(time);
    }
    consumed_any_ = true;
  }

  void AddOutputLoc(uint32_t loc) { output_locs_.push_back(loc); }
  DataflowInstance<T>* df() { return df_; }

  void BeginStep() {
    consumed_any_ = false;
  }

  /// The step's accumulated change batch; output handles stage their
  /// produced counts into it, and EndStepInto hands the whole batch to
  /// the dataflow step for one consolidated Apply.
  std::vector<Change<T>>& step_changes() { return end_changes_; }

  /// Hands the step's progress batch — consumed counts, capability
  /// changes, and staged produced counts — to `out` (the dataflow's
  /// per-step batch, applied once for all nodes). Returns whether the
  /// step did work.
  bool EndStepInto(std::vector<Change<T>>& out) {
    bool active = consumed_any_ || !end_changes_.empty();
    if (!end_changes_.empty()) {
      out.insert(out.end(), end_changes_.begin(), end_changes_.end());
      end_changes_.clear();
    }
    step_times_.clear();
    consumed_any_ = false;
    return active;
  }

 private:
  DataflowInstance<T>* df_;
  std::string name_;
  std::vector<uint32_t> output_locs_;
  std::map<T, int64_t> caps_;
  std::vector<T> step_times_;
  std::vector<Change<T>> end_changes_;
  bool consumed_any_ = false;
};

template <typename D, typename T>
void OutputHandle<D, T>::DebugCheckMaySend(const T& time) {
  MEGA_DCHECK(cap_ctx_ == nullptr || cap_ctx_->MaySend(time))
      << "Send at non-capable time";
  (void)time;
}

/// The generic operator node: runs user logic, stages its outputs and
/// progress changes into the dataflow step's batch (applied once for all
/// nodes), then CommitStep publishes the staged bundles (the safety
/// order: counts first).
template <typename T>
class OperatorNode final : public NodeBase<T> {
 public:
  OperatorNode(DataflowInstance<T>* df, std::string name)
      : ctx_(df, std::move(name)) {}

  bool Schedule(DataflowInstance<T>& df) override {
    ctx_.BeginStep();
    if (logic_) logic_(ctx_);
    bool active = false;
    for (auto* f : flushables_) active |= f->StageFlush(ctx_.step_changes());
    active |= ctx_.EndStepInto(df.step_changes());
    return active;
  }

  bool CommitStep() override {
    bool any = false;
    for (auto* f : flushables_) any |= f->CommitFlush();
    return any;
  }

  OpCtx<T>& ctx() { return ctx_; }
  void set_logic(std::function<void(OpCtx<T>&)> logic) {
    logic_ = std::move(logic);
  }
  void AddFlushable(StepFlushable<T>* f) { flushables_.push_back(f); }
  void Own(std::shared_ptr<void> p) { owned_.push_back(std::move(p)); }

 private:
  OpCtx<T> ctx_;
  std::function<void(OpCtx<T>&)> logic_;
  std::vector<StepFlushable<T>*> flushables_;
  std::vector<std::shared_ptr<void>> owned_;
};

/// Declarative construction of one operator node.
///
///   OperatorBuilder<uint64_t> b(scope, "WordCount");
///   auto* in = b.AddInput(words, Pact<Word>::Exchange(hash));
///   auto [out, stream] = b.AddOutput<Count>();
///   b.Build([=](OpCtx<uint64_t>& ctx) { ... in->ForEach(...) ... });
template <typename T>
class OperatorBuilder {
 public:
  OperatorBuilder(Scope<T>& scope, std::string name) : scope_(&scope) {
    node_id_ = scope_->ReserveNode(name);
    node_ = std::make_unique<OperatorNode<T>>(scope_->df(), std::move(name));
  }

  /// Declares a typed input fed from `stream` under contract `pact`. All
  /// inputs must be declared before any output.
  template <typename D>
  InputHandle<D, T>* AddInput(Stream<D, T> stream, Pact<D> pact) {
    MEGA_CHECK(stream.valid());
    auto [loc, port_idx] = scope_->AddInputPort(node_id_);
    scope_->AddEdge(stream.loc(), loc);
    auto chan =
        scope_->template GetChannel<Channel<D, T>>();
    stream.output()->Attach(chan, std::move(pact), loc);
    auto handle = std::make_shared<InputHandle<D, T>>(
        std::move(chan), loc, port_idx, scope_->df(), &node_->ctx());
    auto* raw = handle.get();
    node_->Own(std::move(handle));
    return raw;
  }

  /// Declares a typed output; returns the handle (for the logic closure)
  /// and the stream (for downstream consumers).
  template <typename D>
  std::pair<OutputHandle<D, T>*, Stream<D, T>> AddOutput() {
    uint32_t loc = scope_->AddOutputPort(node_id_);
    node_->ctx().AddOutputLoc(loc);
    auto handle = std::make_shared<OutputHandle<D, T>>(
        &scope_->df()->tracker(), scope_->worker(), scope_->peers(),
        &node_->ctx());
    auto* raw = handle.get();
    node_->AddFlushable(raw);
    node_->Own(std::move(handle));
    return {raw, Stream<D, T>(scope_, raw, loc)};
  }

  /// Finalizes the node with its logic closure and installs it.
  void Build(std::function<void(OpCtx<T>&)> logic) {
    if (node_->ctx().output_locs().empty()) {
      // Output-less nodes (sinks) still need their retained capabilities
      // visible to the progress tracker, or the dataflow could be declared
      // complete while a notification is pending. A phantom output port
      // that feeds no channel counts capabilities without affecting any
      // frontier.
      uint32_t loc = scope_->AddOutputPort(node_id_);
      node_->ctx().AddOutputLoc(loc);
    }
    node_->set_logic(std::move(logic));
    scope_->df()->AddNode(std::move(node_));
  }

 private:
  Scope<T>* scope_;
  uint32_t node_id_;
  std::unique_ptr<OperatorNode<T>> node_;
};

}  // namespace timely
