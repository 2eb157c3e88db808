// Workers, dataflow instances, and the construction scope.
//
// A Worker is one thread executing every operator of every dataflow it has
// built (Figure 2 of the paper: all operators are multiplexed on all
// workers, data is partitioned). Every worker runs the same user closure
// and must build the same dataflows in the same order; deterministic node
// and channel id assignment during construction is what lets workers agree
// on the graph without further coordination.
#pragma once

#include <barrier>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "timely/antichain.hpp"
#include "timely/channel.hpp"
#include "timely/node.hpp"
#include "timely/progress.hpp"
#include "timely/remote.hpp"

namespace timely {

/// Maps a 64-bit id to a shared object whose type the first caller fixes.
/// Every worker builds the same dataflows in the same order and so asks
/// for the same ids; the first to ask creates the object, once, under the
/// registry's lock.
class SharedRegistry {
 public:
  /// Returns the object under `id`, creating it with `make()` (run under
  /// the lock) if absent. `created` (optional) reports whether this call
  /// created it.
  template <typename C, typename Make>
  std::shared_ptr<C> GetOrCreate(uint64_t id, Make make,
                                 bool* created = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = entries_.try_emplace(id, typeid(C), nullptr);
    if (fresh) it->second.ptr = make();
    MEGA_CHECK(it->second.type == std::type_index(typeid(C)))
        << "shared object type mismatch between workers (id " << id << ")";
    if (created != nullptr) *created = fresh;
    return std::static_pointer_cast<C>(it->second.ptr);
  }

 private:
  struct Entry {
    std::type_index type;
    std::shared_ptr<void> ptr;
  };
  std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
};

/// State shared by all workers of one runtime — in a multi-process run,
/// by the workers of *this* process. `workers` is the global worker count
/// across every process; this process's worker threads carry the global
/// indices [local_begin, local_begin + local_workers).
struct RuntimeShared {
  explicit RuntimeShared(uint32_t w) : RuntimeShared(w, 0, w, nullptr) {}
  RuntimeShared(uint32_t total, uint32_t begin, uint32_t local,
                NetRuntime* n)
      : workers(total),
        local_begin(begin),
        local_workers(local),
        net(n),
        build_barrier(local) {}

  uint32_t workers;        // global worker count (all processes)
  uint32_t local_begin;    // first global worker index of this process
  uint32_t local_workers;  // worker threads in this process
  NetRuntime* net;         // null in single-process runs
  SharedRegistry channels;   // by (dataflow id << 32) | channel id
  SharedRegistry dataflows;  // DataflowShared<T>, by dataflow id
  std::barrier<> build_barrier;
};

/// Per-dataflow state shared by all workers (one progress tracker — in a
/// multi-process run, this process's replica of the global counts).
template <typename T>
struct DataflowShared {
  ProgressTracker<T> tracker;
};

/// Connects one dataflow's tracker replica to the mesh: locally
/// originated batches are encoded and broadcast to every peer process,
/// and incoming progress frames decode into ApplyUnbroadcast (no echo).
/// Called exactly once per dataflow, by the worker whose
/// `dataflows.GetOrCreate` call created the shared state, before it
/// reaches the build barrier — so before any worker steps and applies
/// (and broadcasts) its first changes.
template <typename T>
inline void WireDistributedProgress(
    NetRuntime* net, uint64_t df_id,
    const std::shared_ptr<DataflowShared<T>>& shared) {
  net->RegisterProgressHandler(df_id, [shared](megaphone::Reader& r) {
    // The wire format is exactly Serde<vector<Change<T>>> (count prefix,
    // field-wise elements), whose decode bounds-checks the count and
    // clamps the speculative reserve.
    auto changes = megaphone::Decode<std::vector<Change<T>>>(r);
    shared->tracker.ApplyUnbroadcast(
        std::span<const Change<T>>(changes.data(), changes.size()));
  });
  shared->tracker.SetBroadcast(
      [net, df_id](std::span<const Change<T>> changes) {
        megaphone::Writer w;
        megaphone::Encode(w, static_cast<uint64_t>(changes.size()));
        for (const auto& c : changes) megaphone::Encode(w, c);
        net->BroadcastProgress(df_id, w.Take());
      });
}

class DataflowInstanceBase {
 public:
  virtual ~DataflowInstanceBase() = default;
  virtual bool Step() = 0;
  virtual bool Complete() const = 0;
};

/// One worker's instance of a dataflow: its local operator nodes plus a
/// cached snapshot of all input-port frontiers.
template <typename T>
class DataflowInstance final : public DataflowInstanceBase {
 public:
  DataflowInstance(uint64_t id, uint32_t worker, uint32_t peers,
                   std::shared_ptr<DataflowShared<T>> shared,
                   RuntimeShared* runtime)
      : id_(id),
        worker_(worker),
        peers_(peers),
        shared_(std::move(shared)),
        runtime_(runtime) {}

  bool Step() override {
    RefreshFrontiers();
    bool active = false;
    for (auto& node : nodes_) active |= node->Schedule(*this);
    // One consolidated tracker transaction for the whole step: every
    // node's consumed counts, capability changes, and staged produced
    // counts. Changes from a producer and its same-worker consumer at the
    // same (location, time) net to zero here and never touch the tracker.
    if (!step_changes_.empty()) {
      ConsolidateChanges(step_changes_);
      if (!step_changes_.empty()) {
        shared_->tracker.Apply(std::span<const Change<T>>(
            step_changes_.data(), step_changes_.size()));
      }
      step_changes_.clear();
    }
    for (auto& node : nodes_) active |= node->CommitStep();
    return active;
  }

  /// The step's accumulated progress batch; nodes append during Schedule.
  std::vector<Change<T>>& step_changes() { return step_changes_; }

  bool Complete() const override { return shared_->tracker.Complete(); }

  /// Frontier of the dense input-port index `idx`, as of the last refresh.
  const Antichain<T>& FrontierOfPort(int32_t idx) const {
    MEGA_CHECK_GE(idx, 0);
    MEGA_CHECK_LT(static_cast<size_t>(idx), frontiers_.size());
    return frontiers_[static_cast<size_t>(idx)];
  }

  void RefreshFrontiers() {
    uint64_t v = shared_->tracker.version();
    if (v != seen_version_) {
      seen_version_ = shared_->tracker.SnapshotFrontiers(frontiers_);
    }
  }

  ProgressTracker<T>& tracker() { return shared_->tracker; }
  std::shared_ptr<DataflowShared<T>> shared() { return shared_; }
  uint64_t id() const { return id_; }
  uint32_t worker_index() const { return worker_; }
  uint32_t peers() const { return peers_; }
  RuntimeShared* runtime() { return runtime_; }

  void AddNode(std::unique_ptr<NodeBase<T>> node) {
    nodes_.push_back(std::move(node));
  }
  void KeepAlive(std::shared_ptr<void> p) {
    keepalive_.push_back(std::move(p));
  }

 private:
  uint64_t id_;
  uint32_t worker_;
  uint32_t peers_;
  std::shared_ptr<DataflowShared<T>> shared_;
  RuntimeShared* runtime_;
  std::vector<std::unique_ptr<NodeBase<T>>> nodes_;
  std::vector<std::shared_ptr<void>> keepalive_;
  uint64_t seen_version_ = ~uint64_t{0};
  std::vector<Antichain<T>> frontiers_;
  std::vector<Change<T>> step_changes_;
};

/// Handed to the dataflow-construction closure; assigns node, port, and
/// channel ids deterministically and records the graph structure.
template <typename T>
class Scope {
 public:
  using Timestamp = T;

  Scope(DataflowInstance<T>* df, GraphSpec* spec)
      : df_(df), spec_(spec) {}

  uint32_t worker() const { return df_->worker_index(); }
  uint32_t peers() const { return df_->peers(); }
  DataflowInstance<T>* df() { return df_; }
  GraphSpec* spec() { return spec_; }

  uint32_t ReserveNode(std::string name) {
    return spec_->AddNode(std::move(name));
  }
  /// Adds an input port; returns {location, dense port index}.
  std::pair<uint32_t, int32_t> AddInputPort(uint32_t node) {
    uint32_t loc = spec_->AddInputPort(node);
    return {loc, input_port_counter_++};
  }
  uint32_t AddOutputPort(uint32_t node) {
    return spec_->AddOutputPort(node);
  }
  void AddEdge(uint32_t src_loc, uint32_t dst_loc) {
    spec_->AddEdge(src_loc, dst_loc);
  }

  template <typename C>
  std::shared_ptr<C> GetChannel() {
    uint64_t cid = channel_counter_++;
    const uint64_t df_id = df_->id();
    NetRuntime* net = df_->runtime()->net;
    const uint32_t workers = peers();
    // The creating worker attaches the mesh and registers the channel's
    // wire decoder, inside the creating call.
    return df_->runtime()->channels.template GetOrCreate<C>(
        (df_id << 32) | cid, [df_id, cid, net, workers] {
          auto ch = std::make_shared<C>(workers);
          if (net != nullptr) {
            ch->EnableRemote(net, df_id, cid);
            net->RegisterDataHandler(
                df_id, cid, [ch](uint32_t target, megaphone::Reader& r) {
                  ch->DecodeAndPush(target, r);
                });
          }
          return ch;
        });
  }

  /// Registers initial capability changes applied after the tracker is
  /// finalized (used by input handles for their initial epoch capability).
  void AddInitialChange(uint32_t loc, const T& time, int64_t delta) {
    initial_changes_.push_back(Change<T>{loc, time, delta});
  }
  const std::vector<Change<T>>& initial_changes() const {
    return initial_changes_;
  }

 private:
  DataflowInstance<T>* df_;
  GraphSpec* spec_;
  uint64_t channel_counter_ = 0;
  int32_t input_port_counter_ = 0;
  std::vector<Change<T>> initial_changes_;
};

/// One worker thread's interface: build dataflows, then step them.
class Worker {
 public:
  Worker(uint32_t index, std::shared_ptr<RuntimeShared> runtime)
      : index_(index), runtime_(std::move(runtime)) {}

  uint32_t index() const { return index_; }
  uint32_t peers() const { return runtime_->workers; }
  /// First global worker index hosted by this process.
  uint32_t local_begin() const { return runtime_->local_begin; }
  /// Worker threads in this process.
  uint32_t local_workers() const { return runtime_->local_workers; }
  /// True for the first worker of this process — the one that owns
  /// per-process measurement state in the bench harness.
  bool IsLocalRoot() const { return index_ == runtime_->local_begin; }

  /// Builds a dataflow with timestamp type T. Every worker must call
  /// Dataflow the same number of times with structurally identical builds;
  /// this call blocks on a barrier until all workers finish building.
  /// Returns whatever the build closure returns (handles, probes, ...).
  template <typename T, typename BuildFn>
  decltype(auto) Dataflow(BuildFn&& build) {
    uint64_t df_id = next_dataflow_id_++;
    bool created = false;
    auto shared = runtime_->dataflows.GetOrCreate<DataflowShared<T>>(
        df_id, [] { return std::make_shared<DataflowShared<T>>(); },
        &created);
    if (created && runtime_->net != nullptr) {
      WireDistributedProgress<T>(runtime_->net, df_id, shared);
    }
    auto inst = std::make_unique<DataflowInstance<T>>(
        df_id, index_, peers(), shared, runtime_.get());
    GraphSpec spec;
    Scope<T> scope(inst.get(), &spec);

    if constexpr (std::is_void_v<decltype(build(scope))>) {
      build(scope);
      FinishBuild(scope, spec, *shared);
      dataflows_.push_back(std::move(inst));
      runtime_->build_barrier.arrive_and_wait();
      return;
    } else {
      decltype(auto) result = build(scope);
      FinishBuild(scope, spec, *shared);
      dataflows_.push_back(std::move(inst));
      runtime_->build_barrier.arrive_and_wait();
      return result;
    }
  }

  /// Schedules every node of every dataflow once. Returns true if any node
  /// did work.
  bool Step() {
    bool active = false;
    for (auto& df : dataflows_) active |= df->Step();
    return active;
  }

  /// Steps until `pred()` becomes true, with idle backoff. In a
  /// multi-process run, a dead peer means the predicate may never turn
  /// true (its progress counts are gone), so the loop polls the mesh
  /// health flag and raises PeerDownError — a clean, reported abort
  /// instead of a silent spin. The predicate is checked first: if the
  /// goal was already reached, a concurrently detected failure does not
  /// retract it.
  template <typename Pred>
  void StepUntil(Pred pred) {
    uint32_t idle = 0;
    while (!pred()) {
      if (runtime_->net != nullptr && runtime_->net->PeerFailed()) {
        throw PeerDownError(runtime_->net->FailureReason());
      }
      if (Step()) {
        idle = 0;
      } else {
        Backoff(++idle);
      }
    }
  }

  /// Steps until every dataflow has completed (all counts drained).
  void StepUntilComplete() {
    StepUntil([&] {
      for (auto& df : dataflows_) {
        if (!df->Complete()) return false;
      }
      return true;
    });
  }

 private:
  template <typename T>
  void FinishBuild(Scope<T>& scope, GraphSpec& spec,
                   DataflowShared<T>& shared) {
    shared.tracker.Finalize(spec);
    const auto& init = scope.initial_changes();
    if (init.empty()) return;
    // Initial capabilities are statically known (every worker builds the
    // same dataflow and registers the same changes), so they are never
    // broadcast: each worker applies its own share locally, and in a
    // multi-process run the first local worker additionally applies the
    // remote workers' shares — every process's tracker replica starts
    // with the full W-worker initial state, with no startup race against
    // in-flight progress frames.
    shared.tracker.ApplyUnbroadcast(
        std::span<const Change<T>>(init.data(), init.size()));
    uint32_t remote = runtime_->workers - runtime_->local_workers;
    if (remote > 0 && index_ == runtime_->local_begin) {
      std::vector<Change<T>> scaled(init.begin(), init.end());
      for (auto& c : scaled) c.delta *= static_cast<int64_t>(remote);
      shared.tracker.ApplyUnbroadcast(
          std::span<const Change<T>>(scaled.data(), scaled.size()));
    }
  }

  static void Backoff(uint32_t idle) {
    if (idle < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  uint32_t index_;
  std::shared_ptr<RuntimeShared> runtime_;
  std::vector<std::unique_ptr<DataflowInstanceBase>> dataflows_;
  uint64_t next_dataflow_id_ = 0;
};

}  // namespace timely
