// Progress tracking: pointstamp counts, reachability, and frontiers.
//
// Timely dataflow coordination rests on a single piece of shared knowledge:
// for every (location, timestamp) pair, how many messages or capabilities
// are still outstanding. From these counts and the dataflow graph's
// reachability relation, each input port's frontier (paper Definition 1) is
// derived: the antichain of timestamps that may still arrive there.
//
// The original system broadcasts count deltas between workers; since this
// reproduction runs workers as threads of one process, the tracker is a
// shared structure with a short-critical-section mutex. The safety protocol
// is the standard one:
//   * a producer applies its `produced` increment BEFORE a message becomes
//     visible in a channel queue,
//   * a consumer applies its `consumed` decrement and any capability
//     changes in one atomic batch at the end of an operator scheduling
//     step, after flushing everything the step produced.
// Under this discipline counts never go transiently negative and frontiers
// never advance past live work.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "timely/antichain.hpp"
#include "timely/timestamp.hpp"

namespace timely {

/// A single pointstamp count delta at a graph location. Field-wise serde
/// (rather than the trivially-copyable memcpy fallback) keeps the wire
/// format free of struct padding, so progress frames are well-defined
/// bytes across processes.
template <typename T>
struct Change {
  uint32_t loc;
  T time;
  int64_t delta;

  void Serialize(megaphone::Writer& w) const
    requires megaphone::Serializable<T>
  {
    megaphone::Encode(w, loc);
    megaphone::Encode(w, time);
    megaphone::Encode(w, delta);
  }
  static Change Deserialize(megaphone::Reader& r)
    requires megaphone::Serializable<T>
  {
    Change c;
    c.loc = megaphone::Decode<uint32_t>(r);
    c.time = megaphone::Decode<T>(r);
    c.delta = megaphone::Decode<int64_t>(r);
    return c;
  }
};

/// Consolidates a change batch in place: deltas at the same (location,
/// time) are summed and entries netting to zero are dropped, so one
/// tracker acquisition applies the whole batch — or none at all when a
/// step's changes cancel out. Sound because Apply is atomic: counts are
/// only ever observed after the entire batch, where order and transient
/// zero-sum pairs are unobservable. Uses the timestamp's total tie-break
/// `operator<` (the same order std::map keys rely on throughout).
template <typename T>
void ConsolidateChanges(std::vector<Change<T>>& changes) {
  if (changes.size() == 1) {
    if (changes[0].delta == 0) changes.clear();
    return;
  }
  if (changes.empty()) return;
  std::sort(changes.begin(), changes.end(),
            [](const Change<T>& a, const Change<T>& b) {
              if (a.loc != b.loc) return a.loc < b.loc;
              return a.time < b.time;
            });
  size_t out = 0;
  for (size_t i = 0; i < changes.size();) {
    int64_t sum = 0;
    size_t j = i;
    while (j < changes.size() && changes[j].loc == changes[i].loc &&
           changes[j].time == changes[i].time) {
      sum += changes[j].delta;
      ++j;
    }
    if (sum != 0) {
      changes[out] = changes[i];
      changes[out].delta = sum;
      ++out;
    }
    i = j;
  }
  changes.resize(out);
}

/// Structural description of a dataflow graph, built identically by every
/// worker during dataflow construction.
///
/// Locations are dense ids: node `i`'s input port `j` is at
/// `node_base[i] + j`, and its output port `j` at
/// `node_base[i] + inputs_i + j`. Ports must be added inputs-first and one
/// node at a time so bases never shift.
class GraphSpec {
 public:
  struct NodeSpec {
    std::string name;
    uint32_t inputs = 0;
    uint32_t outputs = 0;
    bool sealed = false;
  };

  /// Starts a new node; the previous node (if any) is sealed.
  uint32_t AddNode(std::string name) {
    if (!nodes_.empty()) nodes_.back().sealed = true;
    nodes_.push_back(NodeSpec{std::move(name), 0, 0, false});
    node_base_.push_back(next_loc_);
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  /// Adds an input port to the (latest) node; returns its location.
  uint32_t AddInputPort(uint32_t node) {
    MEGA_CHECK_EQ(node, nodes_.size() - 1) << "ports on latest node only";
    MEGA_CHECK(!nodes_[node].sealed);
    MEGA_CHECK_EQ(nodes_[node].outputs, 0u)
        << "all inputs must be added before any output";
    uint32_t loc = node_base_[node] + nodes_[node].inputs;
    nodes_[node].inputs++;
    next_loc_++;
    loc_is_input_.push_back(1);
    return loc;
  }

  /// Adds an output port to the (latest) node; returns its location.
  uint32_t AddOutputPort(uint32_t node) {
    MEGA_CHECK_EQ(node, nodes_.size() - 1) << "ports on latest node only";
    MEGA_CHECK(!nodes_[node].sealed);
    uint32_t loc = node_base_[node] + nodes_[node].inputs +
                   nodes_[node].outputs;
    nodes_[node].outputs++;
    next_loc_++;
    loc_is_input_.push_back(0);
    return loc;
  }

  /// Records a channel edge from an output-port location to an input-port
  /// location.
  void AddEdge(uint32_t src_loc, uint32_t dst_loc) {
    edges_.emplace_back(src_loc, dst_loc);
  }

  uint32_t num_locations() const { return next_loc_; }
  const std::vector<NodeSpec>& nodes() const { return nodes_; }
  const std::vector<uint32_t>& node_base() const { return node_base_; }
  const std::vector<std::pair<uint32_t, uint32_t>>& edges() const {
    return edges_;
  }

  /// True if `loc` is an input port of some node. O(1): the kind table is
  /// maintained as ports are added (locations are dense and append-only).
  bool IsInputLoc(uint32_t loc) const {
    return loc < loc_is_input_.size() && loc_is_input_[loc] != 0;
  }

 private:
  std::vector<NodeSpec> nodes_;
  std::vector<uint32_t> node_base_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
  std::vector<uint8_t> loc_is_input_;  // per-location kind table
  uint32_t next_loc_ = 0;
};

/// Shared pointstamp accounting and frontier computation for one dataflow.
template <typename T>
class ProgressTracker {
 public:
  /// Installs the graph. The first caller wins; later callers must present
  /// a structurally identical spec (all workers build the same dataflow).
  void Finalize(const GraphSpec& spec) {
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_) {
      MEGA_CHECK_EQ(spec.num_locations(), num_locs_)
          << "workers built structurally different dataflows";
      return;
    }
    num_locs_ = spec.num_locations();
    counts_.resize(num_locs_);
    loc_frontier_.resize(num_locs_);
    port_index_of_loc_.assign(num_locs_, -1);

    // Adjacency: internal edges input->outputs plus channel edges.
    std::vector<std::vector<uint32_t>> adj(num_locs_);
    const auto& nodes = spec.nodes();
    const auto& base = spec.node_base();
    for (size_t n = 0; n < nodes.size(); ++n) {
      for (uint32_t i = 0; i < nodes[n].inputs; ++i) {
        for (uint32_t o = 0; o < nodes[n].outputs; ++o) {
          adj[base[n] + i].push_back(base[n] + nodes[n].inputs + o);
        }
      }
    }
    for (const auto& [src, dst] : spec.edges()) {
      MEGA_CHECK_LT(src, num_locs_);
      MEGA_CHECK_LT(dst, num_locs_);
      adj[src].push_back(dst);
    }
    CheckAcyclic(adj);

    // Dense indices for input-port locations.
    for (size_t n = 0; n < nodes.size(); ++n) {
      for (uint32_t i = 0; i < nodes[n].inputs; ++i) {
        uint32_t loc = base[n] + i;
        port_index_of_loc_[loc] =
            static_cast<int32_t>(input_port_locs_.size());
        input_port_locs_.push_back(loc);
      }
    }
    port_frontier_.resize(input_port_locs_.size());

    // Reverse reachability: for each input port, all locations that can
    // reach it (reflexively), i.e. whose pointstamps constrain its frontier.
    std::vector<std::vector<uint32_t>> radj(num_locs_);
    for (uint32_t u = 0; u < num_locs_; ++u)
      for (uint32_t v : adj[u]) radj[v].push_back(u);
    reaching_.resize(input_port_locs_.size());
    affects_.resize(num_locs_);
    for (size_t p = 0; p < input_port_locs_.size(); ++p) {
      std::vector<bool> seen(num_locs_, false);
      std::vector<uint32_t> stack{input_port_locs_[p]};
      seen[input_port_locs_[p]] = true;
      while (!stack.empty()) {
        uint32_t u = stack.back();
        stack.pop_back();
        reaching_[p].push_back(u);
        affects_[u].push_back(static_cast<uint32_t>(p));
        for (uint32_t v : radj[u]) {
          if (!seen[v]) {
            seen[v] = true;
            stack.push_back(v);
          }
        }
      }
    }
    finalized_ = true;
    // Remote progress batches that raced ahead of our own finalize were
    // stashed by ApplyUnbroadcast; merge them now that the graph exists.
    if (!pre_finalize_remote_.empty()) {
      std::vector<Change<T>> stashed = std::move(pre_finalize_remote_);
      pre_finalize_remote_.clear();
      ApplyLocked(std::span<const Change<T>>(stashed.data(), stashed.size()));
    }
  }

  bool finalized() const {
    std::lock_guard<std::mutex> lock(mu_);
    return finalized_;
  }

  /// Installs the hook that forwards locally originated batches to remote
  /// tracker replicas. Must be installed before any post-build Apply; the
  /// runtime wires it when a dataflow's shared state is first created.
  void SetBroadcast(std::function<void(std::span<const Change<T>>)> fn) {
    std::lock_guard<std::mutex> lock(mu_);
    broadcast_ = std::move(fn);
  }

  /// Applies a batch of count deltas atomically and refreshes affected
  /// frontiers. Batches applied through this entry point are *locally
  /// originated*: in a multi-process run they are also forwarded to every
  /// remote tracker replica, after the local apply and outside the lock —
  /// still before the caller can make any corresponding bundle visible,
  /// which is the cross-process safety order (counts travel ahead of data
  /// on the same FIFO peer stream).
  void Apply(std::span<const Change<T>> changes) {
    if (changes.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      MEGA_CHECK(finalized_);
      ApplyLocked(changes);
    }
    if (broadcast_) broadcast_(changes);
  }

  /// Applies a batch without forwarding it: remote-originated merges (the
  /// sender already owns the batch) and the statically replicated initial
  /// capabilities. Before Finalize the batch is stashed and merged when
  /// the graph is installed — remote processes may finish building first.
  void ApplyUnbroadcast(std::span<const Change<T>> changes) {
    if (changes.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!finalized_) {
      pre_finalize_remote_.insert(pre_finalize_remote_.end(), changes.begin(),
                                  changes.end());
      return;
    }
    ApplyLocked(changes);
  }

 private:
  /// Count/frontier update; callers hold mu_ and guarantee finalized_.
  void ApplyLocked(std::span<const Change<T>> changes) {
    dirty_scratch_.clear();
    for (const auto& c : changes) {
      MEGA_CHECK_LT(c.loc, num_locs_);
      bool was_empty = counts_[c.loc].Empty();
      if (counts_[c.loc].Update(c.time, c.delta)) {
        Antichain<T> f = counts_[c.loc].Frontier();
        if (!(f == loc_frontier_[c.loc])) {
          loc_frontier_[c.loc] = std::move(f);
          dirty_scratch_.push_back(c.loc);
        }
      }
      bool now_empty = counts_[c.loc].Empty();
      if (was_empty && !now_empty) nonempty_locs_++;
      if (!was_empty && now_empty) nonempty_locs_--;
    }
    if (dirty_scratch_.empty()) return;

    // Recompute the port frontier of every input port affected by a dirty
    // location.
    port_scratch_.clear();
    for (uint32_t loc : dirty_scratch_) {
      for (uint32_t p : affects_[loc]) {
        if (std::find(port_scratch_.begin(), port_scratch_.end(), p) ==
            port_scratch_.end())
          port_scratch_.push_back(p);
      }
    }
    bool any_changed = false;
    for (uint32_t p : port_scratch_) {
      Antichain<T> f;
      for (uint32_t loc : reaching_[p]) {
        for (const T& t : loc_frontier_[loc].elements()) f.Insert(t);
      }
      if (!(f == port_frontier_[p])) {
        port_frontier_[p] = std::move(f);
        any_changed = true;
      }
    }
    if (any_changed)
      version_.fetch_add(1, std::memory_order_release);
  }

 public:
  void ApplyOne(uint32_t loc, const T& time, int64_t delta) {
    Change<T> c{loc, time, delta};
    Apply(std::span<const Change<T>>(&c, 1));
  }

  /// Monotone version counter; bumped whenever any port frontier changes.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Copies all input-port frontiers (indexed by dense port index) into
  /// `out` and returns the version they correspond to.
  uint64_t SnapshotFrontiers(std::vector<Antichain<T>>& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    out = port_frontier_;
    return version_.load(std::memory_order_relaxed);
  }

  /// Frontier at a single input-port location (used by probes).
  Antichain<T> FrontierAt(uint32_t loc) const {
    std::lock_guard<std::mutex> lock(mu_);
    MEGA_CHECK_LT(loc, num_locs_);
    int32_t p = port_index_of_loc_[loc];
    MEGA_CHECK_GE(p, 0) << "FrontierAt requires an input-port location";
    return port_frontier_[static_cast<size_t>(p)];
  }

  /// Dense port index of an input-port location, or -1.
  int32_t PortIndexOf(uint32_t loc) const {
    std::lock_guard<std::mutex> lock(mu_);
    MEGA_CHECK_LT(loc, num_locs_);
    return port_index_of_loc_[loc];
  }

  /// True when no pointstamps remain anywhere: the dataflow has completed.
  bool Complete() const {
    std::lock_guard<std::mutex> lock(mu_);
    return finalized_ && nonempty_locs_ == 0;
  }

 private:
  static void CheckAcyclic(const std::vector<std::vector<uint32_t>>& adj) {
    // Kahn's algorithm; the engine supports acyclic dataflows only (all of
    // Megaphone's dataflows are acyclic).
    std::vector<uint32_t> indeg(adj.size(), 0);
    for (const auto& out : adj)
      for (uint32_t v : out) indeg[v]++;
    std::vector<uint32_t> queue;
    for (uint32_t u = 0; u < adj.size(); ++u)
      if (indeg[u] == 0) queue.push_back(u);
    size_t seen = 0;
    while (!queue.empty()) {
      uint32_t u = queue.back();
      queue.pop_back();
      seen++;
      for (uint32_t v : adj[u])
        if (--indeg[v] == 0) queue.push_back(v);
    }
    MEGA_CHECK_EQ(seen, adj.size()) << "dataflow graph must be acyclic";
  }

  mutable std::mutex mu_;
  bool finalized_ = false;
  uint32_t num_locs_ = 0;
  int64_t nonempty_locs_ = 0;
  std::atomic<uint64_t> version_{0};
  std::function<void(std::span<const Change<T>>)> broadcast_;  // distributed
  std::vector<Change<T>> pre_finalize_remote_;  // stashed remote batches

  std::vector<MutableAntichain<T>> counts_;   // per location
  std::vector<Antichain<T>> loc_frontier_;    // cached per location
  std::vector<uint32_t> input_port_locs_;     // port index -> location
  std::vector<int32_t> port_index_of_loc_;    // location -> port index
  std::vector<std::vector<uint32_t>> reaching_;  // port -> reaching locs
  std::vector<std::vector<uint32_t>> affects_;   // loc -> affected ports
  std::vector<Antichain<T>> port_frontier_;      // per port index

  // Scratch (guarded by mu_).
  std::vector<uint32_t> dirty_scratch_;
  std::vector<uint32_t> port_scratch_;
};

}  // namespace timely
