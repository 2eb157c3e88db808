// Inter-worker data channels.
//
// Workers communicate exclusively through channels of timestamped bundles
// (the shared-nothing discipline of Figure 2 in the paper). A channel has
// one logical producer port and, per receiving worker, a FIFO queue of
// bundles. Senders batch records into bundles so queue and progress-tracker
// synchronization is amortized over ~hundreds of records.
//
// The hot path is batch-first: receivers drain a whole queue with one lock
// acquisition (PullAll swaps the deque), senders can publish several
// bundles under one lock (PushMany), and drained bundle buffers are
// recycled through a per-channel pool so vector capacity flows from
// receiver back to sender instead of being reallocated per bundle.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "timely/remote.hpp"

namespace timely {

/// A batch of records sharing one logical timestamp. Member serde (valid
/// whenever D and T are serializable) is the bundle's wire format on the
/// process mesh: time, then the record vector.
template <typename D, typename T>
struct Bundle {
  T time{};
  std::vector<D> data;

  void Serialize(megaphone::Writer& w) const
    requires(megaphone::Serializable<D> && megaphone::Serializable<T>)
  {
    megaphone::Encode(w, time);
    megaphone::Encode(w, data);
  }
  static Bundle Deserialize(megaphone::Reader& r)
    requires(megaphone::Serializable<D> && megaphone::Serializable<T>)
  {
    Bundle b;
    b.time = megaphone::Decode<T>(r);
    b.data = megaphone::Decode<std::vector<D>>(r);
    return b;
  }
};

/// A multi-producer channel with one FIFO queue per receiving worker.
template <typename D, typename T>
class Channel {
 public:
  explicit Channel(uint32_t workers) : queues_(workers) {
    for (auto& q : queues_) q = std::make_unique<Queue>();
  }

  void Push(uint32_t target, Bundle<D, T>&& bundle) {
    MEGA_DCHECK(target < queues_.size());
    if (net_ != nullptr && !IsLocal(target)) {
      SendRemote(target, std::move(bundle));
      return;
    }
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->q.push_back(std::move(bundle));
  }

  /// Publishes every bundle of `bundles` (in order) under one lock
  /// acquisition; `bundles` is left empty.
  void PushMany(uint32_t target, std::deque<Bundle<D, T>>& bundles) {
    MEGA_DCHECK(target < queues_.size());
    if (bundles.empty()) return;
    if (net_ != nullptr && !IsLocal(target)) {
      for (auto& b : bundles) SendRemote(target, std::move(b));
      bundles.clear();
      return;
    }
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    auto& q = queues_[target]->q;
    if (q.empty()) {
      q.swap(bundles);
    } else {
      for (auto& b : bundles) q.push_back(std::move(b));
      bundles.clear();
    }
  }

  /// Drains every queued bundle for `worker` into `out` (FIFO order) with
  /// a single lock acquisition — `out` is swapped with the live queue when
  /// empty, so the drain itself moves no bundles. Returns the number of
  /// bundles delivered.
  size_t PullAll(uint32_t worker, std::deque<Bundle<D, T>>& out) {
    MEGA_DCHECK(worker < queues_.size());
    std::lock_guard<std::mutex> lock(queues_[worker]->mu);
    auto& q = queues_[worker]->q;
    size_t drained = q.size();
    if (drained == 0) return 0;
    if (out.empty()) {
      out.swap(q);
    } else {
      while (!q.empty()) {
        out.push_back(std::move(q.front()));
        q.pop_front();
      }
    }
    return drained;
  }

  /// Takes a recycled record buffer (empty, with capacity) from the
  /// calling worker's pool shard, or an empty vector if the shard is dry.
  /// Shards keep workers off each other's pool locks.
  std::vector<D> AcquireBuffer(uint32_t worker = 0) {
    MEGA_DCHECK(worker < queues_.size());
    auto& shard = *queues_[worker];
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    if (shard.pool.empty()) return {};
    std::vector<D> buf = std::move(shard.pool.back());
    shard.pool.pop_back();
    return buf;
  }

  /// Returns a drained bundle buffer to the calling worker's pool shard
  /// so its capacity is reused by a later flush. Buffers without capacity
  /// are dropped.
  void RecycleBuffer(std::vector<D>&& buf, uint32_t worker = 0) {
    if (buf.capacity() == 0) return;
    MEGA_DCHECK(worker < queues_.size());
    buf.clear();
    auto& shard = *queues_[worker];
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    if (shard.pool.size() < kMaxPooled) shard.pool.push_back(std::move(buf));
  }

  /// Buffers currently pooled across all shards (introspection for tests).
  size_t PooledBuffers() const {
    size_t n = 0;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> lock(q->pool_mu);
      n += q->pool.size();
    }
    return n;
  }

  uint32_t workers() const { return static_cast<uint32_t>(queues_.size()); }

  // --- multi-process extension -----------------------------------------
  //
  // With a mesh attached, a push whose target worker lives in another
  // process serializes the bundle (one encode) and hands the bytes to the
  // transport; the owning process decodes it (one decode) straight into
  // the target's ordinary queue via DecodeAndPush. Pushes between
  // co-located workers are untouched — with no mesh the only cost on the
  // hot path is one null check.

  /// Attaches the mesh; pushed bundles for non-local workers serialize
  /// and ship. Called once at channel creation, before any worker steps.
  void EnableRemote(NetRuntime* net, uint64_t dataflow_id,
                    uint64_t channel_id) {
    net_ = net;
    df_id_ = dataflow_id;
    chan_id_ = channel_id;
    local_begin_ = net->process_index() * net->workers_per_process();
    local_end_ = local_begin_ + net->workers_per_process();
  }

  /// Decodes one wire bundle and publishes it locally (transport receive
  /// path). The sender guaranteed `target` is one of our workers.
  void DecodeAndPush(uint32_t target, megaphone::Reader& r) {
    if constexpr (megaphone::Serializable<T> && megaphone::Serializable<D>) {
      Bundle<D, T> bundle = Bundle<D, T>::Deserialize(r);
      MEGA_CHECK(IsLocal(target)) << "wire bundle routed to a remote worker";
      std::lock_guard<std::mutex> lock(queues_[target]->mu);
      queues_[target]->q.push_back(std::move(bundle));
    } else {
      MEGA_CHECK(false) << "received wire bundle for a non-serializable type";
    }
  }

 private:
  bool IsLocal(uint32_t worker) const {
    return worker >= local_begin_ && worker < local_end_;
  }

  void SendRemote(uint32_t target, Bundle<D, T>&& bundle) {
    if constexpr (megaphone::Serializable<T> && megaphone::Serializable<D>) {
      megaphone::Writer w;
      bundle.Serialize(w);
      net_->SendData(df_id_, chan_id_, target, w.Take());
    } else {
      MEGA_CHECK(false)
          << "bundle type is not serializable; channel cannot cross "
             "process boundaries";
    }
  }

  // Enough for every worker to have a few bundles in flight per direction;
  // beyond that, extra capacity is better returned to the allocator.
  static constexpr size_t kMaxPooled = 64;

  struct Queue {
    std::mutex mu;
    std::deque<Bundle<D, T>> q;
    // Per-worker buffer-pool shard (worker i recycles into and acquires
    // from shard i; capacity migrates between shards with the bundles).
    mutable std::mutex pool_mu;
    std::vector<std::vector<D>> pool;
  };
  std::vector<std::unique_ptr<Queue>> queues_;

  // Remote extension; null in single-process runs.
  NetRuntime* net_ = nullptr;
  uint64_t df_id_ = 0;
  uint64_t chan_id_ = 0;
  uint32_t local_begin_ = 0;
  uint32_t local_end_ = ~uint32_t{0};
};

}  // namespace timely
