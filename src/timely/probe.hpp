// Probes: passive observation of a stream's frontier.
//
// Megaphone's F operators monitor the output frontier of the S operators
// through a probe (paper §4.3); the probe reports, for any time t, whether
// records at times earlier than t might still appear on the probed stream.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "timely/operator.hpp"
#include "timely/stream.hpp"
#include "timely/worker.hpp"

namespace timely {

/// Shared handle onto the frontier of a probed stream. Cheap to copy;
/// reads are cached against the tracker's version counter.
template <typename T>
class ProbeHandle {
 public:
  ProbeHandle() = default;
  ProbeHandle(std::shared_ptr<DataflowShared<T>> shared, uint32_t loc)
      : state_(std::make_shared<State>()), shared_(std::move(shared)),
        loc_(loc) {}

  /// True iff a record with time strictly less than `t` may still appear.
  bool LessThan(const T& t) const {
    Refresh();
    return state_->cached.LessThan(t);
  }

  /// True iff a record with time ≤ `t` may still appear.
  bool LessEqual(const T& t) const {
    Refresh();
    return state_->cached.LessEqual(t);
  }

  /// True iff no record can ever appear again (stream complete).
  bool Done() const {
    Refresh();
    return state_->cached.empty();
  }

  bool valid() const { return shared_ != nullptr; }

 private:
  struct State {
    mutable uint64_t seen_version = ~uint64_t{0};
    mutable Antichain<T> cached;
  };

  void Refresh() const {
    uint64_t v = shared_->tracker.version();
    if (v != state_->seen_version) {
      state_->cached = shared_->tracker.FrontierAt(loc_);
      state_->seen_version = v;
    }
  }

  std::shared_ptr<State> state_;
  std::shared_ptr<DataflowShared<T>> shared_;
  uint32_t loc_ = 0;
};

/// The one probe operator: a terminal operator that hands every batch of
/// `stream` to `consume(t, recs)` under `pact` and returns a probe on its
/// own input port. Once the probe passes t, every record below t has been
/// consumed here.
template <typename D, typename T, typename P, typename F>
ProbeHandle<T> Probe(Stream<D, T> stream, const char* name, P pact,
                     F consume) {
  Scope<T>& scope = *stream.scope();
  OperatorBuilder<T> b(scope, name);
  auto* in = b.AddInput(stream, std::move(pact));
  const uint32_t loc = in->loc();
  b.Build([in, consume = std::move(consume)](OpCtx<T>&) {
    in->ForEach([&](const T& t, std::vector<D>& recs) { consume(t, recs); });
  });
  return ProbeHandle<T>(scope.df()->shared(), loc);
}

/// Attaches a probe to `stream`; the returned handle reports the frontier
/// at the probe's input, i.e. the global completion state of the stream.
template <typename D, typename T>
ProbeHandle<T> Probe(Stream<D, T> stream) {
  return Probe(stream, "Probe", Pact<D>::Pipeline(),
               [](const T&, std::vector<D>&) {});
}

}  // namespace timely
