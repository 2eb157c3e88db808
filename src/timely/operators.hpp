// Stock dataflow operators: map, filter, flat_map, sink, concat,
// exchange, and a generic stateful unary operator.
//
// These mirror timely dataflow's stream extension methods and are the
// building blocks for the "native" NEXMark query implementations that the
// paper compares Megaphone against.
#pragma once

#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "timely/operator.hpp"
#include "timely/stream.hpp"

namespace timely {

/// Applies `f` to every record (worker-local).
template <typename D, typename T, typename F>
auto Map(Stream<D, T> stream, F f) -> Stream<std::invoke_result_t<F, D>, T> {
  using R = std::invoke_result_t<F, D>;
  OperatorBuilder<T> b(*stream.scope(), "Map");
  auto* in = b.AddInput(stream, Pact<D>::Pipeline());
  auto [out, result] = b.template AddOutput<R>();
  b.Build([in, out, f = std::move(f)](OpCtx<T>&) {
    in->ForEach([&](const T& t, std::vector<D>& data) {
      for (auto& d : data) out->Send(t, f(std::move(d)));
    });
  });
  return result;
}

/// Keeps records satisfying `pred` (worker-local).
template <typename D, typename T, typename P>
Stream<D, T> Filter(Stream<D, T> stream, P pred) {
  OperatorBuilder<T> b(*stream.scope(), "Filter");
  auto* in = b.AddInput(stream, Pact<D>::Pipeline());
  auto [out, result] = b.template AddOutput<D>();
  b.Build([in, out, pred = std::move(pred)](OpCtx<T>&) {
    in->ForEach([&](const T& t, std::vector<D>& data) {
      for (auto& d : data) {
        if (pred(d)) out->Send(t, std::move(d));
      }
    });
  });
  return result;
}

/// Applies `f(record, emit)` to every record; `emit(r)` may be called any
/// number of times.
template <typename R, typename D, typename T, typename F>
Stream<R, T> FlatMap(Stream<D, T> stream, F f) {
  OperatorBuilder<T> b(*stream.scope(), "FlatMap");
  auto* in = b.AddInput(stream, Pact<D>::Pipeline());
  auto [out, result] = b.template AddOutput<R>();
  b.Build([in, out, f = std::move(f)](OpCtx<T>&) {
    in->ForEach([&](const T& t, std::vector<D>& data) {
      for (auto& d : data) {
        f(std::move(d), [&](R r) { out->Send(t, std::move(r)); });
      }
    });
  });
  return result;
}

/// Terminal consumer: calls `f(time, data)` per bundle.
template <typename D, typename T, typename F>
void Sink(Stream<D, T> stream, F f) {
  OperatorBuilder<T> b(*stream.scope(), "Sink");
  auto* in = b.AddInput(stream, Pact<D>::Pipeline());
  b.Build([in, f = std::move(f)](OpCtx<T>&) {
    in->ForEach([&](const T& t, std::vector<D>& data) { f(t, data); });
  });
}

/// Repartitions the stream by `hash(record) % workers`.
template <typename D, typename T, typename H>
Stream<D, T> Exchange(Stream<D, T> stream, H hash) {
  OperatorBuilder<T> b(*stream.scope(), "Exchange");
  auto* in = b.AddInput(
      stream, Pact<D>::Exchange([hash](const D& d) { return hash(d); }));
  auto [out, result] = b.template AddOutput<D>();
  b.Build([in, out](OpCtx<T>&) {
    in->ForEach([&](const T& t, std::vector<D>& data) {
      out->SendBatch(t, std::move(data));
    });
  });
  return result;
}

/// Merges two streams of the same type.
template <typename D, typename T>
Stream<D, T> Concat(Stream<D, T> a, Stream<D, T> b_stream) {
  OperatorBuilder<T> b(*a.scope(), "Concat");
  auto* in_a = b.AddInput(a, Pact<D>::Pipeline());
  auto* in_b = b.AddInput(b_stream, Pact<D>::Pipeline());
  auto [out, result] = b.template AddOutput<D>();
  b.Build([in_a, in_b, out](OpCtx<T>&) {
    in_a->ForEach([&](const T& t, std::vector<D>& data) {
      out->SendBatch(t, std::move(data));
    });
    in_b->ForEach([&](const T& t, std::vector<D>& data) {
      out->SendBatch(t, std::move(data));
    });
  });
  return result;
}

/// Generic exchanged stateful unary operator: records are partitioned by
/// `hash`, and `logic(time, data, state, ctx, out)` runs per bundle with
/// worker-local state of type S. This is the shape hand-tuned ("native")
/// stateful operators take without Megaphone: state lives in the operator
/// closure and cannot migrate.
template <typename S, typename R, typename D, typename T, typename H,
          typename L>
Stream<R, T> StatefulUnary(Stream<D, T> stream, const char* name, H hash,
                           L logic) {
  OperatorBuilder<T> b(*stream.scope(), name);
  auto* in = b.AddInput(
      stream, Pact<D>::Exchange([hash](const D& d) { return hash(d); }));
  auto [out, result] = b.template AddOutput<R>();
  auto state = std::make_shared<S>();
  b.Build([in, out, state, logic = std::move(logic)](OpCtx<T>& ctx) {
    in->ForEach([&](const T& t, std::vector<D>& data) {
      logic(t, data, *state, ctx, *out);
    });
  });
  return result;
}

}  // namespace timely
