// Umbrella header for the migratable-state layer, plus the backend
// selection trait the bin layer uses: BackendFor<S> maps a user-declared
// state type onto the backend that will hold it inside a bin.
//
//   * a type satisfying ChunkableState (the backends here, or a user
//     type implementing the interface) is used as-is;
//   * std::unordered_map / std::map / std::vector are transparently
//     upgraded to MapState / SortedState / DenseState — operators keep
//     their declared state type in `fold`, but migration becomes chunked
//     and incrementally absorbable;
//   * anything else serde-able falls back to BlobState, which keeps wire
//     frames bounded but defers installation to the last chunk.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "state/dense_state.hpp"  // IWYU pragma: export
#include "state/log_state.hpp"    // IWYU pragma: export
#include "state/map_state.hpp"    // IWYU pragma: export
#include "state/migratable.hpp"   // IWYU pragma: export

namespace megaphone {
namespace state {

/// Maps a user-declared state type to its bin backend and exposes the
/// user-visible reference `fold` receives (the declared type itself).
template <typename S>
struct BackendSel {
  using type = BlobState<S>;
  static S& user(type& b) { return b.value; }
};

template <ChunkableState S>
struct BackendSel<S> {
  using type = S;
  static S& user(S& s) { return s; }
};

template <typename K, typename V, typename H, typename E>
struct BackendSel<std::unordered_map<K, V, H, E>> {
  using type = MapState<K, V, H, E>;
  static std::unordered_map<K, V, H, E>& user(type& m) { return m.raw(); }
};

template <typename K, typename V, typename C>
struct BackendSel<std::map<K, V, C>> {
  using type = SortedState<K, V, C>;
  static std::map<K, V, C>& user(type& m) { return m.raw(); }
};

template <typename V>
struct BackendSel<std::vector<V>> {
  using type = DenseState<V>;
  static std::vector<V>& user(type& d) { return d.raw(); }
};

template <typename S>
using BackendFor = typename BackendSel<S>::type;

static_assert(ChunkableState<MapState<uint64_t, uint64_t>>);
static_assert(ChunkableState<SortedState<uint64_t, uint64_t>>);
static_assert(ChunkableState<DenseState<uint64_t>>);
static_assert(ChunkableState<BlobState<uint64_t>>);
static_assert(ChunkableState<LogState<uint64_t, uint64_t>>);

}  // namespace state
}  // namespace megaphone
