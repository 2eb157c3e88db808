// Binary serialization for migrating state across dataflow channels.
//
// The Rust Megaphone uses Abomonation to serialize bins when they migrate
// between workers. This archive plays the same role: when operator F
// uninstalls a bin it encodes it to a byte vector, ships the bytes through
// an ordinary dataflow channel, and operator S decodes it on arrival. The
// encode/decode cost is proportional to the state size, which is essential
// for reproducing the paper's migration-duration and memory experiments.
//
// Types participate either by being trivially copyable, by being one of the
// supported standard containers, or by providing:
//
//   void Serialize(megaphone::Writer& w) const;
//   static T Deserialize(megaphone::Reader& r);
#pragma once

#include <algorithm>
#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace megaphone {

/// Thrown when a decode would read past the end of its buffer, when a
/// length prefix exceeds what the remaining bytes could possibly hold, or
/// when a full-buffer decode leaves trailing bytes. Malformed input —
/// a truncated network frame, a corrupted migration payload — surfaces as
/// a catchable error instead of an out-of-bounds read or a giant
/// allocation.
class SerdeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte sink used when encoding.
class Writer {
 public:
  void WriteBytes(const void* data, size_t n) {
    if (n == 0) return;  // data may be null (e.g. an empty vector's data())
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Overwrites `n` bytes already written at `pos` (a length prefix
  /// written as a placeholder before its payload).
  void Overwrite(size_t pos, const void* data, size_t n) {
    MEGA_DCHECK(pos + n <= buf_.size()) << "overwrite past end";
    std::memcpy(buf_.data() + pos, data, n);
  }

  /// Appends `n` bytes for the caller to fill in place (e.g. by pread)
  /// and returns a pointer to them.
  uint8_t* Extend(size_t n) {
    size_t old = buf_.size();
    buf_.resize(old + n);
    return buf_.data() + old;
  }

  /// Reserves capacity for `n` bytes in total, so a producer that knows
  /// its exact size allocates once. Growth is at least geometric, so
  /// producers reserving one after another into a shared buffer (bins
  /// packed into one frame) still copy it amortized O(1) times.
  void Reserve(size_t n) {
    if (n > buf_.capacity()) buf_.reserve(std::max(n, 2 * buf_.capacity()));
  }

  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential byte source used when decoding.
class Reader {
 public:
  Reader(const uint8_t* data, size_t n) : data_(data), size_(n) {}
  explicit Reader(const std::vector<uint8_t>& v)
      : Reader(v.data(), v.size()) {}

  /// Returns a view of the next `n` bytes and advances past them — one
  /// bounds check for a caller that copies a run out itself. The view
  /// lives as long as the buffer and is not aligned for any type wider
  /// than a byte (read it through UnalignedIter).
  const uint8_t* ReadView(size_t n) {
    if (n > size_ - pos_) throw SerdeError("serde: read past end of buffer");
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  void ReadBytes(void* out, size_t n) {
    const uint8_t* p = ReadView(n);
    if (n == 0) return;  // out may be null (e.g. an empty vector's data())
    std::memcpy(out, p, n);
  }

  /// Reads a u64 element count for a container whose elements occupy at
  /// least `min_elem_bytes` each, and verifies the remaining bytes could
  /// hold that many elements — so a corrupted or truncated length prefix
  /// fails cleanly instead of driving a multi-gigabyte reserve.
  uint64_t ReadCount(size_t min_elem_bytes) {
    uint64_t n;
    ReadBytes(&n, sizeof(n));
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
      throw SerdeError("serde: length prefix exceeds remaining buffer");
    }
    return n;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

  /// Splits off a reader over the next `n` bytes (zero copy) and advances
  /// this reader past them — how section-framed payloads (state chunks)
  /// hand each section to its own decoder without slicing buffers.
  Reader Sub(size_t n) {
    if (n > size_ - pos_) throw SerdeError("serde: sub-reader past end");
    Reader sub(data_ + pos_, n);
    pos_ += n;
    return sub;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Random-access iterator over the T values stored back to back at a
/// byte address of any alignment; each dereference loads one value with
/// a memcpy. A range of them fills a container in one pass, e.g.
/// `v.insert(v.end(), first, last)` into reserved capacity, with no
/// value-initialization of the destination first.
template <typename T>
class UnalignedIter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = T;

  UnalignedIter() = default;
  explicit UnalignedIter(const uint8_t* p) : p_(p) {}

  T operator*() const {
    T v;
    std::memcpy(&v, p_, sizeof(T));
    return v;
  }
  T operator[](difference_type i) const { return *(*this + i); }
  UnalignedIter& operator++() { return *this += 1; }
  UnalignedIter operator++(int) {
    UnalignedIter t = *this;
    ++*this;
    return t;
  }
  UnalignedIter& operator--() { return *this -= 1; }
  UnalignedIter operator--(int) {
    UnalignedIter t = *this;
    --*this;
    return t;
  }
  UnalignedIter& operator+=(difference_type n) {
    p_ += n * static_cast<difference_type>(sizeof(T));
    return *this;
  }
  UnalignedIter& operator-=(difference_type n) { return *this += -n; }
  friend UnalignedIter operator+(UnalignedIter it, difference_type n) {
    return it += n;
  }
  friend UnalignedIter operator+(difference_type n, UnalignedIter it) {
    return it += n;
  }
  friend UnalignedIter operator-(UnalignedIter it, difference_type n) {
    return it -= n;
  }
  friend difference_type operator-(UnalignedIter a, UnalignedIter b) {
    return (a.p_ - b.p_) / static_cast<difference_type>(sizeof(T));
  }
  friend bool operator==(UnalignedIter a, UnalignedIter b) {
    return a.p_ == b.p_;
  }
  friend auto operator<=>(UnalignedIter a, UnalignedIter b) {
    return a.p_ <=> b.p_;
  }

 private:
  const uint8_t* p_ = nullptr;
};

// ---------------------------------------------------------------------------
// Serde<T> dispatch. Specializations below cover scalars, strings, pairs,
// vectors, maps, optionals, and any type exposing Serialize/Deserialize.
// ---------------------------------------------------------------------------

template <typename T, typename Enable = void>
struct Serde;

template <typename T>
void Encode(Writer& w, const T& value) {
  Serde<T>::Encode(w, value);
}

template <typename T>
T Decode(Reader& r) {
  return Serde<T>::Decode(r);
}

/// Convenience: encode a value into a fresh byte vector.
template <typename T>
std::vector<uint8_t> EncodeToBytes(const T& value) {
  Writer w;
  Encode(w, value);
  return w.Take();
}

/// Convenience: decode a full byte vector into a value.
template <typename T>
T DecodeFromBytes(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  T value = Decode<T>(r);
  if (!r.AtEnd()) throw SerdeError("serde: trailing bytes after decode");
  return value;
}

namespace detail {
template <typename T>
concept HasMemberSerde = requires(const T& t, Writer& w, Reader& r) {
  { t.Serialize(w) };
  { T::Deserialize(r) } -> std::same_as<T>;
};

// Standard wrappers with dedicated specializations below; excluded from the
// trivially-copyable fallback even when they happen to be trivially
// copyable (e.g. std::pair<int, int>).
template <typename T>
struct IsStdWrapper : std::false_type {};
template <typename A, typename B>
struct IsStdWrapper<std::pair<A, B>> : std::true_type {};
template <typename T>
struct IsStdWrapper<std::optional<T>> : std::true_type {};
template <typename... Ts>
struct IsStdWrapper<std::tuple<Ts...>> : std::true_type {};
}  // namespace detail

/// True when Serde<T> is the raw-bytes specialization below: a value
/// encodes as its sizeof(T) object bytes, so runs of them can be copied in
/// bulk (DenseState's chunk path) with the same bytes as element-wise
/// encoding.
template <typename T>
concept RawBytesSerde = std::is_trivially_copyable_v<T> &&
                        !detail::IsStdWrapper<T>::value &&
                        !detail::HasMemberSerde<T>;

/// Cap on up-front container reserves while decoding: length prefixes are
/// only loosely validated (>= 1 byte per element), so reserves beyond this
/// are left to organic growth as elements actually decode.
constexpr uint64_t kMaxSpeculativeReserve = 1ull << 16;

/// True when Serde<T> has a usable specialization — the gate the remote
/// channel path uses to decide (at compile time) whether a bundle type can
/// cross process boundaries.
template <typename T>
concept Serializable = requires(Writer& w, Reader& r, const T& v) {
  Serde<std::remove_cvref_t<T>>::Encode(w, v);
  {
    Serde<std::remove_cvref_t<T>>::Decode(r)
  } -> std::same_as<std::remove_cvref_t<T>>;
};

// Trivially copyable scalars and PODs without member serde.
template <typename T>
struct Serde<T, std::enable_if_t<RawBytesSerde<T>>> {
  static void Encode(Writer& w, const T& v) { w.WriteBytes(&v, sizeof(T)); }
  static T Decode(Reader& r) {
    T v;
    r.ReadBytes(&v, sizeof(T));
    return v;
  }
};

// Types providing Serialize/Deserialize members.
template <typename T>
struct Serde<T, std::enable_if_t<detail::HasMemberSerde<T>>> {
  static void Encode(Writer& w, const T& v) { v.Serialize(w); }
  static T Decode(Reader& r) { return T::Deserialize(r); }
};

template <>
struct Serde<std::string> {
  static void Encode(Writer& w, const std::string& s) {
    uint64_t n = s.size();
    w.WriteBytes(&n, sizeof(n));
    w.WriteBytes(s.data(), s.size());
  }
  static std::string Decode(Reader& r) {
    uint64_t n = r.ReadCount(1);
    std::string s(n, '\0');
    r.ReadBytes(s.data(), n);
    return s;
  }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Encode(Writer& w, const std::pair<A, B>& p) {
    megaphone::Encode(w, p.first);
    megaphone::Encode(w, p.second);
  }
  static std::pair<A, B> Decode(Reader& r) {
    A a = megaphone::Decode<A>(r);
    B b = megaphone::Decode<B>(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename... Ts>
struct Serde<std::tuple<Ts...>> {
  static void Encode(Writer& w, const std::tuple<Ts...>& t) {
    std::apply([&](const Ts&... vs) { (megaphone::Encode(w, vs), ...); }, t);
  }
  static std::tuple<Ts...> Decode(Reader& r) {
    // Braced init guarantees left-to-right evaluation order.
    return std::tuple<Ts...>{megaphone::Decode<Ts>(r)...};
  }
};

template <typename T>
struct Serde<std::optional<T>> {
  static void Encode(Writer& w, const std::optional<T>& o) {
    uint8_t has = o.has_value() ? 1 : 0;
    w.WriteBytes(&has, 1);
    if (has) megaphone::Encode(w, *o);
  }
  static std::optional<T> Decode(Reader& r) {
    uint8_t has;
    r.ReadBytes(&has, 1);
    if (!has) return std::nullopt;
    return megaphone::Decode<T>(r);
  }
};

template <typename T>
struct Serde<std::vector<T>> {
  static void Encode(Writer& w, const std::vector<T>& v) {
    uint64_t n = v.size();
    w.WriteBytes(&n, sizeof(n));
    if constexpr (std::is_trivially_copyable_v<T> &&
                  !detail::HasMemberSerde<T>) {
      w.WriteBytes(v.data(), v.size() * sizeof(T));
    } else {
      for (const auto& e : v) megaphone::Encode(w, e);
    }
  }
  static std::vector<T> Decode(Reader& r) {
    std::vector<T> v;
    if constexpr (std::is_trivially_copyable_v<T> &&
                  !detail::HasMemberSerde<T>) {
      uint64_t n = r.ReadCount(sizeof(T));
      if constexpr (std::is_same_v<T, uint8_t>) {
        // Byte payloads (a state frame off the mesh) are copied once into
        // an exact allocation, with no zero fill first.
        const uint8_t* p = r.ReadView(n);
        v.assign(p, p + n);
      } else {
        v.resize(n);
        r.ReadBytes(v.data(), n * sizeof(T));
      }
    } else {
      uint64_t n = r.ReadCount(1);
      // Reserve is speculative (ReadCount only bounds n by remaining
      // bytes at >= 1 byte/element); clamp it so a corrupt count cannot
      // drive a huge up-front allocation — growth past the clamp just
      // reallocates as elements actually decode.
      v.reserve(std::min<uint64_t>(n, kMaxSpeculativeReserve));
      for (uint64_t i = 0; i < n; ++i) v.push_back(megaphone::Decode<T>(r));
    }
    return v;
  }
};

template <typename K, typename V, typename C>
struct Serde<std::map<K, V, C>> {
  static void Encode(Writer& w, const std::map<K, V, C>& m) {
    uint64_t n = m.size();
    w.WriteBytes(&n, sizeof(n));
    for (const auto& [k, v] : m) {
      megaphone::Encode(w, k);
      megaphone::Encode(w, v);
    }
  }
  static std::map<K, V, C> Decode(Reader& r) {
    uint64_t n = r.ReadCount(1);
    std::map<K, V, C> m;
    for (uint64_t i = 0; i < n; ++i) {
      K k = megaphone::Decode<K>(r);
      V v = megaphone::Decode<V>(r);
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
    return m;
  }
};

namespace detail {

/// Field-list helpers behind MEGA_SERDE_FIELDS: encode/decode members in
/// declaration order (comma folds are sequenced left to right).
template <typename... Fs>
void EncodeMany(Writer& w, const Fs&... fields) {
  (megaphone::Encode(w, fields), ...);
}
template <typename... Fs>
void DecodeMany(Reader& r, Fs&... fields) {
  ((fields = megaphone::Decode<std::remove_reference_t<Fs>>(r)), ...);
}

}  // namespace detail

/// Declares member serde from a field list, in order:
///
///   struct PerKey { uint64_t window; std::string name;
///                   MEGA_SERDE_FIELDS(PerKey, window, name) };
///
/// Every listed field must itself be serde-able. This replaces hand-rolled
/// Serialize/Deserialize pairs for plain aggregate state types.
#define MEGA_SERDE_FIELDS(Type, ...)                       \
  void Serialize(::megaphone::Writer& w) const {           \
    ::megaphone::detail::EncodeMany(w, __VA_ARGS__);       \
  }                                                        \
  void DeserializeFieldsInto(::megaphone::Reader& r) {     \
    ::megaphone::detail::DecodeMany(r, __VA_ARGS__);       \
  }                                                        \
  static Type Deserialize(::megaphone::Reader& r) {        \
    Type out;                                              \
    out.DeserializeFieldsInto(r);                          \
    return out;                                            \
  }

template <typename K, typename V, typename H, typename E>
struct Serde<std::unordered_map<K, V, H, E>> {
  static void Encode(Writer& w, const std::unordered_map<K, V, H, E>& m) {
    uint64_t n = m.size();
    w.WriteBytes(&n, sizeof(n));
    for (const auto& [k, v] : m) {
      megaphone::Encode(w, k);
      megaphone::Encode(w, v);
    }
  }
  static std::unordered_map<K, V, H, E> Decode(Reader& r) {
    uint64_t n = r.ReadCount(1);
    std::unordered_map<K, V, H, E> m;
    // Clamped for the same reason as the vector path: a corrupt count
    // must not drive a multi-gigabyte bucket-array allocation up front.
    m.reserve(std::min<uint64_t>(n, kMaxSpeculativeReserve));
    for (uint64_t i = 0; i < n; ++i) {
      K k = megaphone::Decode<K>(r);
      V v = megaphone::Decode<V>(r);
      m.emplace(std::move(k), std::move(v));
    }
    return m;
  }
};

}  // namespace megaphone
