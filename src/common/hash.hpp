// Hashing utilities used for key exchange and bin assignment.
//
// Megaphone assigns keys to bins using the *most significant* bits of the
// hashed key (paper §4.2), so the hash function must mix well in the high
// bits. We use a Murmur3-style 64-bit finalizer, which does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace megaphone {

/// Murmur3 64-bit finalizer: a fast, well-mixing bijection on uint64_t.
inline uint64_t HashMix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Incremental 64-bit FNV-1a: the one byte-string hash behind HashBytes
/// and the checksums of mesh frames and segment records. Not
/// cryptographic — a checksum guards against injected corruption in
/// tests and torn writes, not adversaries.
class Fnv1a {
 public:
  void Update(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t h = h_;  // a local: stores through p cannot alias it
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
    h_ = h;
  }
  uint64_t value() const { return h_; }
  /// The hash folded to 32 bits (high half xor low half): the checksum.
  uint32_t Fold32() const { return static_cast<uint32_t>(h_ ^ (h_ >> 32)); }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a for byte strings (used for hashing names and composite keys).
inline uint64_t HashBytes(std::string_view bytes) {
  Fnv1a h;
  h.Update(bytes.data(), bytes.size());
  // Finalize so that the high bits are well distributed too.
  return HashMix64(h.value());
}

/// Combines two hashes (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

}  // namespace megaphone
