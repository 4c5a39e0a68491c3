#ifndef PPR_COMMON_HASH_H_
#define PPR_COMMON_HASH_H_

#include <cstdint>

#include "common/types.h"

namespace ppr {
namespace hash_internal {

inline constexpr uint64_t kSeedA = 0x9E3779B97F4A7C15ULL;
inline constexpr uint64_t kSeedB = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kMul = 0xBF58476D1CE4E5B9ULL;

// Two 32-bit values as one 64-bit word, `lo` in the low half.
inline uint64_t Pair(Value lo, Value hi) {
  return static_cast<uint64_t>(static_cast<uint32_t>(lo)) |
         (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32);
}

// One multiply-xorshift step of a lane.
inline uint64_t Step(uint64_t h, uint64_t word) {
  h ^= word;
  h *= kMul;
  return h ^ (h >> 29);
}

// The single definition both key layouts hash through: `at(i)` yields
// value i of the key. Words of two values alternate between lanes a and
// b (values 0-1 to a, 2-3 to b, 4-5 to a, ...), so the two multiply
// chains run in parallel and the serial chain is a quarter of the key's
// width; a trailing odd value is paired with 0. The lanes are combined
// and run through a full 64-bit finalizer (murmur3's fmix64), so every
// output bit depends on every input bit — FlatKeyIndex takes both its
// tag and its home slot from the high 32 bits.
template <typename At>
inline uint64_t HashKey(At at, int width) {
  uint64_t a = kSeedA ^ static_cast<uint64_t>(width);
  uint64_t b = kSeedB;
  int i = 0;
  for (; i + 4 <= width; i += 4) {
    a = Step(a, Pair(at(i), at(i + 1)));
    b = Step(b, Pair(at(i + 2), at(i + 3)));
  }
  if (i + 2 <= width) {
    a = Step(a, Pair(at(i), at(i + 1)));
    i += 2;
  }
  if (i < width) b = Step(b, Pair(at(i), 0));
  uint64_t h = a ^ ((b << 31) | (b >> 33));
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace hash_internal

/// Hashes a fixed-width key of `width` packed values (a row of key
/// columns) with a two-lane multiply-xorshift hash: cheap and branch-free
/// per value, and well distributed even on the tiny domains the paper
/// uses (colors {1,2,3}), where identity-style hashes collapse to a
/// handful of buckets. A 15-value key costs four dependent multiplies
/// per lane plus the finalizer.
inline uint64_t HashPackedKey(const Value* key, int width) {
  return hash_internal::HashKey([key](int i) { return key[i]; }, width);
}

/// HashPackedKey over a column-major or strided key: value i comes from
/// cols[i][row] instead of key[i]. Mixes identically to HashPackedKey by
/// construction (both go through hash_internal::HashKey), so a key
/// hashed through either layout lands on the same FlatKeyIndex slot.
inline uint64_t HashColsKey(const Value* const* cols, int64_t row,
                            int width) {
  return hash_internal::HashKey([cols, row](int i) { return cols[i][row]; },
                                width);
}

}  // namespace ppr

#endif  // PPR_COMMON_HASH_H_
