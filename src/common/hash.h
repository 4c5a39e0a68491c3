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

// Combines the two lanes and runs murmur3's fmix64 finalizer.
inline uint64_t Finish(uint64_t a, uint64_t b) {
  uint64_t h = a ^ ((b << 31) | (b >> 33));
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
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
  return Finish(a, b);
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

/// HashColsKey of the `n` rows first, first + 1, ..., first + n - 1 of a
/// strided key (row r's value i is cols[i][r * stride]), n <= N, into
/// out[0, n). Runs the same steps as HashKey a word at a time across the
/// whole block, so the rows' multiply chains run side by side and the
/// per-key loop over the width is paid once per block.
template <int N>
inline void HashColsBlock(const Value* const* cols, int64_t stride,
                          int64_t first, int n, int width, uint64_t (&out)[N]) {
  using hash_internal::Pair;
  using hash_internal::Step;
  uint64_t b[N];
  int64_t at[N];
  for (int j = 0; j < n; ++j) {
    out[j] = hash_internal::kSeedA ^ static_cast<uint64_t>(width);
    b[j] = hash_internal::kSeedB;
    at[j] = (first + j) * stride;
  }
  int i = 0;
  for (; i + 4 <= width; i += 4) {
    const Value* c0 = cols[i];
    const Value* c1 = cols[i + 1];
    const Value* c2 = cols[i + 2];
    const Value* c3 = cols[i + 3];
    for (int j = 0; j < n; ++j) {
      out[j] = Step(out[j], Pair(c0[at[j]], c1[at[j]]));
      b[j] = Step(b[j], Pair(c2[at[j]], c3[at[j]]));
    }
  }
  if (i + 2 <= width) {
    const Value* c0 = cols[i];
    const Value* c1 = cols[i + 1];
    for (int j = 0; j < n; ++j) {
      out[j] = Step(out[j], Pair(c0[at[j]], c1[at[j]]));
    }
    i += 2;
  }
  if (i < width) {
    const Value* c0 = cols[i];
    for (int j = 0; j < n; ++j) b[j] = Step(b[j], Pair(c0[at[j]], 0));
  }
  for (int j = 0; j < n; ++j) out[j] = hash_internal::Finish(out[j], b[j]);
}

}  // namespace ppr

#endif  // PPR_COMMON_HASH_H_
