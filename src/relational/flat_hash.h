#ifndef PPR_RELATIONAL_FLAT_HASH_H_
#define PPR_RELATIONAL_FLAT_HASH_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/arena.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/types.h"
#include "relational/relation.h"

namespace ppr {

/// Flat open-addressing hash table over fixed-width keys.
///
/// Keys are rows of `key_width` values packed contiguously into a key
/// store sized for the caller's upper bound on distinct keys (operators
/// know it exactly: a key per input row at most). The store is either
/// arena scratch or a buffer the caller passes in — a projection hands
/// over its output rows, so the distinct keys in first-insertion order
/// are written once, straight into the result.
///
/// Each slot packs the high 32 bits of the key's hash (its tag) with its
/// 32-bit key id; the home slot is taken from the tag's low bits. A probe
/// reads a stored key only when the tags match, and a grow re-seats the
/// slots from their tags alone — no key is re-hashed or touched. Slots
/// are probed linearly, and the array starts at 16 to 2048 slots and
/// doubles when load exceeds 2/3: distinct counts are usually far below
/// the upper bound. No per-key heap allocation — the replacement for the
/// seed's unordered_{map,set}<std::vector<Value>>.
class FlatKeyIndex {
 public:
  /// Accepts up to `max_keys` distinct keys of `key_width` values each.
  /// Keys are stored in `key_store` (max_keys * key_width values, owned
  /// by the caller) or, when it is null, in `arena`; slots always come
  /// from `arena`. Both must outlive the index.
  FlatKeyIndex(int64_t max_keys, int key_width, ExecArena& arena,
               Value* key_store = nullptr)
      : arena_(&arena), width_(key_width), keys_(key_store),
        max_keys_(max_keys) {
    PPR_DCHECK(max_keys >= 0 && key_width >= 0);
    // Next power of two keeping load factor under 2/3, but never more
    // than 2048 slots upfront: the common case holds far fewer distinct
    // keys than max_keys, and doubling from a small table costs less
    // than clearing a huge one.
    const int64_t hinted = std::min<int64_t>(max_keys, 1024);
    int64_t capacity = 16;
    while (capacity * 2 < hinted * 3) capacity <<= 1;
    AllocSlots(capacity);
    if (keys_ == nullptr) {
      keys_ = arena.AllocSpan<Value>(max_keys * key_width).data();
    }
  }

  /// Returns the id of `key` (dense, in first-insertion order), inserting
  /// it when new; `*inserted` reports whether this call created it.
  int64_t InsertOrFind(const Value* key, bool* inserted) {
    return Insert(
        HashPackedKey(key, width_),
        [&](const Value* stored) {
          return std::equal(key, key + width_, stored);
        },
        [&](Value* dst) { std::copy(key, key + width_, dst); }, inserted);
  }

  /// Column-major InsertOrFind: the key of row `row` is
  /// (cols[0][row], ..., cols[width-1][row]). The columns may be strided
  /// views into a row-major relation (see KeyColumns), so kernels hash
  /// input rows in place with no gather. The key store stays row-major,
  /// so key_data() readers and the row-major InsertOrFind interoperate
  /// with ids from here.
  int64_t InsertOrFindCols(const Value* const* cols, int64_t row,
                           bool* inserted) {
    return Insert(
        HashColsKey(cols, row, width_),
        [&](const Value* stored) { return EqualCols(stored, cols, row); },
        [&](Value* dst) {
          for (int c = 0; c < width_; ++c) dst[c] = cols[c][row];
        },
        inserted);
  }

  /// Returns the id of `key`, or -1 when absent.
  int64_t Find(const Value* key) const {
    uint64_t empty;
    return Lookup(
        HashPackedKey(key, width_),
        [&](const Value* stored) {
          return std::equal(key, key + width_, stored);
        },
        &empty);
  }

  /// Column-major Find (see InsertOrFindCols).
  int64_t FindCols(const Value* const* cols, int64_t row) const {
    uint64_t empty;
    return Lookup(
        HashColsKey(cols, row, width_),
        [&](const Value* stored) { return EqualCols(stored, cols, row); },
        &empty);
  }

  int64_t num_keys() const { return num_keys_; }
  int key_width() const { return width_; }

  /// The packed key store: num_keys() rows of key_width() values in
  /// first-insertion order. The columnar projection kernel reads a
  /// morsel-local index's keys straight out of here — morsel-local
  /// distinct keys in first-occurrence order — so the global merge can
  /// reproduce the sequential kernel's emit order exactly.
  const Value* key_data() const { return keys_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  // Ids live in the low 32 bits of a slot; the all-ones id marks an
  // empty slot, so ids stay below 2^31 with room to spare.
  static constexpr int64_t kMaxKeys = int64_t{1} << 31;

  void AllocSlots(int64_t capacity) {
    mask_ = static_cast<uint64_t>(capacity - 1);
    grow_at_ = capacity * 2 / 3;
    slots_ = arena_->AllocSpan<uint64_t>(capacity);
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

  bool EqualCols(const Value* stored, const Value* const* cols,
                 int64_t row) const {
    for (int c = 0; c < width_; ++c) {
      if (stored[c] != cols[c][row]) return false;
    }
    return true;
  }

  // Probes for the key hashing to `hash`; `eq` compares it with a stored
  // key. Returns its id, or -1 with *empty_slot set to the free slot that
  // ended the probe sequence.
  template <typename Eq>
  int64_t Lookup(uint64_t hash, Eq eq, uint64_t* empty_slot) const {
    const uint64_t tag = hash >> 32;
    uint64_t slot = tag & mask_;
    while (true) {
      const uint64_t s = slots_[slot];
      if (s == kEmpty) {
        *empty_slot = slot;
        return -1;
      }
      if ((s >> 32) == tag) {
        const auto id = static_cast<int64_t>(s & 0xFFFFFFFFULL);
        if (eq(keys_ + id * width_)) return id;
      }
      slot = (slot + 1) & mask_;
    }
  }

  template <typename Eq, typename Store>
  int64_t Insert(uint64_t hash, Eq eq, Store store, bool* inserted) {
    if (num_keys_ >= grow_at_) Grow();
    uint64_t slot;
    const int64_t id = Lookup(hash, eq, &slot);
    if (id >= 0) {
      *inserted = false;
      return id;
    }
    const int64_t fresh = num_keys_++;
    PPR_CHECK(fresh < kMaxKeys);
    PPR_DCHECK(fresh < max_keys_);
    slots_[slot] =
        (hash & 0xFFFFFFFF00000000ULL) | static_cast<uint64_t>(fresh);
    store(keys_ + fresh * width_);
    *inserted = true;
    return fresh;
  }

  // Doubles the slot array and re-seats every slot at the home its tag
  // names in the larger table. The old slot array stays behind in the
  // arena until the enclosing scope releases it (bounded by 2x the final
  // table size).
  void Grow() {
    const std::span<const uint64_t> old = slots_;
    AllocSlots(static_cast<int64_t>(old.size()) * 2);
    for (const uint64_t s : old) {
      if (s == kEmpty) continue;
      uint64_t slot = (s >> 32) & mask_;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = s;
    }
  }

  ExecArena* arena_;
  int width_;
  uint64_t mask_ = 0;
  int64_t grow_at_ = 0;
  std::span<uint64_t> slots_;
  Value* keys_;
  int64_t max_keys_;
  int64_t num_keys_ = 0;
};

/// Strided views of `rel`'s columns `key_cols` for the column-major
/// FlatKeyIndex entry points: view c is column key_cols[c], and row i of
/// `rel` is index i * rel.arity(). The views come from `arena`.
inline const Value** KeyColumns(const Relation& rel,
                                std::span<const int> key_cols,
                                ExecArena& arena) {
  const Value** cols =
      arena.AllocSpan<const Value*>(static_cast<int64_t>(key_cols.size()))
          .data();
  for (size_t c = 0; c < key_cols.size(); ++c) {
    cols[c] = rel.data() + key_cols[c];
  }
  return cols;
}

/// Hash index over the build side of a join: a FlatKeyIndex over the key
/// columns plus a CSR layout grouping build-row ids by key. A probe is
/// split in two so a kernel hashes each probe row once: FindGroup maps a
/// key to its group id, and Matches yields that group's build rows as a
/// contiguous span in build-row order (the same emit order as the seed
/// interpreter's bucket vectors). A counting pass keeps the group ids and
/// the emit pass reads matches from them without hashing again.
class JoinIndex {
 public:
  /// Indexes `build` on `key_cols`; scratch comes from `arena` and stays
  /// valid until the enclosing ArenaScope releases it.
  JoinIndex(const Relation& build, std::span<const int> key_cols,
            ExecArena& arena)
      : index_(build.size(), static_cast<int>(key_cols.size()), arena) {
    const int64_t n = build.size();
    const int arity = build.arity();

    const Value* const* cols = KeyColumns(build, key_cols, arena);
    std::span<int64_t> group_of = arena.AllocSpan<int64_t>(n);
    for (int64_t i = 0; i < n; ++i) {
      bool inserted;
      group_of[i] = index_.InsertOrFindCols(cols, i * arity, &inserted);
    }

    const int64_t groups = index_.num_keys();
    offsets_ = arena.AllocSpan<int64_t>(groups + 1);
    std::fill(offsets_.begin(), offsets_.end(), int64_t{0});
    for (int64_t i = 0; i < n; ++i) offsets_[group_of[i] + 1]++;
    for (int64_t g = 0; g < groups; ++g) offsets_[g + 1] += offsets_[g];

    rows_ = arena.AllocSpan<int64_t>(n);
    std::span<int64_t> fill = arena.AllocSpan<int64_t>(groups);
    std::fill(fill.begin(), fill.end(), int64_t{0});
    for (int64_t i = 0; i < n; ++i) {
      const int64_t g = group_of[i];
      rows_[offsets_[g] + fill[g]++] = i;
    }
  }

  /// Group id of the key (cols[0][row], ..., cols[k-1][row]) — column
  /// views as KeyColumns makes them — or -1 when no build row has it.
  int64_t FindGroup(const Value* const* cols, int64_t row) const {
    return index_.FindCols(cols, row);
  }

  /// Build-row ids of group `group`, ascending; empty span for -1.
  std::span<const int64_t> Matches(int64_t group) const {
    if (group < 0) return {};
    return {rows_.data() + offsets_[group],
            static_cast<size_t>(offsets_[group + 1] - offsets_[group])};
  }

 private:
  FlatKeyIndex index_;
  std::span<int64_t> offsets_;
  std::span<int64_t> rows_;
};

}  // namespace ppr

#endif  // PPR_RELATIONAL_FLAT_HASH_H_
