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
/// are probed linearly. No per-key heap allocation — the replacement for
/// the seed's unordered_{map,set}<std::vector<Value>>.
///
/// Kernels probe in blocks (InsertRows / FindRows): a block of
/// kProbeBlock rows is hashed first, a word at a time across the block
/// straight out of the strided key columns (HashColsBlock), and the home
/// slot of each is prefetched; the rows are then
/// inserted or found one by one in row order, so ids, order and early
/// stops are those of a row-at-a-time loop while the slot misses of a
/// block overlap.
///
/// Sizing. The slot array starts at 16 to 2048 slots (load under 2/3 at
/// min(max_keys, 1024) keys): distinct counts are usually far below the
/// bound. Before each block the index makes room for the whole block, so
/// a grow never lands mid-block. When it must grow it jumps once to the
/// capacity for the distinct count it extrapolates from its own inserts
/// so far (keys ÷ insert probes × max_keys, capped at max_keys). One step
/// goes at most to kMaxGrowStep times the capacity that every row probed
/// so far would fill, so an early overestimate stays bounded by the
/// evidence (a multi-morsel merge makes one: its first morsel's keys are
/// all new). A low-distinct input keeps its small table; a mostly
/// distinct one reaches its final size in one or two steps instead of
/// doubling through every size between.
class FlatKeyIndex {
 public:
  /// Rows a block probe hashes and prefetches ahead of its probes.
  static constexpr int kProbeBlock = 16;

  /// Accepts up to `max_keys` distinct keys of `key_width` values each.
  /// Keys are stored in `key_store` (max_keys * key_width values, owned
  /// by the caller) or, when it is null, in `arena`; slots always come
  /// from `arena`. Both must outlive the index.
  FlatKeyIndex(int64_t max_keys, int key_width, ExecArena& arena,
               Value* key_store = nullptr)
      : arena_(&arena), width_(key_width), keys_(key_store),
        max_keys_(max_keys) {
    PPR_DCHECK(max_keys >= 0 && key_width >= 0);
    // Never more than 2048 slots upfront: the common case holds far
    // fewer distinct keys than max_keys, and growing from a small table
    // costs less than clearing a huge one.
    AllocSlots(CapacityFor(std::min<int64_t>(max_keys, 1024)));
    if (keys_ == nullptr) {
      keys_ = arena.AllocSpan<Value>(max_keys * key_width).data();
    }
  }

  /// Inserts the keys of rows [begin, end) in row order, where row r's
  /// key is (cols[0][r * stride], ..., cols[key_width-1][r * stride]) —
  /// strided views into a row-major relation (see KeyColumns), or a
  /// packed key store with stride key_width. After each row it calls
  /// `visit(r, id, inserted)`: `id` is the key's dense id in
  /// first-insertion order, `inserted` whether this row created it. The
  /// walk stops after the first row whose visit returns false. Returns
  /// the number of rows visited.
  template <typename Visit>
  int64_t InsertRows(const Value* const* cols, int64_t stride, int64_t begin,
                     int64_t end, Visit visit) {
    uint64_t hashes[kProbeBlock];
    for (int64_t b = begin; b < end; b += kProbeBlock) {
      const int n = static_cast<int>(std::min<int64_t>(kProbeBlock, end - b));
      MakeRoom(n);
      HashBlock</*kForWrite=*/1>(cols, stride, b, n, hashes);
      for (int j = 0; j < n; ++j) {
        const int64_t row = (b + j) * stride;
        bool inserted;
        const int64_t id = InsertHashed(
            hashes[j],
            [&](const Value* stored) { return EqualCols(stored, cols, row); },
            [&](Value* dst) {
              for (int c = 0; c < width_; ++c) dst[c] = cols[c][row];
            },
            &inserted);
        ++probed_;
        if (!visit(b + j, id, inserted)) return b + j + 1 - begin;
      }
    }
    return end - begin;
  }

  /// Finds the keys of rows [begin, end) (layout as in InsertRows) in
  /// row order, calling `visit(r, id)` after each, id -1 when absent.
  /// Stops after the first row whose visit returns false; returns the
  /// number of rows visited.
  template <typename Visit>
  int64_t FindRows(const Value* const* cols, int64_t stride, int64_t begin,
                   int64_t end, Visit visit) const {
    uint64_t hashes[kProbeBlock];
    for (int64_t b = begin; b < end; b += kProbeBlock) {
      const int n = static_cast<int>(std::min<int64_t>(kProbeBlock, end - b));
      HashBlock</*kForWrite=*/0>(cols, stride, b, n, hashes);
      for (int j = 0; j < n; ++j) {
        const int64_t row = (b + j) * stride;
        uint64_t empty;
        const int64_t id = Lookup(
            hashes[j],
            [&](const Value* stored) { return EqualCols(stored, cols, row); },
            &empty);
        if (!visit(b + j, id)) return b + j + 1 - begin;
      }
    }
    return end - begin;
  }

  /// One-key InsertRows over a packed key: returns the id of `key`,
  /// inserting it when new; `*inserted` reports whether this call
  /// created it.
  int64_t InsertOrFind(const Value* key, bool* inserted) {
    MakeRoom(1);
    ++probed_;
    return InsertHashed(
        HashPackedKey(key, width_),
        [&](const Value* stored) {
          return std::equal(key, key + width_, stored);
        },
        [&](Value* dst) { std::copy(key, key + width_, dst); }, inserted);
  }

  /// Returns the id of the packed `key`, or -1 when absent.
  int64_t Find(const Value* key) const {
    uint64_t empty;
    return Lookup(
        HashPackedKey(key, width_),
        [&](const Value* stored) {
          return std::equal(key, key + width_, stored);
        },
        &empty);
  }

  int64_t num_keys() const { return num_keys_; }
  int key_width() const { return width_; }
  /// Current slot-array size (a power of two).
  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }

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
  // Bound on one grow: kMaxGrowStep times the capacity the rows probed so
  // far could fill.
  static constexpr int64_t kMaxGrowStep = 8;

  // Smallest power of two of at least 16 slots holding `keys` keys under
  // the 2/3 load factor.
  static int64_t CapacityFor(int64_t keys) {
    int64_t capacity = 16;
    while (capacity * 2 < keys * 3) capacity <<= 1;
    return capacity;
  }

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

  // Hashes rows [first, first + n) into `hashes` and prefetches each
  // row's home slot (for writing when kForWrite is 1).
  template <int kForWrite>
  void HashBlock(const Value* const* cols, int64_t stride, int64_t first,
                 int n, uint64_t (&hashes)[kProbeBlock]) const {
    HashColsBlock(cols, stride, first, n, width_, hashes);
    for (int j = 0; j < n; ++j) {
      __builtin_prefetch(slots_.data() + ((hashes[j] >> 32) & mask_),
                         kForWrite);
    }
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

  // Inserts without growing: MakeRoom has already made room.
  template <typename Eq, typename Store>
  int64_t InsertHashed(uint64_t hash, Eq eq, Store store, bool* inserted) {
    uint64_t slot;
    const int64_t id = Lookup(hash, eq, &slot);
    if (id >= 0) {
      *inserted = false;
      return id;
    }
    const int64_t fresh = num_keys_++;
    PPR_CHECK(fresh < kMaxKeys);
    PPR_DCHECK(fresh < max_keys_);
    PPR_DCHECK(num_keys_ <= grow_at_);
    slots_[slot] =
        (hash & 0xFFFFFFFF00000000ULL) | static_cast<uint64_t>(fresh);
    store(keys_ + fresh * width_);
    *inserted = true;
    return fresh;
  }

  // Makes room for `n` more keys (never more than max_keys in all). A
  // grow jumps once to the capacity for the extrapolated distinct count
  // (see the class comment), at most kMaxGrowStep times the capacity the
  // rows probed so far, this block's included, could fill.
  void MakeRoom(int64_t n) {
    const int64_t need = std::min(num_keys_ + n, max_keys_);
    if (need <= grow_at_) return;
    const int64_t estimate =
        probed_ == 0 ? max_keys_
                     : std::min(max_keys_, num_keys_ * max_keys_ / probed_);
    Grow(std::max(CapacityFor(need),
                  std::min(CapacityFor(estimate),
                           CapacityFor(probed_ + n) * kMaxGrowStep)));
  }

  // Re-seats every slot at the home its tag names in a table of
  // `capacity` slots. The old slot array stays behind in the arena until
  // the enclosing scope releases it.
  void Grow(int64_t capacity) {
    const std::span<const uint64_t> old = slots_;
    AllocSlots(capacity);
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
  // Insert probes so far: the denominator of the growth extrapolation.
  int64_t probed_ = 0;
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
/// split in two so a kernel hashes each probe row once: FindGroups maps each
/// key to its group id, and Matches yields that group's build rows as a
/// contiguous span in build-row order (the same emit order as the seed
/// interpreter's bucket vectors). A counting pass keeps the group ids and
/// the emit pass reads matches from them without hashing again. Build
/// and probe both run FlatKeyIndex's block probes.
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
    index_.InsertRows(cols, arity, 0, n,
                      [&](int64_t row, int64_t id, bool /*inserted*/) {
                        group_of[row] = id;
                        return true;
                      });

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

  /// Finds the group of each probe row in [begin, end), in row order:
  /// row r's key is (cols[0][r * stride], ..., cols[k-1][r * stride]) —
  /// column views as KeyColumns makes them. Calls `visit(r, group)`, group
  /// -1 when no build row has the key; see FlatKeyIndex::FindRows.
  template <typename Visit>
  int64_t FindGroups(const Value* const* cols, int64_t stride, int64_t begin,
                     int64_t end, Visit visit) const {
    return index_.FindRows(cols, stride, begin, end, visit);
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
