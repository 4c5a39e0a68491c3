// Unit tests for the hash tables under every hash kernel: the two-lane key
// hash (common/hash.h), FlatKeyIndex and JoinIndex (relational/flat_hash.h),
// and the projection kernels that dedup straight into their output rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/rng.h"
#include "relational/batch_ops.h"
#include "relational/exec_context.h"
#include "obs/trace.h"
#include "relational/flat_hash.h"
#include "relational/ops.h"

// The tests hash short fixed-size keys through code that reads up to
// `width` values; gcc's -Warray-bounds cannot tie the reads to the
// runtime width and flags the longer-key paths it never takes.
#pragma GCC diagnostic ignored "-Warray-bounds"

namespace ppr {
namespace {

// The home slot of `key` in a table of `slots` slots (a power of two).
uint64_t HomeSlot(const std::vector<Value>& key, uint64_t slots) {
  return (HashPackedKey(key.data(), static_cast<int>(key.size())) >> 32) &
         (slots - 1);
}

TEST(FlatKeyIndexTest, IdsAreDenseInFirstInsertionOrder) {
  ExecArena arena;
  const std::vector<std::vector<Value>> keys = {
      {1, 2, 3}, {3, 2, 1}, {1, 2, 3}, {0, 0, 0}, {3, 2, 1}, {7, 7, 7}};
  FlatKeyIndex index(static_cast<int64_t>(keys.size()), 3, arena);
  const std::vector<int64_t> want_ids = {0, 1, 0, 2, 1, 3};
  const std::vector<bool> want_inserted = {true,  true,  false,
                                           true,  false, true};
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    EXPECT_EQ(index.InsertOrFind(keys[i].data(), &inserted), want_ids[i]) << i;
    EXPECT_EQ(inserted, want_inserted[i]) << i;
  }
  ASSERT_EQ(index.num_keys(), 4);
  const std::vector<Value> want_store = {1, 2, 3, 3, 2, 1, 0, 0, 0, 7, 7, 7};
  EXPECT_TRUE(std::equal(want_store.begin(), want_store.end(),
                         index.key_data()));
}

TEST(FlatKeyIndexTest, FindReturnsMinusOneForAbsentKeys) {
  ExecArena arena;
  FlatKeyIndex index(64, 2, arena);
  const std::vector<Value> absent = {5, 6};
  EXPECT_EQ(index.Find(absent.data()), -1);  // empty table
  for (Value v = 0; v < 40; ++v) {
    const std::vector<Value> key = {v, v + 1};
    bool inserted;
    index.InsertOrFind(key.data(), &inserted);
  }
  for (Value v = 0; v < 40; ++v) {
    const std::vector<Value> present = {v, v + 1};
    const std::vector<Value> swapped = {v + 1, v};
    const std::vector<Value> other = {v, v + 2};
    EXPECT_EQ(index.Find(present.data()), v);
    EXPECT_EQ(index.Find(swapped.data()), -1) << v;
    EXPECT_EQ(index.Find(other.data()), -1) << v;
  }
}

TEST(FlatKeyIndexTest, MillionInsertsReachTheirFinalSizeInThreeGrows) {
  // A table sized for more than 1024 keys starts at 2048 slots; 1M keys
  // at a 2/3 load factor need 2^21 slots. Every key is new, so each grow
  // extrapolates to the whole bound and is capped at 8x the capacity the
  // keys probed so far fill: 2^11 -> 2^15 -> 2^19 -> 2^21, each
  // re-seating every slot from its tag alone.
  constexpr int64_t kKeys = 1 << 20;
  ExecArena arena;
  FlatKeyIndex index(kKeys, 2, arena);
  std::vector<int64_t> capacities = {index.capacity()};
  for (int64_t i = 0; i < kKeys; ++i) {
    const Value key[2] = {static_cast<Value>(i % 1021),
                          static_cast<Value>(i / 1021)};
    bool inserted = false;
    ASSERT_EQ(index.InsertOrFind(key, &inserted), i);
    ASSERT_TRUE(inserted);
    if (index.capacity() != capacities.back()) {
      capacities.push_back(index.capacity());
    }
  }
  EXPECT_EQ(capacities,
            (std::vector<int64_t>{1 << 11, 1 << 15, 1 << 19, 1 << 21}));
  ASSERT_EQ(index.num_keys(), kKeys);
  for (int64_t i = 0; i < kKeys; i += 997) {
    const Value key[2] = {static_cast<Value>(i % 1021),
                          static_cast<Value>(i / 1021)};
    bool inserted = true;
    EXPECT_EQ(index.InsertOrFind(key, &inserted), i);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(index.Find(key), i);
    EXPECT_EQ(index.key_data()[2 * i], key[0]);
    EXPECT_EQ(index.key_data()[2 * i + 1], key[1]);
  }
  const Value absent[2] = {1021, 0};
  EXPECT_EQ(index.Find(absent), -1);
}

// Inserts row `row` of a block-probe layout on its own (a one-row block).
int64_t InsertRow(FlatKeyIndex& index, const Value* const* cols,
                  int64_t stride, int64_t row, bool* inserted) {
  int64_t got = -1;
  index.InsertRows(cols, stride, row, row + 1,
                   [&](int64_t, int64_t id, bool fresh) {
                     got = id;
                     *inserted = fresh;
                     return true;
                   });
  return got;
}

int64_t FindRow(const FlatKeyIndex& index, const Value* const* cols,
                int64_t stride, int64_t row) {
  int64_t got = -2;
  index.FindRows(cols, stride, row, row + 1, [&](int64_t, int64_t id) {
    got = id;
    return true;
  });
  return got;
}

TEST(FlatKeyIndexTest, PackedAndColumnIdsInteroperateAcrossGrow) {
  // Row-major relation of arity 5 whose key is columns (3, 0, 4); rows
  // alternate between the packed and the strided-column (block) entry
  // points, and 300 distinct keys force grows in between.
  constexpr int kArity = 5;
  constexpr int kRows = 600;
  Rng rng(17);
  std::vector<Value> rows(static_cast<size_t>(kRows * kArity));
  for (int i = 0; i < kRows; ++i) {
    for (int c = 0; c < kArity; ++c) {
      rows[static_cast<size_t>(i * kArity + c)] =
          c == 1 ? static_cast<Value>(rng.NextBounded(1000))
                 : static_cast<Value>((i % 300) * (c + 1));
    }
  }
  const int key_cols[3] = {3, 0, 4};
  const Value* cols[3];
  for (int c = 0; c < 3; ++c) cols[c] = rows.data() + key_cols[c];
  const auto packed = [&](int i) {
    std::vector<Value> key(3);
    for (int c = 0; c < 3; ++c) {
      key[static_cast<size_t>(c)] =
          rows[static_cast<size_t>(i * kArity + key_cols[c])];
    }
    return key;
  };

  ExecArena arena;
  FlatKeyIndex index(kRows, 3, arena);
  for (int i = 0; i < kRows; ++i) {
    bool inserted = false;
    const int64_t id =
        i % 2 == 0 ? index.InsertOrFind(packed(i).data(), &inserted)
                   : InsertRow(index, cols, kArity, i, &inserted);
    EXPECT_EQ(id, i % 300) << i;
    EXPECT_EQ(inserted, i < 300) << i;
  }
  ASSERT_EQ(index.num_keys(), 300);
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(index.Find(packed(i).data()), i % 300);
    EXPECT_EQ(FindRow(index, cols, kArity, i), i % 300);
    const std::vector<Value> key = packed(i);
    EXPECT_TRUE(std::equal(key.begin(), key.end(),
                           index.key_data() + (i % 300) * 3));
  }
}

TEST(FlatKeyIndexTest, KeysSharingAHomeSlotGetDistinctIds) {
  // Ten keys with one home slot in the 16-slot start table (its grow
  // threshold), found by search.
  std::vector<std::vector<Value>> same_home;
  for (Value v = 0; same_home.size() < 10; ++v) {
    std::vector<Value> key = {v, 3 * v, 11};
    if (HomeSlot(key, 16) == 5) same_home.push_back(std::move(key));
  }
  ExecArena arena;
  FlatKeyIndex index(10, 3, arena);
  for (size_t i = 0; i < same_home.size(); ++i) {
    bool inserted = false;
    EXPECT_EQ(index.InsertOrFind(same_home[i].data(), &inserted),
              static_cast<int64_t>(i));
    EXPECT_TRUE(inserted);
  }
  for (size_t i = 0; i < same_home.size(); ++i) {
    EXPECT_EQ(index.Find(same_home[i].data()), static_cast<int64_t>(i));
  }
}

TEST(FlatKeyIndexTest, KeysSharingATagGetDistinctIds) {
  // Distinct keys whose 32-bit tags (and so home slots) are identical,
  // found by a birthday search: the stored key, not the tag, decides.
  std::unordered_map<uint64_t, std::vector<Value>> by_tag;
  std::vector<std::vector<Value>> pairs;
  for (Value a = 0; a < 1000 && pairs.size() < 4; ++a) {
    for (Value b = 0; b < 400 && pairs.size() < 4; ++b) {
      std::vector<Value> key = {a, b};
      const uint64_t tag = HashPackedKey(key.data(), 2) >> 32;
      const auto [it, fresh] = by_tag.emplace(tag, key);
      if (!fresh) {
        pairs.push_back(it->second);
        pairs.push_back(std::move(key));
      }
    }
  }
  ASSERT_GE(pairs.size(), 2u) << "no tag collision among 400K keys";
  ExecArena arena;
  FlatKeyIndex index(static_cast<int64_t>(pairs.size()), 2, arena);
  for (size_t i = 0; i < pairs.size(); ++i) {
    bool inserted = false;
    EXPECT_EQ(index.InsertOrFind(pairs[i].data(), &inserted),
              static_cast<int64_t>(i));
    EXPECT_TRUE(inserted);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(index.Find(pairs[i].data()), static_cast<int64_t>(i));
  }
}

// Row-major rows of `arity` values; the key is columns (2, 0) of each.
struct KeyedRows {
  static constexpr int kArity = 3;
  std::vector<Value> values;
  const Value* cols[2];

  explicit KeyedRows(const std::vector<std::pair<Value, Value>>& keys) {
    values.reserve(keys.size() * kArity);
    for (const auto& [a, b] : keys) {
      values.insert(values.end(), {b, 99, a});
    }
    cols[0] = values.data() + 2;
    cols[1] = values.data() + 0;
  }
  int64_t rows() const { return static_cast<int64_t>(values.size()) / kArity; }
  std::vector<Value> key(int64_t r) const {
    return {values[static_cast<size_t>(r * kArity + 2)],
            values[static_cast<size_t>(r * kArity)]};
  }
};

TEST(FlatKeyIndexTest, BlockProbesMatchOneAtATimeInserts) {
  // 5000 rows over about 2500 keys: the tables grow several times. Blocks
  // of 1, 15, 16 and 17 rows (short, exact and straddling kProbeBlock)
  // give the ids, flags and key order of one InsertOrFind per row.
  Rng rng(31);
  std::vector<std::pair<Value, Value>> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.emplace_back(static_cast<Value>(rng.NextBounded(50)),
                      static_cast<Value>(rng.NextBounded(50)));
  }
  const KeyedRows in(keys);
  ExecArena want_arena;
  FlatKeyIndex want(in.rows(), 2, want_arena);
  std::vector<int64_t> want_ids;
  std::vector<bool> want_inserted;
  for (int64_t r = 0; r < in.rows(); ++r) {
    bool inserted;
    want_ids.push_back(want.InsertOrFind(in.key(r).data(), &inserted));
    want_inserted.push_back(inserted);
  }
  ASSERT_GT(want.capacity(), 2048);

  for (const int block : {1, 15, 16, 17}) {
    SCOPED_TRACE(::testing::Message() << "block " << block);
    ExecArena arena;
    FlatKeyIndex index(in.rows(), 2, arena);
    std::vector<int64_t> ids;
    std::vector<bool> inserted;
    for (int64_t b = 0; b < in.rows(); b += block) {
      const int64_t end = std::min<int64_t>(b + block, in.rows());
      const int64_t visited = index.InsertRows(
          in.cols, KeyedRows::kArity, b, end,
          [&](int64_t row, int64_t id, bool fresh) {
            EXPECT_EQ(row, static_cast<int64_t>(ids.size()));
            ids.push_back(id);
            inserted.push_back(fresh);
            return true;
          });
      EXPECT_EQ(visited, end - b);
    }
    EXPECT_EQ(ids, want_ids);
    EXPECT_EQ(inserted, want_inserted);
    ASSERT_EQ(index.num_keys(), want.num_keys());
    EXPECT_TRUE(std::equal(want.key_data(),
                           want.key_data() + 2 * want.num_keys(),
                           index.key_data()));
    int64_t found = 0;
    index.FindRows(in.cols, KeyedRows::kArity, 0, in.rows(),
                   [&](int64_t row, int64_t id) {
                     EXPECT_EQ(id, want_ids[static_cast<size_t>(row)]);
                     ++found;
                     return true;
                   });
    EXPECT_EQ(found, in.rows());
  }
}

TEST(FlatKeyIndexTest, BlockProbesStopAfterTheRowTheVisitRejects) {
  std::vector<std::pair<Value, Value>> keys;
  for (int i = 0; i < 40; ++i) keys.emplace_back(i % 7, 0);
  const KeyedRows in(keys);
  ExecArena arena;
  FlatKeyIndex index(in.rows(), 2, arena);
  // Stop at row 20, mid-way through the second block.
  int64_t last = -1;
  EXPECT_EQ(index.InsertRows(in.cols, KeyedRows::kArity, 0, in.rows(),
                             [&](int64_t row, int64_t, bool) {
                               last = row;
                               return row < 20;
                             }),
            21);
  EXPECT_EQ(last, 20);
  EXPECT_EQ(index.num_keys(), 7);
  EXPECT_EQ(index.FindRows(in.cols, KeyedRows::kArity, 3, in.rows(),
                           [](int64_t row, int64_t id) {
                             EXPECT_EQ(id, row % 7);
                             return row != 3;
                           }),
            1);
}

TEST(FlatKeyIndexTest, UndershootingEstimateStillGrows) {
  // 50000 copies of three keys, then 60000 distinct ones: every grow
  // extrapolates from a distinct ratio still diluted by the copies and
  // undershoots, so the table must keep growing as the distinct keys
  // arrive, and every id holds.
  std::vector<std::pair<Value, Value>> keys;
  for (int i = 0; i < 50000; ++i) keys.emplace_back(i % 3, -1);
  for (int i = 0; i < 60000; ++i) keys.emplace_back(i, i);
  const KeyedRows in(keys);
  ExecArena arena;
  FlatKeyIndex index(in.rows(), 2, arena);
  const int64_t start = index.capacity();
  std::vector<int64_t> capacities;
  int64_t next_fresh = 0;
  for (int64_t b = 0; b < in.rows(); b += FlatKeyIndex::kProbeBlock) {
    index.InsertRows(in.cols, KeyedRows::kArity, b,
                     std::min<int64_t>(b + FlatKeyIndex::kProbeBlock,
                                       in.rows()),
                     [&](int64_t row, int64_t id, bool inserted) {
                       const int64_t want =
                           row < 50000 ? row % 3 : row - 49997;
                       EXPECT_EQ(id, want) << row;
                       EXPECT_EQ(inserted, id == next_fresh) << row;
                       if (inserted) ++next_fresh;
                       return true;
                     });
    if (index.capacity() != (capacities.empty() ? start : capacities.back())) {
      capacities.push_back(index.capacity());
    }
  }
  EXPECT_EQ(index.num_keys(), 60003);
  EXPECT_GE(capacities.size(), 4u);
  EXPECT_GE(index.capacity() * 2, index.num_keys() * 3);
  for (int64_t r = 0; r < in.rows(); r += 101) {
    EXPECT_EQ(index.Find(in.key(r).data()), r < 50000 ? r % 3 : r - 49997);
  }
}

TEST(FlatKeyIndexTest, LowDistinctInputKeepsItsInitialSlots) {
  // 262,144 rows over 9 keys: the extrapolated distinct count never
  // exceeds the start table, so the arena holds the one 2048-slot array
  // (the key store is the caller's).
  constexpr int64_t kRows = 1 << 18;
  std::vector<std::pair<Value, Value>> keys;
  for (int64_t i = 0; i < kRows; ++i) {
    keys.emplace_back(static_cast<Value>(i % 3),
                      static_cast<Value>((i / 3) % 3));
  }
  const KeyedRows in(keys);
  std::vector<Value> store(static_cast<size_t>(2 * kRows));
  ExecArena arena;
  FlatKeyIndex index(kRows, 2, arena, store.data());
  const int64_t start = index.capacity();
  EXPECT_EQ(start, 2048);
  EXPECT_EQ(index.InsertRows(in.cols, KeyedRows::kArity, 0, kRows,
                             [](int64_t, int64_t, bool) { return true; }),
            kRows);
  EXPECT_EQ(index.num_keys(), 9);
  EXPECT_EQ(index.capacity(), start);
  EXPECT_EQ(arena.bytes_in_use(), 2048 * sizeof(uint64_t));
}

TEST(KeyHashTest, PackedAndColumnHashesAgreeForWidthsZeroTo24) {
  Rng rng(5);
  for (int width = 0; width <= 24; ++width) {
    for (int trial = 0; trial < 50; ++trial) {
      // Row-major rows of `width + 2` values; the key is the columns
      // 1 .. width of row 3, read packed, column-major and strided.
      const int arity = width + 2;
      std::vector<Value> rows(static_cast<size_t>(5 * arity));
      for (Value& v : rows) {
        v = static_cast<Value>(rng.NextU64());
      }
      std::vector<Value> key(static_cast<size_t>(width));
      std::vector<const Value*> strided(static_cast<size_t>(width));
      std::vector<std::vector<Value>> columns(static_cast<size_t>(width));
      std::vector<const Value*> column_ptrs(static_cast<size_t>(width));
      for (int c = 0; c < width; ++c) {
        const auto uc = static_cast<size_t>(c);
        key[uc] = rows[static_cast<size_t>(3 * arity + 1 + c)];
        strided[uc] = rows.data() + 1 + c;
        columns[uc] = {0, 0, 0, key[uc]};
        column_ptrs[uc] = columns[uc].data();
      }
      const uint64_t h = HashPackedKey(key.data(), width);
      EXPECT_EQ(HashColsKey(strided.data(), 3 * arity, width), h) << width;
      EXPECT_EQ(HashColsKey(column_ptrs.data(), 3, width), h) << width;
      // Every value position reaches the hash (no lane drops a value).
      for (int c = 0; c < width; ++c) {
        std::vector<Value> changed = key;
        changed[static_cast<size_t>(c)] ^= 1;
        EXPECT_NE(HashPackedKey(changed.data(), width), h)
            << "width " << width << " position " << c;
      }
    }
  }
}

TEST(KeyHashTest, BlockHashMatchesPerKeyHash) {
  // Rows of a row-major relation of arity 26 hashed on their first
  // `width` columns, in blocks of every length up to 16 starting at
  // every row offset of a 40-row input.
  constexpr int kArity = 26;
  constexpr int kRows = 40;
  Rng rng(7);
  std::vector<Value> rows(static_cast<size_t>(kRows * kArity));
  for (Value& v : rows) v = static_cast<Value>(rng.NextU64());
  const Value* cols[kArity];
  for (int c = 0; c < kArity; ++c) cols[c] = rows.data() + c;
  for (int width = 0; width <= 24; ++width) {
    for (int n = 1; n <= 16; ++n) {
      for (int first = 0; first + n <= kRows; first += 7) {
        uint64_t block[16];
        HashColsBlock(cols, kArity, first, n, width, block);
        for (int j = 0; j < n; ++j) {
          EXPECT_EQ(block[j],
                    HashColsKey(cols, int64_t{first + j} * kArity, width))
              << "width " << width << " n " << n << " row " << first + j;
        }
      }
    }
  }
}

TEST(JoinIndexTest, MatchSpansAscendInBuildRowOrder) {
  Rng rng(9);
  Relation build{Schema({0, 1, 2})};
  for (int i = 0; i < 200; ++i) {
    build.AddTuple({static_cast<Value>(rng.NextBounded(5)),
                    static_cast<Value>(i),
                    static_cast<Value>(rng.NextBounded(3))});
  }
  ExecArena arena;
  const std::vector<int> key_cols = {2, 0};
  const JoinIndex index(build, key_cols, arena);
  std::map<std::vector<Value>, std::vector<int64_t>> want;
  for (int64_t i = 0; i < build.size(); ++i) {
    want[{build.at(i, 2), build.at(i, 0)}].push_back(i);
  }
  const auto group_of = [](const JoinIndex& idx, const Value* const* cols) {
    int64_t got = -2;
    idx.FindGroups(cols, 0, 0, 1, [&](int64_t, int64_t g) {
      got = g;
      return true;
    });
    return got;
  };
  for (const auto& [key, rows] : want) {
    const Value* cols[2] = {&key[0], &key[1]};
    const int64_t g = group_of(index, cols);
    ASSERT_GE(g, 0);
    const std::span<const int64_t> got = index.Matches(g);
    EXPECT_EQ(std::vector<int64_t>(got.begin(), got.end()), rows);
  }
  const Value absent[2] = {3, 0};
  const Value* absent_cols[2] = {&absent[0], &absent[1]};
  EXPECT_EQ(group_of(index, absent_cols), -1);
  EXPECT_TRUE(index.Matches(-1).empty());

  // Key width 0: one group holding every build row, ascending.
  const JoinIndex cross(build, std::span<const int>{}, arena);
  const int64_t g = group_of(cross, nullptr);
  ASSERT_EQ(g, 0);
  const std::span<const int64_t> all = cross.Matches(g);
  ASSERT_EQ(static_cast<int64_t>(all.size()), build.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<int64_t>(i));
  }
}

// Projection dedups into its output rows: the reserved store holds
// min(input rows, budget headroom) rows. At headroom 5, distinct - 1,
// distinct and distinct + 1, and unbudgeted, every partition must emit the
// first-occurrence prefix of the naive reference, charge exactly that
// many tuples, count the whole reserved store in peak_bytes, and report
// the probes it made. The input repeats each of its 60 keys about 65
// times, so unbudgeted the store is 4000 rows, well above the largest
// start slot array (2048 slots): a footprint taken after the output is
// truncated to its distinct rows would fall short. The budget runs out
// at the row where the headroom-th distinct key first appears, in the
// middle of a probe block.
class InPlaceProjectTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 4000;
  static constexpr int64_t kMorselRows = 250;

  void SetUp() override {
    Rng rng(23);
    input_ = Relation{Schema({0, 1, 2, 3})};
    for (int i = 0; i < kRows; ++i) {
      input_.AddTuple({static_cast<Value>(rng.NextBounded(4)),
                       static_cast<Value>(rng.NextBounded(1000)),
                       static_cast<Value>(rng.NextBounded(3)),
                       static_cast<Value>(rng.NextBounded(5))});
    }
    spec_ = PlanProject(input_.schema(), {3, 0, 2});
    // Naive first-occurrence distinct keys, globally and per morsel.
    std::vector<std::vector<Value>> seen;
    std::vector<std::vector<Value>> morsel_seen;
    for (int64_t i = 0; i < input_.size(); ++i) {
      if (i % kMorselRows == 0) morsel_seen.clear();
      std::vector<Value> key;
      for (int c : spec_.cols) key.push_back(input_.at(i, c));
      if (std::find(morsel_seen.begin(), morsel_seen.end(), key) ==
          morsel_seen.end()) {
        morsel_seen.push_back(key);
        ++sum_morsel_distinct_;
      }
      if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
        seen.push_back(std::move(key));
        first_row_.push_back(i);
      }
    }
    distinct_ = seen;
  }

  // How the project spans count probes when the budget stops the kernel
  // at row `stop` (-1: not stopped).
  enum class Probes {
    kRowsThroughStop,  // single morsel: every row through the stop probed
    kAllRows,          // multi-morsel: phase A probes every row; the
                       // budget stops only the merge
  };

  void Check(const MorselExec& mx, int64_t store_upper, Probes probes,
             const char* name) {
    const auto d = static_cast<int64_t>(distinct_.size());
    ASSERT_EQ(d, 60);  // every key of the 5 x 4 x 3 domain, repeated
    const int64_t block = FlatKeyIndex::kProbeBlock;
    ASSERT_NE(first_row_[4] % block, block - 1);  // headroom 5: mid-block
    ASSERT_NE(first_row_[static_cast<size_t>(d - 1)] % block, block - 1);
    for (const Counter headroom : {Counter{5}, d - 1, d, d + 1, kCounterMax}) {
      SCOPED_TRACE(::testing::Message()
                   << name << " headroom " << headroom << " distinct " << d);
      // A fresh context with budget b has headroom b + 1.
      ExecContext ctx(headroom == kCounterMax ? kCounterMax : headroom - 1);
      ASSERT_EQ(ctx.budget_headroom(), headroom);
      TraceSink sink(1024);
      ctx.set_tracer(&sink);
      std::vector<int64_t> accounts;
      const Relation out =
          ProjectColumns(input_, spec_, ctx, mx, &accounts);
      int64_t accounted = 0;
      for (int64_t a : accounts) accounted += a;
      EXPECT_EQ(accounted, out.size());
      const int64_t want_rows = std::min<Counter>(d, headroom);
      ASSERT_EQ(out.size(), want_rows);
      for (int64_t i = 0; i < want_rows; ++i) {
        const std::span<const Value> row = out.row(i);
        EXPECT_EQ(std::vector<Value>(row.begin(), row.end()),
                  distinct_[static_cast<size_t>(i)])
            << "row " << i;
      }
      EXPECT_EQ(ctx.stats().tuples_produced, want_rows);
      EXPECT_EQ(ctx.exhausted(), d >= headroom);
      const int64_t reserved_rows = std::min<Counter>(store_upper, headroom);
      EXPECT_GE(ctx.stats().peak_bytes,
                reserved_rows * 3 * static_cast<int64_t>(sizeof(Value)));

      const int64_t stop =
          d >= headroom ? first_row_[static_cast<size_t>(headroom - 1)] : -1;
      int64_t want_probes = kRows;
      if (stop >= 0 && probes == Probes::kRowsThroughStop) {
        want_probes = stop + 1;
      }
      int64_t got_probes = 0;
      for (const TraceSpan& span : sink.Snapshot()) {
        if (span.op == TraceOp::kProject) got_probes += span.ht_probe_ops;
      }
      EXPECT_EQ(got_probes, want_probes);
    }
  }

  Relation input_;
  ProjectSpec spec_;
  std::vector<std::vector<Value>> distinct_;
  // Row of each distinct key's first occurrence.
  std::vector<int64_t> first_row_;
  int64_t sum_morsel_distinct_ = 0;
};

// The inline route's partition: the whole input is one morsel.
TEST_F(InPlaceProjectTest, SingleMorselAtBudgetBoundary) {
  ASSERT_EQ(WholeInputMorsel().NumMorsels(kRows), 1);
  Check(WholeInputMorsel(), kRows, Probes::kRowsThroughStop,
        "columnar single-morsel");
}

TEST_F(InPlaceProjectTest, MultiMorselAtBudgetBoundary) {
  MorselExec mx;
  mx.morsel_rows = kMorselRows;
  ASSERT_GT(mx.NumMorsels(kRows), 1);
  Check(mx, sum_morsel_distinct_, Probes::kAllRows,
        "columnar multi-morsel");
}

}  // namespace
}  // namespace ppr
