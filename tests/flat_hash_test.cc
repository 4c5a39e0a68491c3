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

TEST(FlatKeyIndexTest, MillionInsertsSurviveTenDoublings) {
  // A table sized for more than 1024 keys starts at 2048 slots; 1M keys
  // at a 2/3 load factor need 2^21 slots, ten doublings later, each
  // re-seating every slot from its tag alone.
  constexpr int64_t kKeys = 1 << 20;
  ExecArena arena;
  FlatKeyIndex index(kKeys, 2, arena);
  for (int64_t i = 0; i < kKeys; ++i) {
    const Value key[2] = {static_cast<Value>(i % 1021),
                          static_cast<Value>(i / 1021)};
    bool inserted = false;
    ASSERT_EQ(index.InsertOrFind(key, &inserted), i);
    ASSERT_TRUE(inserted);
  }
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

TEST(FlatKeyIndexTest, PackedAndColumnIdsInteroperateAcrossGrow) {
  // Row-major relation of arity 5 whose key is columns (3, 0, 4); rows
  // alternate between the packed and the strided-column entry points, and
  // 300 distinct keys force several grows in between.
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
                   : index.InsertOrFindCols(cols, int64_t{i} * kArity,
                                            &inserted);
    EXPECT_EQ(id, i % 300) << i;
    EXPECT_EQ(inserted, i < 300) << i;
  }
  ASSERT_EQ(index.num_keys(), 300);
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(index.Find(packed(i).data()), i % 300);
    EXPECT_EQ(index.FindCols(cols, int64_t{i} * kArity), i % 300);
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
  for (const auto& [key, rows] : want) {
    const Value* cols[2] = {&key[0], &key[1]};
    const int64_t g = index.FindGroup(cols, 0);
    ASSERT_GE(g, 0);
    const std::span<const int64_t> got = index.Matches(g);
    EXPECT_EQ(std::vector<int64_t>(got.begin(), got.end()), rows);
  }
  const Value absent[2] = {3, 0};
  const Value* absent_cols[2] = {&absent[0], &absent[1]};
  EXPECT_EQ(index.FindGroup(absent_cols, 0), -1);
  EXPECT_TRUE(index.Matches(-1).empty());

  // Key width 0: one group holding every build row, ascending.
  const JoinIndex cross(build, std::span<const int>{}, arena);
  const int64_t g = cross.FindGroup(nullptr, 0);
  ASSERT_EQ(g, 0);
  const std::span<const int64_t> all = cross.Matches(g);
  ASSERT_EQ(static_cast<int64_t>(all.size()), build.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<int64_t>(i));
  }
}

// Projection dedups into its output rows: the reserved store holds
// min(input rows, budget headroom) rows. At headroom distinct - 1,
// distinct and distinct + 1, and unbudgeted, every kernel must emit the
// first-occurrence prefix of the naive reference, charge exactly that
// many tuples, and count the whole reserved store in peak_bytes. The
// input repeats each of its 60 keys about 65 times, so unbudgeted the
// store is 4000 rows, well above the largest start slot array (2048
// slots): a footprint taken after the output is truncated to its
// distinct rows would fall short.
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
      }
    }
    distinct_ = seen;
  }

  void Check(Relation (*kernel)(const Relation&, const ProjectSpec&,
                                ExecContext&, const MorselExec*),
             const MorselExec* mx, int64_t store_upper, const char* name) {
    const auto d = static_cast<int64_t>(distinct_.size());
    ASSERT_EQ(d, 60);  // every key of the 5 x 4 x 3 domain, repeated
    for (const Counter headroom : {d - 1, d, d + 1, kCounterMax}) {
      SCOPED_TRACE(::testing::Message()
                   << name << " headroom " << headroom << " distinct " << d);
      // A fresh context with budget b has headroom b + 1.
      ExecContext ctx(headroom == kCounterMax ? kCounterMax : headroom - 1);
      ASSERT_EQ(ctx.budget_headroom(), headroom);
      const Relation out = kernel(input_, spec_, ctx, mx);
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
    }
  }

  Relation input_;
  ProjectSpec spec_;
  std::vector<std::vector<Value>> distinct_;
  int64_t sum_morsel_distinct_ = 0;
};

Relation RowProject(const Relation& in, const ProjectSpec& spec,
                    ExecContext& ctx, const MorselExec* /*mx*/) {
  return ProjectColumns(in, spec, ctx);
}

Relation ColumnarProject(const Relation& in, const ProjectSpec& spec,
                         ExecContext& ctx, const MorselExec* mx) {
  std::vector<int64_t> accounts;
  Relation out = ProjectColumnsColumnar(in, spec, ctx, *mx, &accounts);
  int64_t sum = 0;
  for (int64_t a : accounts) sum += a;
  EXPECT_EQ(sum, out.size());
  return out;
}

TEST_F(InPlaceProjectTest, RowKernelAtBudgetBoundary) {
  Check(&RowProject, nullptr, kRows, "row");
}

TEST_F(InPlaceProjectTest, ColumnarSingleMorselAtBudgetBoundary) {
  MorselExec mx;
  mx.morsel_rows = 1 << 16;
  ASSERT_EQ(mx.NumMorsels(kRows), 1);
  Check(&ColumnarProject, &mx, kRows, "columnar single-morsel");
}

TEST_F(InPlaceProjectTest, ColumnarMultiMorselAtBudgetBoundary) {
  MorselExec mx;
  mx.morsel_rows = kMorselRows;
  ASSERT_GT(mx.NumMorsels(kRows), 1);
  Check(&ColumnarProject, &mx, sum_morsel_distinct_, "columnar multi-morsel");
}

}  // namespace
}  // namespace ppr
