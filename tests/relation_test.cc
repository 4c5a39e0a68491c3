#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "relational/database.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace ppr {
namespace {

TEST(SchemaTest, BasicAccessors) {
  Schema s({3, 1, 7});
  EXPECT_EQ(s.arity(), 3);
  EXPECT_EQ(s.attr(0), 3);
  EXPECT_EQ(s.IndexOf(1), 1);
  EXPECT_EQ(s.IndexOf(42), -1);
  EXPECT_TRUE(s.Contains(7));
  EXPECT_FALSE(s.Contains(0));
}

TEST(SchemaTest, CommonAndDifference) {
  Schema a({1, 2, 3});
  Schema b({3, 4, 1});
  EXPECT_EQ(a.CommonAttrs(b), (std::vector<AttrId>{1, 3}));
  EXPECT_EQ(a.AttrsNotIn(b), (std::vector<AttrId>{2}));
  EXPECT_EQ(b.AttrsNotIn(a), (std::vector<AttrId>{4}));
}

TEST(SchemaTest, SameAttrSetIgnoresOrder) {
  EXPECT_TRUE(Schema({1, 2}).SameAttrSet(Schema({2, 1})));
  EXPECT_FALSE(Schema({1, 2}).SameAttrSet(Schema({1, 3})));
  EXPECT_FALSE(Schema({1}).SameAttrSet(Schema({1, 2})));
  EXPECT_TRUE(Schema(std::vector<AttrId>{}).SameAttrSet(Schema(std::vector<AttrId>{})));
}

TEST(SchemaTest, ToStringShowsAttrs) {
  EXPECT_EQ(Schema({0, 2}).ToString(), "(x0, x2)");
  EXPECT_EQ(Schema(std::vector<AttrId>{}).ToString(), "()");
}

TEST(RelationTest, AddAndAccess) {
  Relation r{Schema({0, 1})};
  EXPECT_TRUE(r.empty());
  r.AddTuple({1, 2});
  r.AddTuple({3, 4});
  EXPECT_EQ(r.size(), 2);
  EXPECT_EQ(r.at(0, 0), 1);
  EXPECT_EQ(r.at(1, 1), 4);
  EXPECT_EQ(r.row(1)[0], 3);
}

TEST(RelationTest, ContainsTuple) {
  Relation r{Schema({0, 1}), {{1, 2}, {3, 4}}};
  EXPECT_TRUE(r.ContainsTuple(std::vector<Value>{1, 2}));
  EXPECT_FALSE(r.ContainsTuple(std::vector<Value>{2, 1}));
}

TEST(RelationTest, NullaryRelationHoldsOneBit) {
  Relation r{Schema(std::vector<AttrId>{})};
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0);
  r.AddTuple(std::span<const Value>{});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.size(), 1);
  r.AddTuple(std::span<const Value>{});  // idempotent
  EXPECT_EQ(r.size(), 1);
}

TEST(RelationTest, DeduplicateInPlace) {
  Relation r{Schema({0}), {{1}, {2}, {1}, {2}, {3}}};
  r.DeduplicateInPlace();
  EXPECT_EQ(r.size(), 3);
  EXPECT_TRUE(r.ContainsTuple(std::vector<Value>{1}));
  EXPECT_TRUE(r.ContainsTuple(std::vector<Value>{2}));
  EXPECT_TRUE(r.ContainsTuple(std::vector<Value>{3}));
}

TEST(RelationTest, SetEqualsIgnoresRowAndColumnOrder) {
  Relation a{Schema({0, 1}), {{1, 2}, {3, 4}}};
  Relation b{Schema({1, 0}), {{4, 3}, {2, 1}}};  // columns swapped
  EXPECT_TRUE(a.SetEquals(b));

  Relation c{Schema({0, 1}), {{1, 2}}};
  EXPECT_FALSE(a.SetEquals(c));
  Relation d{Schema({0, 2}), {{1, 2}, {3, 4}}};  // different attr set
  EXPECT_FALSE(a.SetEquals(d));
}

TEST(RelationTest, SetEqualsTreatsDuplicatesAsSets) {
  Relation a{Schema({0}), {{1}, {1}, {2}}};
  Relation b{Schema({0}), {{2}, {1}}};
  EXPECT_TRUE(a.SetEquals(b));
}

TEST(RelationTest, NullarySetEquals) {
  Relation a{Schema(std::vector<AttrId>{})};
  Relation b{Schema(std::vector<AttrId>{})};
  EXPECT_TRUE(a.SetEquals(b));
  a.AddTuple(std::span<const Value>{});
  EXPECT_FALSE(a.SetEquals(b));
}

TEST(RelationTest, ToStringListsRows) {
  Relation r{Schema({0}), {{5}}};
  EXPECT_EQ(r.ToString(), "(x0) [1 rows]\n  (5)");
}

// Tuple-store tests around the 2 MiB cut: stores below it live on the
// heap, stores at or above it in their own huge-page-aligned mapping.

/// Fewest rows of arity 3 whose store reaches the 2 MiB cut.
constexpr int64_t kRowsPerMap = static_cast<int64_t>(
    (kTupleStoreMapBytes + 3 * sizeof(Value) - 1) / (3 * sizeof(Value)));

/// Distinct, recomputable value of column `c` in row `i`.
Value Cell(int64_t i, int c) { return static_cast<Value>(i * 3 + c); }

void WriteRows(Value* dst, int64_t begin, int64_t end) {
  for (int64_t i = begin; i < end; ++i) {
    for (int c = 0; c < 3; ++c) dst[(i - begin) * 3 + c] = Cell(i, c);
  }
}

/// Checks rows [0, rows) of `r` against Cell; stops at the first miss.
void ExpectCells(const Relation& r, int64_t rows) {
  ASSERT_EQ(r.size(), rows);
  for (int64_t i = 0; i < rows; ++i) {
    for (int c = 0; c < 3; ++c) {
      ASSERT_EQ(r.at(i, c), Cell(i, c)) << "row " << i << " col " << c;
    }
  }
}

Relation MappedRelation(int64_t rows) {
  Relation r{Schema({0, 1, 2})};
  WriteRows(r.GrowRows(rows), 0, rows);
  return r;
}

TEST(RelationStoreTest, AppendRawGrowsFromHeapIntoMapping) {
  Relation r{Schema({0, 1, 2})};
  const int64_t rows = 2 * kRowsPerMap + 5;
  for (int64_t i = 0; i < rows; ++i) {
    const Value row[3] = {Cell(i, 0), Cell(i, 1), Cell(i, 2)};
    r.AppendRaw(row);
  }
  ExpectCells(r, rows);
  EXPECT_GT(r.byte_size(), static_cast<int64_t>(2 * kTupleStoreMapBytes));
}

TEST(RelationStoreTest, GrowThenTruncateKeepsWrittenPrefix) {
  // A heap-sized prefix, then growth past the cut, then a truncate back
  // below it: the prefix and the written part of the growth survive.
  Relation r{Schema({0, 1, 2})};
  WriteRows(r.GrowRows(100), 0, 100);
  const int64_t grown = kRowsPerMap + 1000;
  Value* tail = r.GrowRows(grown);
  const int64_t written = kRowsPerMap / 2;
  WriteRows(tail, 100, 100 + written);
  r.TruncateRows(100 + written);
  ExpectCells(r, 100 + written);
  r.TruncateRows(10);
  ExpectCells(r, 10);
}

TEST(RelationStoreTest, CopyAndMoveOfMappedStore) {
  const int64_t rows = kRowsPerMap + 17;
  Relation source = MappedRelation(rows);
  const Value* mapped = source.data();

  Relation copy = source;
  EXPECT_NE(copy.data(), mapped);
  ExpectCells(copy, rows);
  ExpectCells(source, rows);

  Relation moved = std::move(source);
  EXPECT_EQ(moved.data(), mapped);  // the mapping changes hands, no copy
  ExpectCells(moved, rows);

  Relation target = MappedRelation(2 * kRowsPerMap);  // freed on assign
  target = std::move(moved);
  EXPECT_EQ(target.data(), mapped);
  ExpectCells(target, rows);

  Relation small{Schema({0, 1, 2})};
  WriteRows(small.GrowRows(3), 0, 3);
  target = std::move(small);  // mapped store freed for a heap one
  ExpectCells(target, 3);
}

TEST(RelationStoreTest, ByteSizeCountsRowsNotCapacity) {
  Relation r{Schema({0, 1, 2})};
  r.Reserve(2 * kRowsPerMap);
  EXPECT_EQ(r.byte_size(), 0);
  WriteRows(r.GrowRows(kRowsPerMap + 1), 0, kRowsPerMap + 1);
  EXPECT_EQ(r.byte_size(),
            static_cast<int64_t>((kRowsPerMap + 1) * 3 * sizeof(Value)));
  r.TruncateRows(4);
  EXPECT_EQ(r.byte_size(), static_cast<int64_t>(4 * 3 * sizeof(Value)));
}

TEST(RelationStoreTest, MappedStoreIsHugePageAligned) {
  for (const int64_t rows : {kRowsPerMap, kRowsPerMap + 1, 3 * kRowsPerMap}) {
    const Relation r = MappedRelation(rows);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(r.data()) % kTupleStoreMapBytes, 0u)
        << rows << " rows";
  }
}

#ifndef NDEBUG
TEST(RelationStoreTest, GrowRowsPoisonsNewRowsWithDchecksOn) {
  for (const int64_t rows : {int64_t{4}, kRowsPerMap + 1}) {
    Relation r{Schema({0, 1, 2})};
    const Value* grown = r.GrowRows(rows);
    for (int64_t v = 0; v < rows * 3; ++v) {
      ASSERT_EQ(grown[v], Relation::kUnwrittenValue) << v;
    }
  }
}
#endif

TEST(DatabaseTest, PutGetAndNames) {
  Database db;
  EXPECT_FALSE(db.Contains("edge"));
  db.Put("edge", Relation{Schema({0, 1}), {{1, 2}}});
  db.Put("alpha", Relation{Schema({0})});
  ASSERT_TRUE(db.Contains("edge"));
  Result<const Relation*> r = db.Get("edge");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->size(), 1);
  EXPECT_EQ(db.Names(), (std::vector<std::string>{"alpha", "edge"}));
  EXPECT_EQ(db.relation_count(), 2);
}

TEST(DatabaseTest, GetMissingIsNotFound) {
  Database db;
  Result<const Relation*> r = db.Get("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, PutReplaces) {
  Database db;
  db.Put("r", Relation{Schema({0}), {{1}}});
  db.Put("r", Relation{Schema({0}), {{1}, {2}}});
  EXPECT_EQ((*db.Get("r"))->size(), 2);
  EXPECT_EQ(db.relation_count(), 1);
}

}  // namespace
}  // namespace ppr
