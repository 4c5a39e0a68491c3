#include "relational/relation.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <sstream>

#include <sys/mman.h>

namespace ppr {

namespace {

size_t MappedLength(size_t bytes) {
  return (bytes + kTupleStoreMapBytes - 1) & ~(kTupleStoreMapBytes - 1);
}

}  // namespace

void* MapTupleStore(size_t bytes) {
  // mmap only promises page alignment: over-map by one huge page, then
  // unmap the slack on both sides of the aligned block.
  const size_t len = MappedLength(bytes);
  void* raw = mmap(nullptr, len + kTupleStoreMapBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned =
      (start + kTupleStoreMapBytes - 1) & ~uintptr_t{kTupleStoreMapBytes - 1};
  if (aligned > start) munmap(raw, aligned - start);
  // The tail slack is in (0, kTupleStoreMapBytes]: never empty.
  munmap(reinterpret_cast<void*>(aligned + len),
         start + kTupleStoreMapBytes - aligned);
  void* block = reinterpret_cast<void*>(aligned);
#ifdef MADV_HUGEPAGE
  // Advisory: with transparent huge pages off this is a no-op.
  madvise(block, len, MADV_HUGEPAGE);
#endif
  return block;
}

void UnmapTupleStore(void* p, size_t bytes) noexcept {
  munmap(p, MappedLength(bytes));
}

Relation::Relation(Schema schema,
                   std::initializer_list<std::vector<Value>> rows)
    : schema_(std::move(schema)) {
  for (const auto& r : rows) {
    AddTuple(std::span<const Value>(r.data(), r.size()));
  }
}

void Relation::AddTuple(std::span<const Value> tuple) {
  PPR_CHECK(static_cast<int>(tuple.size()) == arity());
  if (arity() == 0) {
    nullary_nonempty_ = true;
    return;
  }
  data_.insert(data_.end(), tuple.begin(), tuple.end());
}

bool Relation::ContainsTuple(std::span<const Value> tuple) const {
  PPR_CHECK(static_cast<int>(tuple.size()) == arity());
  if (arity() == 0) return nullary_nonempty_;
  for (int64_t i = 0; i < size(); ++i) {
    if (std::equal(tuple.begin(), tuple.end(), row(i).begin())) return true;
  }
  return false;
}

std::vector<std::vector<Value>> Relation::CanonicalRows() const {
  // Column permutation that sorts attributes by id.
  std::vector<int> cols(static_cast<size_t>(arity()));
  std::iota(cols.begin(), cols.end(), 0);
  std::sort(cols.begin(), cols.end(),
            [&](int a, int b) { return schema_.attr(a) < schema_.attr(b); });
  std::vector<std::vector<Value>> rows;
  rows.reserve(static_cast<size_t>(size()));
  for (int64_t i = 0; i < size(); ++i) {
    std::vector<Value> r(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) r[c] = at(i, cols[c]);
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

void Relation::DeduplicateInPlace() {
  if (arity() == 0 || size() <= 1) return;
  std::vector<std::vector<Value>> rows;
  rows.reserve(static_cast<size_t>(size()));
  for (int64_t i = 0; i < size(); ++i) {
    rows.emplace_back(row(i).begin(), row(i).end());
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  data_.clear();
  for (const auto& r : rows) data_.insert(data_.end(), r.begin(), r.end());
}

bool Relation::SetEquals(const Relation& other) const {
  if (!schema_.SameAttrSet(other.schema_)) return false;
  if (arity() == 0) return nullary_nonempty_ == other.nullary_nonempty_;
  return CanonicalRows() == other.CanonicalRows();
}

std::string Relation::ToString() const {
  std::ostringstream out;
  out << schema_.ToString() << " [" << size() << " rows]";
  for (int64_t i = 0; i < size(); ++i) {
    out << "\n  (";
    for (int c = 0; c < arity(); ++c) {
      if (c > 0) out << ", ";
      out << at(i, c);
    }
    out << ")";
  }
  return out.str();
}

}  // namespace ppr
