#ifndef PPR_RELATIONAL_RELATION_H_
#define PPR_RELATIONAL_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>  // pprlint: allow(naked-new) -- placement new below
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "relational/schema.h"

namespace ppr {

/// Tuple stores of at least this many bytes get their own anonymous
/// mapping, 2 MiB-aligned and advised for transparent huge pages. It is
/// the x86-64/arm64 huge-page size: one fault and one TLB entry then
/// cover 512 base pages of an intermediate.
inline constexpr size_t kTupleStoreMapBytes = size_t{2} << 20;

/// Maps `bytes` (>= kTupleStoreMapBytes) of zero pages, 2 MiB-aligned,
/// rounded up to a whole number of huge pages; throws std::bad_alloc on
/// failure.
void* MapTupleStore(size_t bytes);
/// Releases a MapTupleStore block of the same `bytes`.
void UnmapTupleStore(void* p, size_t bytes) noexcept;

/// Allocator of Relation's tuple store. It differs from std::allocator
/// in two ways. Value-less construction default-initializes, so growing
/// the store leaves the new values unwritten (the vector's resize does
/// no zero-fill). And blocks of kTupleStoreMapBytes or more come from
/// MapTupleStore, so large intermediates are faulted in huge pages by
/// whichever thread first writes them and unmapped whole when freed.
template <typename T>
class TupleStoreAllocator {
 public:
  using value_type = T;

  TupleStoreAllocator() = default;
  template <typename U>
  TupleStoreAllocator(const TupleStoreAllocator<U>& /*other*/) noexcept {}

  T* allocate(size_t n) {
    if (n * sizeof(T) >= kTupleStoreMapBytes) {
      return static_cast<T*>(MapTupleStore(n * sizeof(T)));
    }
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) noexcept {
    if (n * sizeof(T) >= kTupleStoreMapBytes) {
      UnmapTupleStore(p, n * sizeof(T));
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  /// Value-less construction default-initializes (no zero-fill);
  /// construction from a value falls through to std::construct_at.
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;  // pprlint: allow(naked-new)
  }

  friend bool operator==(const TupleStoreAllocator&,
                         const TupleStoreAllocator&) {
    return true;
  }
};

/// An in-memory relation: a schema plus a row-major flat tuple store.
///
/// This is the engine's only table representation. It is deliberately
/// simple — the paper's databases are tiny (the `edge` relation has six
/// tuples) and all cost comes from intermediate-result blowup, which this
/// layout measures faithfully (row count x arity).
class Relation {
 public:
  Relation() = default;

  /// Creates an empty relation with the given schema.
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  /// Creates a relation and bulk-loads `rows` (each of length arity).
  Relation(Schema schema, std::initializer_list<std::vector<Value>> rows);

  const Schema& schema() const { return schema_; }
  int arity() const { return schema_.arity(); }
  int64_t size() const {
    return schema_.arity() == 0
               ? (nullary_nonempty_ ? 1 : 0)
               : static_cast<int64_t>(data_.size()) / schema_.arity();
  }
  bool empty() const { return size() == 0; }

  /// Read-only view of row `i`.
  std::span<const Value> row(int64_t i) const {
    PPR_DCHECK(i >= 0 && i < size());
    return {data_.data() + i * arity(), static_cast<size_t>(arity())};
  }

  /// Value of column `col` in row `i`.
  Value at(int64_t i, int col) const {
    PPR_DCHECK(col >= 0 && col < arity());
    return data_[static_cast<size_t>(i * arity() + col)];
  }

  /// Appends a tuple; `tuple.size()` must equal the arity. For nullary
  /// relations this marks the relation nonempty (the single empty tuple).
  void AddTuple(std::span<const Value> tuple);
  void AddTuple(std::initializer_list<Value> tuple) {
    AddTuple(std::span<const Value>(tuple.begin(), tuple.size()));
  }

  /// Hot-path append of exactly arity() values starting at `src`, without
  /// per-call length validation. Invalid for nullary relations.
  void AppendRaw(const Value* src) {
    PPR_DCHECK(arity() > 0);
    data_.insert(data_.end(), src, src + arity());
  }

  /// Raw row-major tuple storage (size() * arity() values).
  const Value* data() const { return data_.data(); }

  /// Appends `rows` tuples with unwritten values and returns a mutable
  /// pointer to the first, for operators that know their output size and
  /// fill rows through a raw cursor. The caller writes every row it keeps
  /// and truncates the rest away. Nothing is zero-filled, so morsel
  /// workers first-touch their own output slices; builds with DCHECKs
  /// fill new rows with kUnwrittenValue instead, so a row left unwritten
  /// changes answers there. Invalid for nullary relations.
  Value* GrowRows(int64_t rows) {
    PPR_DCHECK(arity() > 0 && rows >= 0);
    const size_t old = data_.size();
    data_.resize(old + static_cast<size_t>(rows * arity()));
#ifndef NDEBUG
    std::fill(data_.begin() + static_cast<std::ptrdiff_t>(old), data_.end(),
              kUnwrittenValue);
#endif
    return data_.data() + old;
  }

  /// Poison GrowRows writes into new rows in builds with DCHECKs on; no
  /// kernel emits it (database values are small nonnegative codes).
  static constexpr Value kUnwrittenValue = static_cast<Value>(0xDEADBEEF);

  /// Drops all but the first `rows` tuples (cursor writers that stop
  /// early shrink back to what they actually filled). Never writes.
  void TruncateRows(int64_t rows) {
    PPR_DCHECK(arity() > 0 && rows >= 0 && rows <= size());
    data_.resize(static_cast<size_t>(rows * arity()));
  }

  /// Bytes of tuple storage in use: size() tuples, not the capacity.
  int64_t byte_size() const {
    return static_cast<int64_t>(data_.size() * sizeof(Value));
  }

  /// Reserves storage for `rows` additional tuples.
  void Reserve(int64_t rows) {
    data_.reserve(data_.size() + static_cast<size_t>(rows * arity()));
  }

  /// True when the relation contains `tuple` (linear scan; test helper).
  bool ContainsTuple(std::span<const Value> tuple) const;

  /// Removes duplicate rows in place (order not preserved).
  void DeduplicateInPlace();

  /// Set equality: same attribute set and the same set of tuples, ignoring
  /// column order and row order. The canonical comparison for strategy
  /// equivalence tests.
  bool SetEquals(const Relation& other) const;

  /// Renders schema plus all rows; intended for small relations in tests
  /// and examples.
  std::string ToString() const;

 private:
  /// Rows sorted lexicographically after permuting columns into ascending
  /// attribute-id order; canonical form used by SetEquals.
  std::vector<std::vector<Value>> CanonicalRows() const;

  Schema schema_;
  /// Row-major tuples. Growth never zero-fills (see TupleStoreAllocator).
  std::vector<Value, TupleStoreAllocator<Value>> data_;
  /// Nullary relations (arity 0) carry one bit of information: whether
  /// they contain the empty tuple. Boolean query results live here.
  bool nullary_nonempty_ = false;
};

}  // namespace ppr

#endif  // PPR_RELATIONAL_RELATION_H_
