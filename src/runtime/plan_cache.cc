#include "runtime/plan_cache.h"

#include <algorithm>
#include <charconv>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"

namespace ppr {
namespace {

// SplitMix64-style mixing (same family as common/hash.h) for the
// refinement colors and fingerprint hashes. Colors are structural
// summaries, not security tokens; 64-bit accidental collisions are
// irrelevant next to the heuristic incompleteness documented on
// CanonicalQuery — and cache soundness never rests on a hash (keys
// compare the full structure bytes).
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  return h;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0x94D049BB133111EBULL;
  for (char c : s) h = Mix(h, static_cast<uint8_t>(c));
  return h;
}

/// Distinct values in `values`, sorted through the reused `scratch`.
size_t CountDistinct(const std::vector<uint64_t>& values,
                     std::vector<uint64_t>* scratch) {
  scratch->assign(values.begin(), values.end());
  std::sort(scratch->begin(), scratch->end());
  return static_cast<size_t>(
      std::unique(scratch->begin(), scratch->end()) - scratch->begin());
}

}  // namespace

uint64_t FingerprintQueryStructure(const std::string& structure) {
  return HashString(structure);
}

CanonicalQuery CanonicalizeQuery(const ConjunctiveQuery& query) {
  const std::vector<AttrId> attrs = query.AllAttrs();
  const size_t n = attrs.size();
  auto dense_of = [&attrs](AttrId a) {
    return static_cast<size_t>(
        std::lower_bound(attrs.begin(), attrs.end(), a) - attrs.begin());
  };

  std::vector<char> is_free(n, 0);
  for (AttrId f : query.free_vars()) is_free[dense_of(f)] = 1;

  // The atoms, flattened: atom a's args (dense attr indices, repeats
  // preserved) are args[arg_begin[a], arg_begin[a + 1]). Atoms naming the
  // relation of the atom before them reuse its hash.
  const std::vector<Atom>& atoms = query.atoms();
  const size_t m = atoms.size();
  std::vector<uint64_t> rel_hash(m);
  std::vector<size_t> arg_begin(m + 1, 0);
  for (size_t a = 0; a < m; ++a) {
    arg_begin[a + 1] = arg_begin[a] + atoms[a].args.size();
  }
  std::vector<size_t> args(arg_begin[m]);
  for (size_t a = 0; a < m; ++a) {
    rel_hash[a] = a > 0 && atoms[a].relation == atoms[a - 1].relation
                      ? rel_hash[a - 1]
                      : HashString(atoms[a].relation);
    size_t k = arg_begin[a];
    for (AttrId v : atoms[a].args) args[k++] = dense_of(v);
  }

  // Weisfeiler-Leman color refinement over the attribute <-> atom
  // incidence structure. An attribute's new color digests, for every
  // occurrence, the owning atom's signature (relation + the colors of all
  // its args in order) and the occurrence position — so after a round,
  // equal colors mean locally indistinguishable attributes.
  std::vector<uint64_t> color(n);
  for (size_t i = 0; i < n; ++i) {
    color[i] = Mix(0x5150BBA7C0FFEE01ULL, static_cast<uint64_t>(is_free[i]));
  }
  // Occurrences (atom, position) of each attribute, grouped by attribute
  // (CSR): the incidence structure is fixed, only the colors change.
  std::vector<size_t> occ_begin(n + 1, 0);
  for (size_t arg : args) ++occ_begin[arg + 1];
  for (size_t i = 0; i < n; ++i) occ_begin[i + 1] += occ_begin[i];
  std::vector<std::pair<size_t, size_t>> occ(occ_begin[n]);
  {
    std::vector<size_t> fill(occ_begin.begin(), occ_begin.end() - 1);
    for (size_t a = 0; a < m; ++a) {
      for (size_t k = arg_begin[a]; k < arg_begin[a + 1]; ++k) {
        occ[fill[args[k]]++] = {a, k - arg_begin[a]};
      }
    }
  }
  std::vector<uint64_t> atom_sig(m);
  std::vector<uint64_t> contrib;
  std::vector<uint64_t> scratch;
  auto refine_round = [&] {
    for (size_t a = 0; a < m; ++a) {
      uint64_t h = rel_hash[a];
      for (size_t k = arg_begin[a]; k < arg_begin[a + 1]; ++k) {
        h = Mix(h, color[args[k]]);
      }
      atom_sig[a] = h;
    }
    for (size_t i = 0; i < n; ++i) {
      contrib.clear();
      for (size_t k = occ_begin[i]; k < occ_begin[i + 1]; ++k) {
        contrib.push_back(Mix(atom_sig[occ[k].first], occ[k].second));
      }
      std::sort(contrib.begin(), contrib.end());  // multiset digest
      uint64_t h = color[i];
      for (uint64_t c : contrib) h = Mix(h, c);
      color[i] = h;
    }
  };
  auto refine_to_fixpoint = [&] {
    size_t distinct = CountDistinct(color, &scratch);
    for (size_t round = 0; round < n; ++round) {
      refine_round();
      const size_t d = CountDistinct(color, &scratch);
      if (d == distinct) break;
      distinct = d;
    }
    return distinct;
  };
  size_t distinct = refine_to_fixpoint();

  // Individualization for symmetric remainders: force apart one member of
  // a tied class and re-refine, until all colors are distinct. The member
  // choice (smallest color, then input order) is deterministic but not
  // isomorphism-invariant — the documented heuristic gap.
  while (distinct < n) {
    size_t pick = n;
    uint64_t pick_color = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool tied =
          std::count(color.begin(), color.end(), color[i]) > 1;
      if (tied && (pick == n || color[i] < pick_color)) {
        pick = i;
        pick_color = color[i];
      }
    }
    PPR_CHECK(pick < n);
    color[pick] = Mix(color[pick], 0x1D1D1D1D1D1D1D1DULL);
    distinct = refine_to_fixpoint();
  }

  // Canonical rank = position in color order (colors are now distinct).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&color](size_t a, size_t b) { return color[a] < color[b]; });
  std::vector<AttrId> to_canonical(n);
  CanonicalQuery canon;
  canon.from_canonical.resize(n);
  for (size_t rank = 0; rank < n; ++rank) {
    to_canonical[order[rank]] = static_cast<AttrId>(rank);
    canon.from_canonical[rank] = attrs[order[rank]];
  }

  // Atoms in (relation, canonical args) order: an index sort over the
  // flat canonical args, then one pass building the atoms in that order.
  std::vector<AttrId> cargs(args.size());
  for (size_t k = 0; k < args.size(); ++k) cargs[k] = to_canonical[args[k]];
  const auto cargs_of = [&](size_t a) {
    return std::span<const AttrId>(cargs.data() + arg_begin[a],
                                   arg_begin[a + 1] - arg_begin[a]);
  };
  std::vector<size_t> atom_order(m);
  for (size_t a = 0; a < m; ++a) atom_order[a] = a;
  std::sort(atom_order.begin(), atom_order.end(), [&](size_t x, size_t y) {
    if (const int c = atoms[x].relation.compare(atoms[y].relation); c != 0) {
      return c < 0;
    }
    const std::span<const AttrId> ax = cargs_of(x);
    const std::span<const AttrId> ay = cargs_of(y);
    return std::lexicographical_compare(ax.begin(), ax.end(), ay.begin(),
                                        ay.end());
  });
  std::vector<Atom> catoms(m);
  size_t structure_bytes = 1;
  for (size_t i = 0; i < m; ++i) {
    const size_t a = atom_order[i];
    const std::span<const AttrId> ca = cargs_of(a);
    catoms[i].relation = atoms[a].relation;
    catoms[i].args.assign(ca.begin(), ca.end());
    structure_bytes += atoms[a].relation.size() + 3 + 4 * ca.size();
  }
  std::vector<AttrId> cfree;
  cfree.reserve(query.free_vars().size());
  for (AttrId f : query.free_vars()) {
    cfree.push_back(to_canonical[dense_of(f)]);
  }
  std::sort(cfree.begin(), cfree.end());

  std::string structure;
  structure.reserve(structure_bytes + 4 * cfree.size());
  const auto append_number = [&structure](AttrId v) {
    char digits[16];
    const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
    structure.append(digits, end);
  };
  for (const Atom& atom : catoms) {
    structure += atom.relation;
    structure += '(';
    for (size_t j = 0; j < atom.args.size(); ++j) {
      if (j > 0) structure += ',';
      append_number(atom.args[j]);
    }
    structure += ");";
  }
  structure += '|';
  for (size_t j = 0; j < cfree.size(); ++j) {
    if (j > 0) structure += ',';
    append_number(cfree[j]);
  }

  canon.query = ConjunctiveQuery(std::move(catoms), std::move(cfree));
  canon.structure = std::move(structure);
  return canon;
}

uint64_t FingerprintDatabase(const Database& db) {
  uint64_t h = 0xD1B54A32D192ED03ULL;
  for (const std::string& name : db.Names()) {  // sorted
    Result<const Relation*> rel = db.Get(name);
    PPR_CHECK(rel.ok());
    h = Mix(h, HashString(name));
    h = Mix(h, static_cast<uint64_t>((*rel)->arity()));
    h = Mix(h, static_cast<uint64_t>((*rel)->size()));
    const Relation& r = **rel;
    const int64_t values = r.size() * r.arity();
    for (int64_t i = 0; i < values; ++i) {
      h = Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(r.data()[i])));
    }
  }
  return h;
}

uint64_t HashPlanCacheKey(const PlanCacheKey& key) {
  uint64_t h = HashString(key.structure);
  h = Mix(h, static_cast<uint64_t>(key.strategy));
  h = Mix(h, key.seed);
  h = Mix(h, static_cast<uint64_t>(key.join_algorithm));
  h = Mix(h, reinterpret_cast<uintptr_t>(key.db));
  h = Mix(h, key.db_fingerprint);
  return h;
}

namespace {
/// A key stored with its HashPlanCacheKey. Hashing the structure string
/// is the costly part of a lookup, so GetOrCompile hashes once and the
/// shard choice, both maps and eviction reuse the stored hash.
struct HashedKey {
  PlanCacheKey key;
  uint64_t hash = 0;
};
/// Borrowed key for lookups, so a find copies no structure string.
struct KeyRef {
  const PlanCacheKey* key = nullptr;
  uint64_t hash = 0;
};
struct KeyHasher {
  using is_transparent = void;
  size_t operator()(const HashedKey& k) const {
    return static_cast<size_t>(k.hash);
  }
  size_t operator()(const KeyRef& k) const {
    return static_cast<size_t>(k.hash);
  }
};
struct KeyEq {
  using is_transparent = void;
  bool operator()(const HashedKey& a, const HashedKey& b) const {
    return a.hash == b.hash && a.key == b.key;
  }
  bool operator()(const HashedKey& a, const KeyRef& b) const {
    return a.hash == b.hash && a.key == *b.key;
  }
  bool operator()(const KeyRef& a, const HashedKey& b) const {
    return a.hash == b.hash && *a.key == b.key;
  }
};
}  // namespace

/// Single-flight slot: the first thread to miss owns the compile; every
/// later arrival blocks on `cv` until `done`.
struct PlanCache::InFlight {
  Mutex mu;
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Status error GUARDED_BY(mu);  // OK iff `plan` is set
  std::shared_ptr<const CachedPlan> plan GUARDED_BY(mu);
};

struct PlanCache::Shard {
  mutable Mutex mu;
  /// LRU list, most recently used first; `entries` indexes it by key.
  using Lru =
      std::list<std::pair<HashedKey, std::shared_ptr<const CachedPlan>>>;
  Lru lru GUARDED_BY(mu);
  std::unordered_map<HashedKey, Lru::iterator, KeyHasher, KeyEq> entries
      GUARDED_BY(mu);
  std::unordered_map<HashedKey, std::shared_ptr<InFlight>, KeyHasher, KeyEq>
      inflight GUARDED_BY(mu);
  int64_t hits GUARDED_BY(mu) = 0;
  int64_t misses GUARDED_BY(mu) = 0;
  int64_t evictions GUARDED_BY(mu) = 0;
};

PlanCache::PlanCache(size_t capacity, int num_shards) {
  PPR_CHECK(num_shards >= 1);
  shard_capacity_ = std::max<size_t>(
      1, (capacity + static_cast<size_t>(num_shards) - 1) /
             static_cast<size_t>(num_shards));
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::~PlanCache() = default;

PlanCache::Shard& PlanCache::ShardFor(uint64_t key_hash) {
  return *shards_[static_cast<size_t>(key_hash) % shards_.size()];
}

Result<std::shared_ptr<const CachedPlan>> PlanCache::GetOrCompile(
    const PlanCacheKey& key, const Factory& factory, bool* compiled_here) {
  if (compiled_here != nullptr) *compiled_here = false;
  const KeyRef ref{&key, HashPlanCacheKey(key)};
  Shard& shard = ShardFor(ref.hash);
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    MutexLock lock(shard.mu);
    if (auto it = shard.entries.find(ref); it != shard.entries.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
    if (auto it = shard.inflight.find(ref); it != shard.inflight.end()) {
      // Someone else is compiling this key right now; reusing their
      // result is a hit (this thread runs no factory), which keeps the
      // counters deterministic under any interleaving.
      ++shard.hits;
      flight = it->second;
    } else {
      ++shard.misses;
      flight = std::make_shared<InFlight>();
      shard.inflight.emplace(HashedKey{key, ref.hash}, flight);
      owner = true;
    }
  }

  if (!owner) {
    InFlight& f = *flight;
    MutexLock lock(f.mu);
    while (!f.done) f.cv.Wait(f.mu);
    if (!f.error.ok()) return f.error;
    return f.plan;
  }

  // Owner: compile with no cache lock held.
  if (compiled_here != nullptr) *compiled_here = true;
  Result<CachedPlan> built = factory();
  const Status error = built.status();
  std::shared_ptr<const CachedPlan> plan;
  if (built.ok()) {
    plan = std::make_shared<const CachedPlan>(std::move(built).value());
  }
  {
    MutexLock lock(shard.mu);
    shard.inflight.erase(shard.inflight.find(ref));
    if (plan != nullptr) {
      const HashedKey stored{key, ref.hash};
      shard.lru.emplace_front(stored, plan);
      shard.entries[stored] = shard.lru.begin();
      while (shard.entries.size() > shard_capacity_) {
        shard.entries.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++shard.evictions;
      }
    }
  }
  {
    InFlight& f = *flight;
    MutexLock lock(f.mu);
    f.done = true;
    f.error = error;
    f.plan = plan;
  }
  flight->cv.NotifyAll();
  if (!error.ok()) return error;
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mu);
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mu);
    total += s.entries.size();
  }
  return total;
}

void PlanCache::Clear() {
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mu);
    PPR_CHECK(s.inflight.empty());
    s.entries.clear();
    s.lru.clear();
  }
}

}  // namespace ppr
