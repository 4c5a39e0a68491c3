#include "graph/elimination.h"

#include <algorithm>

#include "common/check.h"

namespace ppr {
namespace {

// Copies g's adjacency into a mutable matrix for elimination games.
std::vector<uint8_t> AdjacencyMatrix(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<uint8_t> adj(static_cast<size_t>(n) * n, 0);
  for (const auto& [u, v] : g.Edges()) {
    adj[static_cast<size_t>(u) * n + v] = 1;
    adj[static_cast<size_t>(v) * n + u] = 1;
  }
  return adj;
}

// Shared skeleton for the greedy orders: repeatedly pick a vertex by
// `score` (lower is better) among non-keep-last vertices first, eliminate
// it with fill, and append it to the order.
template <typename ScoreFn>
EliminationOrder GreedyOrder(const Graph& g, const std::vector<int>& keep_last,
                             ScoreFn score) {
  const int n = g.num_vertices();
  std::vector<uint8_t> adj = AdjacencyMatrix(g);
  std::vector<uint8_t> eliminated(static_cast<size_t>(n), 0);
  std::vector<uint8_t> is_last(static_cast<size_t>(n), 0);
  for (int v : keep_last) {
    PPR_CHECK(v >= 0 && v < n);
    is_last[static_cast<size_t>(v)] = 1;
  }

  EliminationOrder order;
  order.reserve(static_cast<size_t>(n));
  // Two passes: first eliminate all non-keep-last vertices, then the rest.
  for (int pass = 0; pass < 2; ++pass) {
    for (;;) {
      int best = -1;
      int64_t best_score = 0;
      for (int v = 0; v < n; ++v) {
        if (eliminated[static_cast<size_t>(v)]) continue;
        if ((pass == 0) == (is_last[static_cast<size_t>(v)] != 0)) continue;
        int64_t s = score(adj, eliminated, v);
        if (best < 0 || s < best_score) {
          best = v;
          best_score = s;
        }
      }
      if (best < 0) break;
      // Eliminate `best`: connect its remaining neighbors pairwise.
      std::vector<int> nbrs;
      for (int u = 0; u < n; ++u) {
        if (!eliminated[static_cast<size_t>(u)] &&
            adj[static_cast<size_t>(best) * n + u]) {
          nbrs.push_back(u);
        }
      }
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          adj[static_cast<size_t>(nbrs[i]) * n + nbrs[j]] = 1;
          adj[static_cast<size_t>(nbrs[j]) * n + nbrs[i]] = 1;
        }
      }
      eliminated[static_cast<size_t>(best)] = 1;
      order.push_back(best);
    }
  }
  return order;
}

}  // namespace

std::vector<int> MaxCardinalityNumbering(const Graph& g,
                                         const std::vector<int>& initial,
                                         Rng* rng) {
  const int n = g.num_vertices();
  std::vector<uint8_t> numbered(static_cast<size_t>(n), 0);
  std::vector<int> weight(static_cast<size_t>(n), 0);
  std::vector<int> numbering;
  numbering.reserve(static_cast<size_t>(n));

  auto take = [&](int v) {
    numbered[static_cast<size_t>(v)] = 1;
    numbering.push_back(v);
    const uint8_t* adjacent = g.AdjacencyRow(v);
    for (int u = 0; u < n; ++u) {
      const auto uu = static_cast<size_t>(u);
      weight[uu] += adjacent[uu] & (numbered[uu] ^ 1);
    }
  };

  for (int v : initial) {
    PPR_CHECK(v >= 0 && v < n);
    if (!numbered[static_cast<size_t>(v)]) take(v);
  }

  std::vector<int> candidates;
  while (static_cast<int>(numbering.size()) < n) {
    // Collect the unnumbered vertices of maximum weight.
    int best_weight = -1;
    candidates.clear();
    for (int v = 0; v < n; ++v) {
      if (numbered[static_cast<size_t>(v)]) continue;
      const int w = weight[static_cast<size_t>(v)];
      if (w > best_weight) {
        best_weight = w;
        candidates.clear();
      }
      if (w == best_weight) candidates.push_back(v);
    }
    const int pick =
        (rng != nullptr && candidates.size() > 1)
            ? candidates[static_cast<size_t>(
                  rng->NextBounded(candidates.size()))]
            : candidates.front();
    take(pick);
  }
  return numbering;
}

EliminationOrder McsEliminationOrder(const Graph& g,
                                     const std::vector<int>& keep_last,
                                     Rng* rng) {
  std::vector<int> numbering = MaxCardinalityNumbering(g, keep_last, rng);
  std::reverse(numbering.begin(), numbering.end());
  return numbering;
}

EliminationOrder MinDegreeOrder(const Graph& g,
                                const std::vector<int>& keep_last) {
  const int n = g.num_vertices();
  return GreedyOrder(
      g, keep_last,
      [n](const std::vector<uint8_t>& adj, const std::vector<uint8_t>& elim,
          int v) -> int64_t {
        int64_t deg = 0;
        for (int u = 0; u < n; ++u) {
          if (!elim[static_cast<size_t>(u)] &&
              adj[static_cast<size_t>(v) * n + u]) {
            ++deg;
          }
        }
        return deg;
      });
}

EliminationOrder MinFillOrder(const Graph& g,
                              const std::vector<int>& keep_last) {
  const int n = g.num_vertices();
  return GreedyOrder(
      g, keep_last,
      [n](const std::vector<uint8_t>& adj, const std::vector<uint8_t>& elim,
          int v) -> int64_t {
        std::vector<int> nbrs;
        for (int u = 0; u < n; ++u) {
          if (!elim[static_cast<size_t>(u)] &&
              adj[static_cast<size_t>(v) * n + u]) {
            nbrs.push_back(u);
          }
        }
        int64_t fill = 0;
        for (size_t i = 0; i < nbrs.size(); ++i) {
          for (size_t j = i + 1; j < nbrs.size(); ++j) {
            if (!adj[static_cast<size_t>(nbrs[i]) * n + nbrs[j]]) ++fill;
          }
        }
        return fill;
      });
}

int InducedWidth(const Graph& g, const EliminationOrder& order) {
  const int n = g.num_vertices();
  PPR_CHECK(static_cast<int>(order.size()) == n);
  std::vector<uint8_t> adj = AdjacencyMatrix(g);
  std::vector<uint8_t> eliminated(static_cast<size_t>(n), 0);
  std::vector<uint8_t> seen(static_cast<size_t>(n), 0);

  int width = 0;
  for (int v : order) {
    PPR_CHECK(v >= 0 && v < n);
    PPR_CHECK(!seen[static_cast<size_t>(v)]);  // must be a permutation
    seen[static_cast<size_t>(v)] = 1;
    std::vector<int> nbrs;
    for (int u = 0; u < n; ++u) {
      if (!eliminated[static_cast<size_t>(u)] && u != v &&
          adj[static_cast<size_t>(v) * n + u]) {
        nbrs.push_back(u);
      }
    }
    width = std::max(width, static_cast<int>(nbrs.size()));
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        adj[static_cast<size_t>(nbrs[i]) * n + nbrs[j]] = 1;
        adj[static_cast<size_t>(nbrs[j]) * n + nbrs[i]] = 1;
      }
    }
    eliminated[static_cast<size_t>(v)] = 1;
  }
  return width;
}

bool IsChordal(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return true;
  // Reverse MCS numbering is a perfect elimination order iff chordal:
  // zero fill when eliminating along it.
  std::vector<int> numbering = MaxCardinalityNumbering(g, {}, nullptr);
  std::vector<int> pos(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pos[static_cast<size_t>(numbering[i])] = i;
  // v's "earlier" neighbors (numbered before v) must form a clique with
  // v's earliest-numbered... standard check: for each v, the neighbors of v
  // numbered before v must all be adjacent to the latest-numbered of them.
  for (int v = 0; v < n; ++v) {
    std::vector<int> earlier;
    for (int u : g.Neighbors(v)) {
      if (pos[static_cast<size_t>(u)] < pos[static_cast<size_t>(v)]) {
        earlier.push_back(u);
      }
    }
    if (earlier.size() <= 1) continue;
    int latest = earlier[0];
    for (int u : earlier) {
      if (pos[static_cast<size_t>(u)] > pos[static_cast<size_t>(latest)]) {
        latest = u;
      }
    }
    for (int u : earlier) {
      if (u != latest && !g.HasEdge(u, latest)) return false;
    }
  }
  return true;
}

}  // namespace ppr
