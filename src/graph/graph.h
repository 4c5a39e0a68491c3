#ifndef PPR_GRAPH_GRAPH_H_
#define PPR_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ppr {

/// A simple undirected graph on vertices 0..n-1 (no loops, no multi-edges).
///
/// Used in two roles, mirroring the paper: (1) 3-COLOR problem instances
/// that get translated into project-join queries, and (2) join graphs of
/// queries, whose treewidth characterizes the power of projection pushing
/// (Theorem 1). Dense adjacency-matrix representation: every graph in the
/// study has at most a few hundred vertices while the elimination-game
/// algorithms want O(1) edge tests.
class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph with `num_vertices` vertices.
  explicit Graph(int num_vertices);

  int num_vertices() const { return n_; }
  int num_edges() const { return m_; }

  /// Adds edge {u, v}; returns false (and does nothing) when the edge
  /// already exists or u == v. PPR_CHECK-fails on out-of-range vertices.
  bool AddEdge(int u, int v);

  bool HasEdge(int u, int v) const;

  /// Row `v` of the adjacency matrix: entry u is 1 when {v, u} is an
  /// edge, else 0.
  const uint8_t* AdjacencyRow(int v) const;

  int Degree(int v) const;

  /// Neighbors of `v` in ascending order.
  std::vector<int> Neighbors(int v) const;

  /// All edges as (u, v) pairs with u < v, lexicographically sorted.
  std::vector<std::pair<int, int>> Edges() const;

  /// All edges in the order (and orientation) they were added. The query
  /// encoders list atoms in this order, matching the paper's setup: random
  /// instances keep their generation order, structured instances their
  /// natural construction order.
  const std::vector<std::pair<int, int>>& EdgesInInsertionOrder() const {
    return insertion_order_;
  }

  /// Number of connected components (isolated vertices count).
  int NumComponents() const;

  /// True when every pair of vertices in `vs` is adjacent.
  bool IsClique(const std::vector<int>& vs) const;

  /// Edge density m/n as defined in the paper's scaling experiments.
  double Density() const { return n_ == 0 ? 0.0 : static_cast<double>(m_) / n_; }

  /// Renders "Graph(n=.., m=..): 0-1 0-2 ..." for debugging.
  std::string ToString() const;

 private:
  size_t Index(int u, int v) const {
    return static_cast<size_t>(u) * static_cast<size_t>(n_) +
           static_cast<size_t>(v);
  }

  int n_ = 0;
  int m_ = 0;
  std::vector<uint8_t> adj_;  // n x n adjacency matrix
  std::vector<std::pair<int, int>> insertion_order_;
};

}  // namespace ppr

#endif  // PPR_GRAPH_GRAPH_H_
