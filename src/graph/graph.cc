#include "graph/graph.h"

#include <sstream>

#include "common/check.h"

namespace ppr {

Graph::Graph(int num_vertices) : n_(num_vertices) {
  PPR_CHECK(num_vertices >= 0);
  adj_.assign(static_cast<size_t>(n_) * static_cast<size_t>(n_), 0);
}

bool Graph::AddEdge(int u, int v) {
  PPR_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  if (u == v || adj_[Index(u, v)]) return false;
  adj_[Index(u, v)] = 1;
  adj_[Index(v, u)] = 1;
  insertion_order_.emplace_back(u, v);
  ++m_;
  return true;
}

bool Graph::HasEdge(int u, int v) const {
  PPR_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  return adj_[Index(u, v)] != 0;
}

const uint8_t* Graph::AdjacencyRow(int v) const {
  PPR_CHECK(v >= 0 && v < n_);
  return adj_.data() + Index(v, 0);
}

int Graph::Degree(int v) const {
  PPR_CHECK(v >= 0 && v < n_);
  int d = 0;
  for (int u = 0; u < n_; ++u) d += adj_[Index(v, u)];
  return d;
}

std::vector<int> Graph::Neighbors(int v) const {
  PPR_CHECK(v >= 0 && v < n_);
  std::vector<int> out;
  for (int u = 0; u < n_; ++u) {
    if (adj_[Index(v, u)]) out.push_back(u);
  }
  return out;
}

std::vector<std::pair<int, int>> Graph::Edges() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<size_t>(m_));
  for (int u = 0; u < n_; ++u) {
    for (int v = u + 1; v < n_; ++v) {
      if (adj_[Index(u, v)]) out.emplace_back(u, v);
    }
  }
  return out;
}

int Graph::NumComponents() const {
  std::vector<uint8_t> visited(static_cast<size_t>(n_), 0);
  std::vector<int> stack;
  int components = 0;
  for (int s = 0; s < n_; ++s) {
    if (visited[static_cast<size_t>(s)]) continue;
    ++components;
    stack.push_back(s);
    visited[static_cast<size_t>(s)] = 1;
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      for (int u = 0; u < n_; ++u) {
        if (adj_[Index(v, u)] && !visited[static_cast<size_t>(u)]) {
          visited[static_cast<size_t>(u)] = 1;
          stack.push_back(u);
        }
      }
    }
  }
  return components;
}

bool Graph::IsClique(const std::vector<int>& vs) const {
  for (size_t i = 0; i < vs.size(); ++i) {
    for (size_t j = i + 1; j < vs.size(); ++j) {
      if (!HasEdge(vs[i], vs[j])) return false;
    }
  }
  return true;
}

std::string Graph::ToString() const {
  std::ostringstream out;
  out << "Graph(n=" << n_ << ", m=" << m_ << "):";
  for (const auto& [u, v] : Edges()) out << " " << u << "-" << v;
  return out.str();
}

}  // namespace ppr
