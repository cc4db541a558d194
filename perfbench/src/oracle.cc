#include "oracle.h"

#include <algorithm>
#include <numeric>

#include "common.h"

namespace perfbench {

Adjacency::Adjacency(const EdgeArray& edges, size_t num_edges)
    : offsets_(edges.num_vertices + 2, 0), in_degree_(edges.num_vertices, 0) {
  for (size_t i = 0; i < num_edges; ++i) {
    offsets_[edges.src[i] + 2]++;
    in_degree_[edges.dst[i]]++;
  }
  for (size_t v = 2; v < offsets_.size(); ++v) offsets_[v] += offsets_[v - 1];
  nbr_.resize(num_edges);
  amt_.resize(num_edges);
  for (size_t i = 0; i < num_edges; ++i) {
    uint64_t slot = offsets_[edges.src[i] + 1]++;
    nbr_[slot] = edges.dst[i];
    amt_[slot] = edges.amt.empty() ? 0 : edges.amt[i];
  }
  offsets_.pop_back();
  // Sort each list by (neighbour, amount).
  std::vector<uint32_t> order;
  for (uint32_t v = 0; v < edges.num_vertices; ++v) {
    uint64_t lo = offsets_[v];
    uint64_t hi = offsets_[v + 1];
    order.resize(hi - lo);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      return std::make_pair(nbr_[lo + x], amt_[lo + x]) < std::make_pair(nbr_[lo + y], amt_[lo + y]);
    });
    std::vector<uint32_t> n(hi - lo);
    std::vector<int64_t> a(hi - lo);
    for (size_t k = 0; k < order.size(); ++k) {
      n[k] = nbr_[lo + order[k]];
      a[k] = amt_[lo + order[k]];
    }
    std::copy(n.begin(), n.end(), nbr_.begin() + static_cast<std::ptrdiff_t>(lo));
    std::copy(a.begin(), a.end(), amt_.begin() + static_cast<std::ptrdiff_t>(lo));
  }
}

void Adjacency::Distinct(uint32_t v, std::vector<std::pair<uint32_t, uint32_t>>* out) const {
  out->clear();
  for (uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
    if (!out->empty() && out->back().first == nbr_[i]) {
      out->back().second++;
    } else {
      out->push_back({nbr_[i], 1});
    }
  }
}

uint64_t Adjacency::PointDigest(uint32_t a, uint64_t* rows) const {
  uint64_t digest = 0;
  *rows = 0;
  for (uint64_t i = offsets_[a]; i < offsets_[a + 1]; ++i) {
    if (nbr_[i] == a) continue;  // a self-loop cannot bind two distinct vertices
    digest += MixRow(nbr_[i], static_cast<uint64_t>(amt_[i]));
    ++*rows;
  }
  return digest;
}

uint64_t Adjacency::GroupDigest(uint32_t a, uint64_t* rows) const {
  uint64_t digest = 0;
  *rows = 0;
  uint64_t i = offsets_[a];
  const uint64_t end = offsets_[a + 1];
  while (i < end) {
    uint32_t b = nbr_[i];
    uint64_t count = 0;
    int64_t sum = 0;
    for (; i < end && nbr_[i] == b; ++i) {
      ++count;
      sum += amt_[i];
    }
    if (b == a) continue;
    digest += MixRow(b, count, static_cast<uint64_t>(sum));
    ++*rows;
  }
  return digest;
}

uint64_t Adjacency::Triangles(uint32_t a) const {
  std::vector<std::pair<uint32_t, uint32_t>> na;
  std::vector<std::pair<uint32_t, uint32_t>> nb;
  Distinct(a, &na);
  uint64_t total = 0;
  for (const auto& [b, mab] : na) {
    if (b == a) continue;
    Distinct(b, &nb);
    // Merge-intersect N+(a) and N+(b); c must differ from a and b.
    size_t x = 0;
    size_t y = 0;
    uint64_t per_b = 0;
    while (x < na.size() && y < nb.size()) {
      if (na[x].first < nb[y].first) {
        ++x;
      } else if (na[x].first > nb[y].first) {
        ++y;
      } else {
        uint32_t c = na[x].first;
        if (c != a && c != b) per_b += static_cast<uint64_t>(na[x].second) * nb[y].second;
        ++x;
        ++y;
      }
    }
    total += mab * per_b;
  }
  return total;
}

uint64_t Adjacency::Recommendations(uint32_t a) const {
  std::vector<std::pair<uint32_t, uint32_t>> na;
  Distinct(a, &na);
  uint64_t total = 0;
  for (const auto& [b, mab] : na) {
    if (b == a) continue;
    // Every edge c->b with c != a; a's own parallel edges to b are the
    // mab edges that would rebind c = a.
    total += static_cast<uint64_t>(mab) * (in_degree_[b] - mab);
  }
  return total;
}

}  // namespace perfbench
