// Expected answers computed from the benchmark's own copy of the edges,
// with no engine code: the checks the workloads hold the engine to.
// Semantics follow the engine's: subgraph isomorphism, so matched
// vertices are distinct and parallel edges count once each.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A plain edge array: edge i runs src[i] -> dst[i] with amount amt[i]
// (0 when the workload has no amount).
struct EdgeArray {
  uint32_t num_vertices = 0;
  std::vector<uint32_t> src;
  std::vector<uint32_t> dst;
  std::vector<int64_t> amt;
  size_t size() const { return src.size(); }
};

// Out-adjacency (sorted by neighbour) and in-degrees over the first
// `num_edges` edges of an EdgeArray.
class Adjacency {
 public:
  Adjacency(const EdgeArray& edges, size_t num_edges);

  uint64_t out_degree(uint32_t v) const { return offsets_[v + 1] - offsets_[v]; }

  // Serve: order-independent digests of the 1-hop rows (b, amt) and of
  // the grouped rows (b, COUNT, SUM(amt)), with their row counts.
  uint64_t PointDigest(uint32_t a, uint64_t* rows) const;
  uint64_t GroupDigest(uint32_t a, uint64_t* rows) const;
  // Serve: matches of (a)->(b)->(c), (a)->(c) for a fixed a, by direct
  // intersection of the two out-lists.
  uint64_t Triangles(uint32_t a) const;
  // Ingest: matches of (a)->(b)<-(c) for a fixed a (c != a).
  uint64_t Recommendations(uint32_t a) const;

 private:
  // Distinct neighbours of v with their multiplicities.
  void Distinct(uint32_t v, std::vector<std::pair<uint32_t, uint32_t>>* out) const;

  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> nbr_;
  std::vector<int64_t> amt_;
  std::vector<uint64_t> in_degree_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
