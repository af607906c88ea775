#include "gbis/dyn/mutation.hpp"

#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "gbis/graph/builder.hpp"
#include "gbis/svc/fingerprint.hpp"

namespace gbis {

namespace {

/// Canonical u<v packing of an undirected edge into one map key.
std::uint64_t edge_key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

std::string edge_text(Vertex u, Vertex v) {
  return "(" + std::to_string(u) + "," + std::to_string(v) + ")";
}

[[noreturn]] void fail(const std::string& reason) {
  throw std::invalid_argument(reason);
}

}  // namespace

std::uint64_t MutationBatch::hash() const {
  Hash64 h;
  h.add(static_cast<std::uint64_t>(add_edges.size()));
  for (const std::uint64_t v : add_edges) h.add(v);
  h.add(static_cast<std::uint64_t>(del_edges.size()));
  for (const std::uint64_t v : del_edges) h.add(v);
  h.add(add_vertices);
  h.add(static_cast<std::uint64_t>(del_vertices.size()));
  for (const std::uint64_t v : del_vertices) h.add(v);
  return h.digest();
}

MutationResult apply_mutation(const Graph& parent,
                              const MutationBatch& batch) {
  if (batch.add_edges.size() % 2 != 0 || batch.del_edges.size() % 2 != 0) {
    fail("edge list must hold an even number of vertex ids");
  }
  const std::uint64_t parent_v = parent.num_vertices();
  const std::uint64_t extended = parent_v + batch.add_vertices;
  if (extended >= kDeletedVertex) fail("vertex count overflow");
  const auto check = [extended](std::uint64_t id) -> Vertex {
    if (id >= extended) {
      fail("vertex " + std::to_string(id) + " out of range");
    }
    return static_cast<Vertex>(id);
  };

  // Edge edits as deltas over the parent's edge set, validated in
  // batch order against the set as edited so far.
  std::unordered_set<std::uint64_t> added;
  std::unordered_set<std::uint64_t> deleted;
  for (std::size_t i = 0; i + 1 < batch.add_edges.size(); i += 2) {
    const Vertex u = check(batch.add_edges[i]);
    const Vertex v = check(batch.add_edges[i + 1]);
    if (u == v) fail("self-loop " + edge_text(u, v));
    const std::uint64_t key = edge_key(u, v);
    const bool in_parent =
        u < parent_v && v < parent_v && parent.has_edge(u, v);
    if (added.count(key) != 0 || (in_parent && deleted.count(key) == 0)) {
      fail("edge " + edge_text(u, v) + " already exists");
    }
    added.insert(key);
  }
  for (std::size_t i = 0; i + 1 < batch.del_edges.size(); i += 2) {
    const Vertex u = check(batch.del_edges[i]);
    const Vertex v = check(batch.del_edges[i + 1]);
    if (u == v) fail("self-loop " + edge_text(u, v));
    const std::uint64_t key = edge_key(u, v);
    if (added.erase(key) != 0) continue;  // added earlier in this batch
    const bool in_parent =
        u < parent_v && v < parent_v && parent.has_edge(u, v);
    if (!in_parent || deleted.count(key) != 0) {
      fail("edge " + edge_text(u, v) + " not found");
    }
    deleted.insert(key);
  }

  // Vertex deletions, then the compact ascending renumbering (which a
  // lineage VertexMap derives back from the deleted ids alone).
  std::vector<std::uint8_t> dead(extended, 0);
  for (const std::uint64_t id : batch.del_vertices) {
    const Vertex v = check(id);
    if (dead[v] != 0) {
      fail("vertex " + std::to_string(v) + " deleted twice");
    }
    dead[v] = 1;
  }
  MutationResult result;
  result.map.assign(extended, kDeletedVertex);
  Vertex next = 0;
  for (std::uint64_t v = 0; v < extended; ++v) {
    if (dead[v] == 0) result.map[v] = next++;
  }

  GraphBuilder builder(next);
  for (std::uint64_t v = 0; v < parent_v; ++v) {
    if (dead[v] == 0) {
      builder.set_vertex_weight(result.map[v],
                                parent.vertex_weight(static_cast<Vertex>(v)));
    }
  }
  // Surviving parent edges (each once, via the u < v half of the CSR),
  // minus explicit deletions and edges orphaned by vertex deletions.
  for (Vertex u = 0; u < parent_v; ++u) {
    if (dead[u] != 0) continue;
    const auto neighbors = parent.neighbors(u);
    const auto weights = parent.edge_weights(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const Vertex v = neighbors[i];
      if (v < u || dead[v] != 0) continue;
      if (deleted.count(edge_key(u, v)) != 0) continue;
      builder.add_edge(result.map[u], result.map[v], weights[i]);
    }
  }
  // Batch-added edges (weight 1). Hash-set order is irrelevant: the
  // builder sorts and merges, so the child CSR — and therefore its
  // fingerprint — is canonical.
  for (const std::uint64_t key : added) {
    const Vertex u = static_cast<Vertex>(key >> 32);
    const Vertex v = static_cast<Vertex>(key & 0xffffffffu);
    if (dead[u] != 0 || dead[v] != 0) continue;
    builder.add_edge(result.map[u], result.map[v], 1);
  }
  result.child = builder.build();
  return result;
}

}  // namespace gbis
