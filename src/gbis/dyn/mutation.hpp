// Deterministic edit batches over immutable graphs — the data model of
// the dynamic-graph subsystem behind the service's `mutate` op
// (docs/SERVICE.md).
//
// A MutationBatch is applied to a parent graph in a fixed order:
//
//   1. `add_vertices` isolated vertices (weight 1) are appended with
//      ids |V|..|V|+N-1 — the *extended* id space every edge edit and
//      vertex deletion below addresses;
//   2. `add_edges` are inserted with weight 1. Adding an edge that
//      already exists (in the parent or earlier in the batch), a
//      self-loop, or an out-of-range endpoint is an error;
//   3. `del_edges` are removed. Deleting an edge that does not exist
//      at this point (including one already deleted by the batch) is
//      an error;
//   4. `del_vertices` are removed together with their incident edges,
//      and the survivors are renumbered *compactly in ascending old-id
//      order* — so the whole vertex map is a function of the extended
//      size and the deleted ids, which is all a lineage record keeps
//      (dyn/lineage). Deleting the same vertex twice is an error.
//
// Errors throw std::invalid_argument whose what() is the stable
// "mutate: ..." suffix the service puts on the wire. apply_mutation is
// a pure function of (parent, batch): the same edit batch always
// yields the same child graph, the same vertex map, and therefore the
// same canonical fingerprint — which is what lets a crash-restarted
// service replay mutation chains byte-identically (svc/cache_store).
#pragma once

#include <cstdint>
#include <vector>

#include "gbis/graph/graph.hpp"

namespace gbis {

/// Sentinel in a lineage vertex map: the extended-id vertex did not
/// survive the batch.
inline constexpr Vertex kDeletedVertex = 0xffffffffu;

/// One edit batch, as parsed off a `mutate` request. Edge lists are
/// flat pair sequences (u0,v0,u1,v1,...) exactly as they arrive on the
/// wire; order is significant (it is hashed and applied as given).
struct MutationBatch {
  std::vector<std::uint64_t> add_edges;     ///< flat (u,v) pairs
  std::vector<std::uint64_t> del_edges;     ///< flat (u,v) pairs
  std::uint64_t add_vertices = 0;           ///< isolated vertices appended
  std::vector<std::uint64_t> del_vertices;  ///< extended ids to remove

  /// True when the batch edits nothing. The protocol layer rejects
  /// empty batches outright (a no-op mutate would alias the parent
  /// fingerprint under a fresh lineage edge).
  bool empty() const {
    return add_edges.empty() && del_edges.empty() && add_vertices == 0 &&
           del_vertices.empty();
  }

  /// Edit distance: one unit per edge added or deleted, per vertex
  /// added, per vertex deleted (edges removed implicitly by a vertex
  /// deletion are not double-counted).
  std::uint64_t edit_distance() const {
    return add_edges.size() / 2 + del_edges.size() / 2 + add_vertices +
           del_vertices.size();
  }

  /// Canonical content hash of the batch (order-sensitive, Hash64) —
  /// the identity a repeated mutate of the same parent is recognized
  /// by, in memory and in the lineage journal.
  std::uint64_t hash() const;
};

/// What applying a batch produced.
struct MutationResult {
  Graph child;
  /// Extended-id -> child-id map, size |V(parent)| + add_vertices;
  /// kDeletedVertex marks non-survivors. A lineage record keeps it
  /// as a VertexMap (dyn/lineage).
  std::vector<Vertex> map;
};

/// Applies `batch` to `parent` (see the file comment for the exact
/// semantics). Throws std::invalid_argument with a stable "..." reason
/// on any invalid edit; never modifies `parent`.
MutationResult apply_mutation(const Graph& parent, const MutationBatch& batch);

}  // namespace gbis
