// Fingerprint lineage: the DAG of "child graph = parent graph + edit
// batch" edges the mutate op creates. Two jobs:
//
//  1. Identity. A repeated mutate — same parent fingerprint, same
//     batch hash — is recognized and answered from its record without
//     re-materializing either graph, which is what lets a
//     crash-restarted service (which journals lineage records but not
//     graphs) replay a pre-crash mutation chain byte-identically.
//  2. Warm starts. A solve for a mutated graph walks its lineage
//     rootward looking for an ancestor with a cached partition; the
//     per-edge vertex maps project that partition down the chain
//     (dyn/warm).
//
// A vertex map is a pure function of the extended size and the sorted
// deleted ids (dyn/mutation renumbers survivors compactly in ascending
// old-id order), so a record stores exactly that: O(vdels) bytes, none
// for a batch that deletes no vertex. The journal carries the same
// facts, so restored records project like live ones. The one
// exception: a record restored from an older journal line (written
// before deleted ids were journaled) with vdels > 0 has an unknown
// map, and a warm walk stops at that edge.
//
// First-wins everywhere: a child fingerprint keeps its first recorded
// parent edge, and a (parent, batch) pair keeps its first child. Both
// are deterministic re-derivations, so later duplicates carry no new
// information. Like the graph store, all access happens on the
// scheduler's dispatch thread.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gbis/dyn/mutation.hpp"
#include "gbis/graph/graph.hpp"

namespace gbis {

/// Extended-id -> child-id map of one lineage edge, held as the
/// extended size (|V(parent)| + add_vertices) and the strictly
/// increasing deleted extended ids. Extended id e maps to e minus the
/// number of deleted ids below it, or to kDeletedVertex if deleted.
class VertexMap {
 public:
  /// An unknown map: the edge answers identity queries but is
  /// non-projectable.
  VertexMap() = default;
  /// `deleted` must be strictly increasing and below `extended`.
  VertexMap(std::uint64_t extended, std::vector<Vertex> deleted)
      : extended_(extended), deleted_(std::move(deleted)), known_(true) {}
  /// From apply_mutation's dense map (implicit, so a MutationResult's
  /// map assigns straight into a record): keeps the size and the
  /// kDeletedVertex positions, which determine every other entry.
  VertexMap(const std::vector<Vertex>& dense);

  bool known() const { return known_; }
  std::uint64_t extended() const { return extended_; }
  std::uint64_t survivors() const { return extended_ - deleted_.size(); }
  const std::vector<Vertex>& deleted() const { return deleted_; }
  /// Child id of extended id `e` (< extended()), or kDeletedVertex.
  Vertex operator[](std::uint64_t e) const;
  /// Heap bytes held beyond sizeof(VertexMap).
  std::uint64_t heap_bytes() const {
    return deleted_.capacity() * sizeof(Vertex);
  }

 private:
  std::uint64_t extended_ = 0;
  std::vector<Vertex> deleted_;
  bool known_ = false;
};

/// One lineage edge: child = parent + batch.
struct LineageRecord {
  std::uint64_t parent = 0;         ///< parent fingerprint
  std::uint64_t child = 0;          ///< child fingerprint
  std::uint64_t batch_hash = 0;     ///< MutationBatch::hash()
  std::uint64_t adds = 0;           ///< edges added
  std::uint64_t dels = 0;           ///< edges deleted explicitly
  std::uint64_t vadds = 0;          ///< vertices added
  std::uint64_t vdels = 0;          ///< vertices deleted
  std::uint64_t edit_distance = 0;  ///< MutationBatch::edit_distance()
  std::uint32_t depth = 1;          ///< chain length from a root graph
  std::uint64_t parent_vertices = 0;
  std::uint64_t child_vertices = 0;
  std::uint64_t child_edges = 0;
  /// Extended-id -> child-id map (extended size parent_vertices +
  /// vadds, vdels deleted ids). Unknown only for a pre-id journal line
  /// with vdels > 0; the edge is then non-projectable.
  VertexMap map;
};

/// Bounded in-memory lineage store.
class SvcLineage {
 public:
  SvcLineage(std::uint32_t max_depth, std::uint64_t max_records)
      : max_depth_(max_depth), max_records_(max_records) {}

  /// Chain-depth cap a mutate of a depth-max_depth graph trips over.
  std::uint32_t max_depth() const { return max_depth_; }

  std::uint64_t size() const { return records_.size(); }
  bool full() const { return records_.size() >= max_records_; }

  /// Inserts a record (first-wins, see file comment): when the child
  /// is already known, the stored record survives unchanged.
  /// Returns {stored record, true if newly inserted}. Insertion of a
  /// new record when full() is the caller's error (checked upstream);
  /// here it is refused by returning {nullptr, false}.
  std::pair<const LineageRecord*, bool> insert(LineageRecord record);

  /// The edge whose child is `fingerprint`, or nullptr.
  const LineageRecord* by_child(std::uint64_t fingerprint) const;

  /// The edge for (parent, batch_hash), or nullptr.
  const LineageRecord* by_batch(std::uint64_t parent,
                                std::uint64_t batch_hash) const;

  /// Estimated live heap of the records and both indexes (the
  /// `lineage_bytes` stats key). O(records + total vdels): independent
  /// of graph size.
  std::uint64_t bytes() const;

  /// Chain depth of `fingerprint`: 0 for unknown/root graphs.
  std::uint32_t depth_of(std::uint64_t fingerprint) const;

  /// Visits every record in insertion order (journal compaction).
  void visit(const std::function<void(const LineageRecord&)>& fn) const;

 private:
  struct BatchKey {
    std::uint64_t parent = 0;
    std::uint64_t hash = 0;
    bool operator==(const BatchKey&) const = default;
  };
  struct BatchKeyHash {
    std::size_t operator()(const BatchKey& k) const {
      // Fingerprints and batch hashes are already 64-bit mixes.
      return static_cast<std::size_t>(k.parent ^ (k.hash * 0x9e3779b97f4a7c15ull));
    }
  };

  std::uint32_t max_depth_;
  std::uint64_t max_records_;
  // Deque so returned record pointers stay valid across later inserts
  // (a batch can chain several mutates before anyone re-looks-up).
  std::deque<LineageRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> by_child_;
  std::unordered_map<BatchKey, std::size_t, BatchKeyHash> by_batch_;
  std::uint64_t map_heap_bytes_ = 0;  // sum of records' map heap_bytes()
};

}  // namespace gbis
