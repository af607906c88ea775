#include "gbis/dyn/lineage.hpp"

#include <algorithm>

namespace gbis {

VertexMap::VertexMap(const std::vector<Vertex>& dense)
    : extended_(dense.size()), known_(true) {
  deleted_.reserve(static_cast<std::size_t>(
      std::count(dense.begin(), dense.end(), kDeletedVertex)));
  for (std::size_t e = 0; e < dense.size(); ++e) {
    if (dense[e] == kDeletedVertex) deleted_.push_back(static_cast<Vertex>(e));
  }
}

Vertex VertexMap::operator[](std::uint64_t e) const {
  const auto below = std::lower_bound(deleted_.begin(), deleted_.end(), e);
  if (below != deleted_.end() && *below == e) return kDeletedVertex;
  return static_cast<Vertex>(e - static_cast<std::uint64_t>(
                                     below - deleted_.begin()));
}

std::pair<const LineageRecord*, bool> SvcLineage::insert(
    LineageRecord record) {
  const auto child_it = by_child_.find(record.child);
  if (child_it != by_child_.end()) return {&records_[child_it->second], false};
  if (full()) return {nullptr, false};
  records_.push_back(std::move(record));
  const std::size_t index = records_.size() - 1;
  const LineageRecord& stored = records_.back();
  map_heap_bytes_ += stored.map.heap_bytes();
  by_child_.emplace(stored.child, index);
  by_batch_.emplace(BatchKey{stored.parent, stored.batch_hash}, index);
  return {&stored, true};
}

const LineageRecord* SvcLineage::by_child(std::uint64_t fingerprint) const {
  const auto it = by_child_.find(fingerprint);
  return it == by_child_.end() ? nullptr : &records_[it->second];
}

const LineageRecord* SvcLineage::by_batch(std::uint64_t parent,
                                          std::uint64_t batch_hash) const {
  const auto it = by_batch_.find(BatchKey{parent, batch_hash});
  return it == by_batch_.end() ? nullptr : &records_[it->second];
}

std::uint64_t SvcLineage::bytes() const {
  // Hash-node estimate: next link + payload + cached hash per entry,
  // plus one pointer per bucket.
  constexpr std::uint64_t kChildNode =
      sizeof(void*) + sizeof(std::pair<const std::uint64_t, std::size_t>) +
      sizeof(std::size_t);
  constexpr std::uint64_t kBatchNode =
      sizeof(void*) + sizeof(std::pair<const BatchKey, std::size_t>) +
      sizeof(std::size_t);
  return records_.size() * (sizeof(LineageRecord) + kChildNode + kBatchNode) +
         (by_child_.bucket_count() + by_batch_.bucket_count()) *
             sizeof(void*) +
         map_heap_bytes_;
}

std::uint32_t SvcLineage::depth_of(std::uint64_t fingerprint) const {
  const LineageRecord* record = by_child(fingerprint);
  return record == nullptr ? 0 : record->depth;
}

void SvcLineage::visit(
    const std::function<void(const LineageRecord&)>& fn) const {
  for (const LineageRecord& record : records_) fn(record);
}

}  // namespace gbis
