// FM-style gain buckets: a doubly-linked bucket list keyed by gain,
// supporting O(1) insert/remove/update and O(range) max queries.
// Shared by the Kernighan-Lin pair-selection scan, the
// Fiduccia-Mattheyses refinement loop and path optimization's pick.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "gbis/graph/graph.hpp"

namespace gbis {

/// Buckets over gains in [-max_gain, +max_gain] holding vertex ids.
/// All operations are O(1) except max_gain_present(), which amortizes
/// to O(1) across a monotone sequence of extractions but is O(range)
/// worst case after arbitrary updates.
class GainBuckets {
 public:
  /// Creates empty buckets for vertices in [0, capacity) and gains in
  /// [-max_gain, +max_gain].
  GainBuckets(std::uint32_t capacity, Weight max_gain)
      : max_gain_(max_gain),
        head_(static_cast<std::size_t>(2 * max_gain + 1), kNil),
        next_(capacity, kNil),
        prev_(capacity, kNil),
        gain_(capacity, 0),
        present_(capacity, 0) {}

  /// Highest gain with a nonempty bucket; kEmpty if none. When
  /// `levels` is given, adds the number of bucket levels inspected (a
  /// deterministic work count for complexity tests).
  static constexpr Weight kEmpty = std::numeric_limits<Weight>::min();
  Weight max_gain_present(std::uint64_t* levels = nullptr) const {
    const Weight start = cursor_;
    Weight g = start;
    while (g > -max_gain_ && head_[index(g)] == kNil) --g;
    cursor_ = g;
    if (levels != nullptr) {
      *levels += static_cast<std::uint64_t>(start - g + 1);
    }
    return head_[index(g)] != kNil ? g : kEmpty;
  }

  bool contains(Vertex v) const { return present_[v] != 0; }

  Weight gain(Vertex v) const {
    assert(present_[v]);
    return gain_[v];
  }

  /// First vertex in the bucket for `g`; kNil if empty.
  static constexpr std::int64_t kNil = -1;
  std::int64_t bucket_head(Weight g) const { return head_[index(g)]; }

  /// Next vertex after v within its bucket; kNil at the end.
  std::int64_t bucket_next(Vertex v) const { return next_[v]; }

  void insert(Vertex v, Weight g) {
    assert(!present_[v]);
    assert(g >= -max_gain_ && g <= max_gain_);
    const std::size_t idx = index(g);
    next_[v] = head_[idx];
    prev_[v] = kNil;
    if (head_[idx] != kNil) prev_[static_cast<Vertex>(head_[idx])] = v;
    head_[idx] = v;
    gain_[v] = g;
    present_[v] = 1;
    if (g > cursor_) cursor_ = g;
  }

  void remove(Vertex v) {
    assert(present_[v]);
    const std::size_t idx = index(gain_[v]);
    if (prev_[v] != kNil) {
      next_[static_cast<Vertex>(prev_[v])] = next_[v];
    } else {
      head_[idx] = next_[v];
    }
    if (next_[v] != kNil) prev_[static_cast<Vertex>(next_[v])] = prev_[v];
    present_[v] = 0;
  }

  /// Moves v to a new gain bucket (no-op if unchanged).
  void update(Vertex v, Weight g) {
    assert(present_[v]);
    if (gain_[v] == g) return;
    remove(v);
    insert(v, g);
  }

  bool empty() const { return max_gain_present() == kEmpty; }

  /// The configured gain bound: valid gains are [-max_gain(), max_gain()].
  Weight max_gain() const { return max_gain_; }

 private:
  std::size_t index(Weight g) const {
    assert(g >= -max_gain_ && g <= max_gain_);
    return static_cast<std::size_t>(g + max_gain_);
  }

  Weight max_gain_;
  mutable Weight cursor_ = 0;  // descending search hint
  std::vector<std::int64_t> head_;
  std::vector<std::int64_t> next_;
  std::vector<std::int64_t> prev_;
  std::vector<Weight> gain_;
  std::vector<std::uint8_t> present_;
};

}  // namespace gbis
