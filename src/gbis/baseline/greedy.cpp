#include "gbis/baseline/greedy.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace gbis {

namespace {
constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
}  // namespace

Bisection greedy_bisection(const Graph& g, Rng& rng) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint8_t> sides(n, 1);
  if (n == 0) return Bisection(g, std::move(sides));

  const std::uint32_t target = (n + 1) / 2;
  std::vector<Weight> attachment(n, 0);  // weight into the grown region
  std::vector<std::uint8_t> absorbed(n, 0);

  // The frontier: an indexed max-heap keyed by (attachment, -raised):
  // strongest attachment first, FIFO among ties by when each vertex's
  // attachment last rose, so equal-attachment growth stays
  // BFS-contiguous (a max-id tie-break can ride one rail of a ladder
  // and shred the region). Edge weights are positive, so every raise
  // re-keys its vertex upward in place: one slot per vertex, not one
  // entry per frontier edge as a lazy-deletion heap would hold.
  std::vector<Vertex> heap;
  std::vector<std::uint32_t> slot(n, kNoSlot);
  std::vector<std::uint64_t> raised(n, 0);
  std::uint64_t clock = 0;
  const auto above = [&](Vertex a, Vertex b) {
    return attachment[a] != attachment[b] ? attachment[a] > attachment[b]
                                          : raised[a] < raised[b];
  };
  const auto place = [&](std::uint32_t i, Vertex v) {
    heap[i] = v;
    slot[v] = i;
  };

  std::uint32_t grown = 0;
  while (grown < target) {
    Vertex v = 0;
    if (!heap.empty()) {
      v = heap[0];
      slot[v] = kNoSlot;
      const Vertex last = heap.back();
      heap.pop_back();
      if (!heap.empty()) {
        const auto size = static_cast<std::uint32_t>(heap.size());
        std::uint32_t i = 0;
        for (std::uint32_t child = 1; child < size; child = 2 * i + 1) {
          if (child + 1 < size && above(heap[child + 1], heap[child])) {
            ++child;
          }
          if (!above(heap[child], last)) break;
          place(i, heap[child]);
          i = child;
        }
        place(i, last);
      }
    } else {
      // Frontier empty: seed a new region at a random free vertex.
      do {
        v = static_cast<Vertex>(rng.below(n));
      } while (absorbed[v]);
    }
    absorbed[v] = 1;
    sides[v] = 0;
    ++grown;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const Vertex u = nbrs[k];
      if (absorbed[u]) continue;
      attachment[u] += wts[k];
      raised[u] = ++clock;
      if (slot[u] == kNoSlot) {
        slot[u] = static_cast<std::uint32_t>(heap.size());
        heap.push_back(u);
      }
      std::uint32_t i = slot[u];
      while (i > 0 && above(u, heap[(i - 1) / 2])) {
        place(i, heap[(i - 1) / 2]);
        i = (i - 1) / 2;
      }
      place(i, u);
    }
  }
  return Bisection(g, std::move(sides));
}

}  // namespace gbis
