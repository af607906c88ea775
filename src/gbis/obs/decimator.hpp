// Deterministic stride-doubling decimation, shared by the convergence
// trace (MetricsSink), request span lists (SpanBuffer) and the slow
// request span sets serve keeps for its Chrome trace (Service). Once
// `capacity` items are held, every other held item is dropped and the
// keep-stride doubles. Which offered items are kept is a pure function
// of the offered sequence — unlike reservoir sampling — so the kept set
// is bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gbis {

class StrideDecimator {
 public:
  explicit StrideDecimator(std::uint32_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Offers the next item of the sequence for `held` (the items kept so
  /// far), thinning `held` first when it is full. True means append the
  /// offered item.
  template <class T>
  bool admit(std::vector<T>& held) {
    const std::uint64_t ordinal = offered_++;
    if (ordinal % stride_ != 0) return false;
    if (held.size() >= capacity_) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < held.size(); i += 2) {
        // Guard i == kept: self-move-assignment would gut strings.
        if (i != kept) held[kept] = std::move(held[i]);
        ++kept;
      }
      held.resize(kept);
      stride_ *= 2;
      if (ordinal % stride_ != 0) return false;
    }
    return true;
  }

  /// Items offered so far; the last offered item's ordinal is one less.
  std::uint64_t offered() const { return offered_; }

 private:
  std::uint32_t capacity_;
  std::uint64_t offered_ = 0;
  std::uint64_t stride_ = 1;
};

}  // namespace gbis
