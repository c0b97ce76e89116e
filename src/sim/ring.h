// The FIFO slot ring behind every shaped link's queue and in-flight span.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ccsig::sim {

/// Unbounded FIFO of recycled slots. Storage is a power-of-two ring that
/// grows geometrically to the high-water mark and is never shrunk, so
/// steady-state push/pop performs no allocation. Elements are written and
/// updated in place: `push()` hands out the new back slot and `operator[]`
/// reaches any live slot, so an element is copied only when the ring grows.
template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// The i-th live slot from the front (0 = front). Precondition: i < size().
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }

  T& front() { return slots_[head_]; }

  /// Appends a slot and returns it for the caller to fill. The slot holds
  /// whatever an earlier element left there. The reference is invalidated
  /// by the next push (which may grow the ring).
  T& push() {
    if (count_ == slots_.size()) grow();
    return slots_[(head_ + count_++) & mask()];
  }

  /// Drops the front slot. Precondition: !empty().
  void pop() {
    head_ = (head_ + 1) & mask();
    --count_;
  }

  /// Current slot-pool size (tests assert it stops growing in steady state).
  std::size_t slot_capacity() const { return slots_.size(); }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    // Double the ring and linearize the live span to the front. Power-of-two
    // sizes keep the index math a mask.
    std::vector<T> next(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) next[i] = (*this)[i];
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two ring, grows to high-water mark
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ccsig::sim
