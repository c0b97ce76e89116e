// A sorted vector consumed from the front, for sequence-keyed state that
// behaves like a FIFO: the TCP sender's outstanding segments, the
// receiver's out-of-order segments, and the RTT sampler's outstanding
// window (analysis::OutstandingWindow).
//
// Entries almost always arrive at the back (new data at snd_nxt, the
// newest out-of-order arrival), cumulative ACKs retire a prefix, and
// lookups binary-search the live range. Retiring advances a head index
// instead of erasing, so it is O(1) amortized, and no entry allocates a
// node of its own.
//
// Memory is bounded by the live count, not by the retired prefix:
//   * retiring everything clears the vector (capacity kept, so the next
//     flight reuses it);
//   * an add into a full vector first drops the retired prefix in place if
//     it is at least a quarter of the vector, and otherwise regrows to
//     twice the live count, copying only live entries.
// Capacity therefore never exceeds max(2 * peak live, 16) entries. A drop
// moves at most three entries per add since the previous one, and a
// regrow leaves the live count 50 % of headroom (it must pass 3/4 of the
// new capacity before the next regrow), so a flow whose flight only nears
// its earlier peak does not allocate again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ccsig::sim {

template <typename T>
class FifoVector {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  iterator begin() { return items_.begin() + offset(head_); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin() + offset(head_); }
  const_iterator end() const { return items_.end(); }

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  std::size_t capacity() const { return items_.capacity(); }

  T& front() { return items_[head_]; }
  const T& back() const { return items_.back(); }

  void push_back(const T& v) {
    make_room();
    items_.push_back(v);
  }

  /// Inserts before `pos` (an iterator into the live range).
  iterator insert(iterator pos, const T& v) {
    // make_room() only drops retired entries, so the offset into the live
    // range survives it.
    const auto at = pos - begin();
    make_room();
    return items_.insert(begin() + at, v);
  }

  /// Retires every live entry before `pos`.
  void retire_before(iterator pos) {
    head_ = static_cast<std::size_t>(pos - items_.begin());
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

  /// Frees the storage, leaving the vector empty.
  void release() {
    std::vector<T>().swap(items_);
    head_ = 0;
  }

 private:
  static std::ptrdiff_t offset(std::size_t i) {
    return static_cast<std::ptrdiff_t>(i);
  }

  /// Ensures one more entry fits without the vector's own doubling, which
  /// would size the storage by the retired prefix too.
  void make_room() {
    if (items_.size() < items_.capacity()) return;
    if (head_ > 0 && head_ * 4 >= items_.size()) {
      items_.erase(items_.begin(), begin());
      head_ = 0;
      return;
    }
    std::vector<T> grown;
    grown.reserve(std::max<std::size_t>(2 * size(), 16));
    grown.assign(begin(), end());
    items_.swap(grown);
    head_ = 0;
  }

  std::vector<T> items_;  // live from head_
  std::size_t head_ = 0;
};

}  // namespace ccsig::sim
