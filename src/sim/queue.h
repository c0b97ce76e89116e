// Drop-tail FIFO byte queue used at the head of every shaped link.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.h"

namespace ccsig::sim {

/// Unbounded FIFO of recycled slots. Storage is a power-of-two ring that
/// grows geometrically to the high-water mark and is never shrunk, so
/// steady-state push/pop performs no allocation — elements (packets, or
/// packets with their delivery keys) are copied into and out of pooled
/// slots.
template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  const T& front() const { return slots_[head_]; }

  void push(const T& v) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = v;
    ++count_;
  }

  T pop() {
    T v = slots_[head_];
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return v;
  }

  /// Current slot-pool size (tests assert it stops growing in steady state).
  std::size_t slot_capacity() const { return slots_.size(); }

 private:
  void grow() {
    // Double the ring and linearize the live span to the front. Power-of-two
    // sizes keep the index math a mask.
    std::vector<T> next(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two ring, grows to high-water mark
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

using PacketRing = Ring<Packet>;

/// Byte-limited drop-tail queue. Capacity is expressed in bytes because the
/// paper sizes buffers in milliseconds at the link rate and we convert.
class DropTailQueue {
 public:
  explicit DropTailQueue(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Attempts to enqueue. Returns false (and counts a drop) when the packet
  /// does not fit.
  bool push(const Packet& p) {
    if (occupancy_bytes_ + p.wire_bytes() > capacity_bytes_) {
      ++drops_;
      dropped_bytes_ += p.wire_bytes();
      return false;
    }
    occupancy_bytes_ += p.wire_bytes();
    if (occupancy_bytes_ > max_occupancy_bytes_) {
      max_occupancy_bytes_ = occupancy_bytes_;
    }
    ring_.push(p);
    return true;
  }

  bool empty() const { return ring_.empty(); }
  std::size_t size() const { return ring_.size(); }

  const Packet& front() const { return ring_.front(); }

  Packet pop() {
    Packet p = ring_.pop();
    occupancy_bytes_ -= p.wire_bytes();
    return p;
  }

  std::size_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t occupancy_bytes() const { return occupancy_bytes_; }
  std::size_t max_occupancy_bytes() const { return max_occupancy_bytes_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }

  /// Current slot-pool size (tests assert it stops growing in steady state).
  std::size_t slot_capacity() const { return ring_.slot_capacity(); }

 private:
  std::size_t capacity_bytes_;
  std::size_t occupancy_bytes_ = 0;
  std::size_t max_occupancy_bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  PacketRing ring_;
};

}  // namespace ccsig::sim
