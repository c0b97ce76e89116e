// Binary-heap event queue with deterministic tie-breaking and inline
// (allocation-free) storage for event callbacks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ccsig::sim {

/// Move-only callable with small-buffer storage, sized for the simulator's
/// event captures. The common case — an object pointer plus a few scalars —
/// is stored inline in the event itself, so scheduling does not touch the
/// heap. Oversized or non-trivially-copyable closures fall back to a heap
/// allocation.
class EventFn {
 public:
  /// Inline capture budget. The simulator's hot-path captures are an object
  /// pointer plus at most a few scalars (`[this]`, a timer carrier's five
  /// words); packets in flight live in their link's pooled ring, not in
  /// closures. 48 bytes leaves headroom for six words while keeping arena
  /// slots lean (72 bytes, nine per cache-line pair). Events move via memcpy, so the
  /// inline path additionally requires the capture to be trivially
  /// copyable.
  static constexpr std::size_t kInlineBytes = 48;

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_trivially_copyable_v<F>;

  EventFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_.inline_bytes)) Fn(std::forward<F>(f));
      if constexpr (sizeof(Fn) < 16) {
        // The move path copies a constant 16 bytes for small captures;
        // zero the tail so it never reads uninitialized storage.
        std::memset(storage_.inline_bytes + sizeof(Fn), 0, 16 - sizeof(Fn));
      }
      invoke_ = [](EventFn& e) {
        (*std::launder(reinterpret_cast<Fn*>(e.storage_.inline_bytes)))();
      };
      destroy_ = nullptr;  // trivially destructible by construction
      size_ = static_cast<std::uint8_t>(sizeof(Fn));
    } else {
      storage_.heap = new Fn(std::forward<F>(f));
      std::memset(storage_.inline_bytes + sizeof(void*), 0,
                  16 - sizeof(void*));  // see the small-capture memset above
      invoke_ = [](EventFn& e) { (*static_cast<Fn*>(e.storage_.heap))(); };
      destroy_ = [](EventFn& e) { delete static_cast<Fn*>(e.storage_.heap); };
      size_ = static_cast<std::uint8_t>(sizeof(void*));
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      if (destroy_) destroy_(*this);
      steal(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() {
    if (destroy_) destroy_(*this);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the callable lives on the heap (oversized/non-trivial
  /// capture). Exposed for the allocation-regression benches and tests.
  bool uses_heap() const { return destroy_ != nullptr; }

  void operator()() { invoke_(*this); }

 private:
  void steal(EventFn& other) noexcept {
    // Inline callables are trivially copyable, so a byte copy of the
    // storage is a valid move; for heap callables it transfers the pointer.
    // Two constant-size tiers (which the compiler inlines, unlike a
    // variable-length copy): 16 bytes covers the common small captures —
    // `[this]`, `[this, x]`, heap pointers — and only wider captures pay
    // for the full buffer. Empty sources have nothing to copy
    // (uninitialized storage).
    if (other.invoke_) {
      if (other.size_ <= 16) {
        std::memcpy(&storage_, &other.storage_, 16);
      } else {
        std::memcpy(&storage_, &other.storage_, sizeof(storage_));
      }
    }
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    size_ = other.size_;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  union Storage {
    alignas(void*) unsigned char inline_bytes[kInlineBytes];
    void* heap;
  };

  // Header first: for small captures the thunk pointers, size, and capture
  // bytes then share the slot's first cache line, so moving an event in
  // and out of the arena touches one line instead of three.
  void (*invoke_)(EventFn&) = nullptr;
  void (*destroy_)(EventFn&) = nullptr;
  std::uint8_t size_ = 0;  // bytes occupied in storage_ (capture or pointer)
  Storage storage_;
};

/// A position in the event order: time first, then the sequence number the
/// key took when it was reserved. Sequence numbers are unique per queue, so
/// two keys never compare equal unless they are the same key.
struct EventKey {
  Time time = 0;
  std::uint64_t seq = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  friend bool operator==(const EventKey& a, const EventKey& b) {
    return a.seq == b.seq && a.time == b.time;
  }
};

/// Priority queue of timed callbacks. Events at equal times fire in the
/// order their keys were reserved (FIFO tie-break via a sequence number),
/// which keeps runs reproducible. `schedule()` reserves and queues in one
/// step; `reserve()` + `schedule_reserved()` split the two, so a component
/// can take its place in the order now and queue the callback later (or
/// never) without any other event's key changing.
///
/// Callbacks live in a slot arena (a recycled `std::vector<EventFn>`), not
/// in the heap entries themselves: the hand-rolled binary heap reorders
/// 16-byte (time, seq|slot) keys, so sift operations never move the
/// callbacks, and once the arena has grown to the simulation's peak
/// outstanding-event count, scheduling performs no allocation. Pops use
/// Floyd's sift-to-bottom-then-bubble-up, which does one sibling
/// comparison per level on the way down instead of two.
class EventQueue {
 public:
  using Callback = EventFn;

  /// Schedules `cb` to fire at absolute time `t`.
  void schedule(Time t, Callback cb) {
    schedule_reserved(reserve(t), std::move(cb));
  }

  /// Returns the key a `schedule(t, ...)` would take now, consuming its
  /// sequence number.
  EventKey reserve(Time t) { return EventKey{t, next_seq_++}; }

  /// Queues `cb` under a key obtained from `reserve()`. Each key may be
  /// queued at most once.
  void schedule_reserved(EventKey key, Callback cb) {
    if (cb.uses_heap()) ++heap_fallbacks_;
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.push_back(std::move(cb));
      // Keep the free list sized for every slot so releasing events at a
      // simulation's drain (when most slots are free at once) never
      // reallocates: growth happens only here, at a new event high-water.
      if (free_slots_.capacity() < arena_.size()) {
        free_slots_.reserve(arena_.capacity());
      }
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      arena_[slot] = std::move(cb);
    }
    // The packed key orders by seq (slot bits only pad the low end; equal
    // times always differ in seq), preserving the FIFO tie-break exactly.
    push_entry(Entry{key.time, (key.seq << kSlotBits) | slot});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  Time next_time() const { return heap_.front().time; }

  /// Removes and returns the earliest pending event's callback.
  /// Precondition: !empty().
  Callback pop() {
    const std::uint32_t slot =
        static_cast<std::uint32_t>(pop_entry().key & kSlotMask);
    Callback cb = std::move(arena_[slot]);
    free_slots_.push_back(slot);
    return cb;
  }

  /// Total number of keys ever reserved, queued or not (for
  /// micro-benchmarks/tests).
  std::uint64_t scheduled_count() const { return next_seq_; }

  /// High-water mark of pending events.
  std::size_t peak_size() const { return peak_size_; }

  /// Events whose callback did not fit the inline buffer and heap-allocated.
  /// Steady-state simulator traffic must keep this at zero.
  std::uint64_t heap_fallback_count() const { return heap_fallbacks_; }

  /// Arena high-water mark (tests assert it stops growing in steady state).
  std::size_t arena_capacity() const { return arena_.size(); }

 private:
  // 24 slot bits allow ~16.7M outstanding events (a simulation's arena at
  // that size would already occupy gigabytes); the remaining 40 seq bits
  // allow ~10^12 events per queue lifetime.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

  struct Entry {
    Time time;
    std::uint64_t key;  // (seq << kSlotBits) | arena slot
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.key < b.key);
  }

  void push_entry(Entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    if (heap_.size() > peak_size_) peak_size_ = heap_.size();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 1;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Entry pop_entry() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      // Sift the hole at the root to the bottom along the smaller child,
      // then bubble the former last element up from there (Floyd).
      std::size_t i = 0;
      std::size_t child;
      while ((child = 2 * i + 1) + 1 < n) {
        if (before(heap_[child + 1], heap_[child])) ++child;
        heap_[i] = heap_[child];
        i = child;
      }
      if (child < n) {
        heap_[i] = heap_[child];
        i = child;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) >> 1;
        if (!before(last, heap_[parent])) break;
        heap_[i] = heap_[parent];
        i = parent;
      }
      heap_[i] = last;
    }
    return top;
  }

  std::vector<Entry> heap_;                // binary min-heap of packed keys
  std::vector<Callback> arena_;            // one slot per pending event
  std::vector<std::uint32_t> free_slots_;  // recycled arena slots
  std::uint64_t next_seq_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace ccsig::sim
