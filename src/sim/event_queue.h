// Cancellable discrete-event queue.
//
// Events fire in (time, insertion-sequence) order so that simultaneous
// events execute deterministically in scheduling order — a requirement for
// reproducible trace-driven runs. (time, seq) is a total order, so the pop
// sequence does not depend on how the heap is laid out.
//
// Every event is a typed event: a POD payload addressed to an EventHandler.
// Scheduling one never allocates, and the handler can recognize a stale
// payload by itself (the scheduler's attempt and timer events do).
//
// Storage is a slot arena plus an indexed 4-ary min-heap. Events live in a
// generation-tagged vector with an intrusive free-list; each heap entry names
// its slot, and each slot records its entry's heap position. Cancel removes
// the entry at once (the last entry fills the hole and sifts up or down), so
// the heap holds exactly the pending events and pop never skips a dead one.
// Cancel/fire bump the slot's generation, so a stale EventId is recognized by
// a tag mismatch — no per-event hashing, and after warm-up no allocation per
// schedule/cancel/pop (slots and heap storage are recycled).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chronos::sim {

/// Simulated time, in seconds.
using Time = double;

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Carries (slot, generation) so a handle outliving its event can never
/// cancel an unrelated event that reused the slot; the 64-bit generation
/// cannot wrap within any feasible run, so the guarantee is unconditional.
struct EventId {
  std::uint64_t value = 0;       ///< slot index + 1; 0 = invalid
  std::uint64_t generation = 0;  ///< slot generation at scheduling time
  bool valid() const { return value != 0; }
};

/// Payload of a typed event. Every field is the handler's to interpret;
/// the queue only stores and returns it.
struct TypedEvent {
  std::uint64_t generation = 0;  ///< staleness tag of the addressed object
  std::uint32_t slot = 0;        ///< addressed object (e.g. a job slot)
  std::int32_t arg = 0;          ///< e.g. an attempt id or a stage index
  std::uint16_t kind = 0;        ///< discriminator for the handler's switch
  std::uint16_t tag = 0;         ///< sub-discriminator (e.g. a timer tag)
};

/// Receiver of typed events.
class EventHandler {
 public:
  virtual void on_event(const TypedEvent& event) = 0;

 protected:
  ~EventHandler() = default;
};

class EventQueue {
 public:
  /// Schedules `event` for delivery to `handler` at absolute time `at`.
  /// Requires at >= 0; the handler must outlive the event.
  EventId schedule(Time at, EventHandler& handler, const TypedEvent& event);

  /// Cancels a pending event; returns false when the event already fired,
  /// was cancelled, or the id is invalid. Idempotent.
  bool cancel(EventId id);

  /// True when no pending events remain.
  bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event. Requires !empty().
  Time next_time() const;

  /// Removes and returns the earliest pending event. Requires !empty().
  /// The caller delivers it: `fired.handler->on_event(fired.event)`.
  struct Fired {
    Time time;
    EventHandler* handler;
    TypedEvent event;
  };
  Fired pop();

  /// Number of pending events.
  std::size_t size() const { return heap_.size(); }

  /// Capacity hint: pre-sizes the heap and the slot arena for `n` pending
  /// events so bulk scheduling (e.g. a job submission that launches every
  /// task's attempt) does not reallocate mid-burst.
  void reserve(std::size_t n);

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    // Min-heap order: earlier time first, then earlier scheduling.
    bool operator<(const Entry& other) const {
      if (time != other.time) {
        return time < other.time;
      }
      return seq < other.seq;
    }
  };

  struct Slot {
    EventHandler* handler = nullptr;
    TypedEvent event;
    std::uint64_t generation = 0;  ///< bumped whenever the slot is released
    std::uint32_t next_free = 0;   ///< free-list link (index + 1; 0 = end)
    std::uint32_t heap_pos = 0;    ///< index of this slot's entry in heap_
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  /// Writes `entry` at heap position `pos` and records `pos` in its slot.
  void place(std::size_t pos, const Entry& entry);
  /// Moves `entry`, destined for the hole at `pos`, toward the root.
  void sift_up(std::size_t pos, const Entry& entry);
  /// Moves `entry`, destined for the hole at `pos`, toward the leaves.
  void sift_down(std::size_t pos, const Entry& entry);
  /// Removes the entry at `pos`; the last entry fills the hole.
  void remove_at(std::size_t pos);

  std::vector<Entry> heap_;  ///< 4-ary min-heap on (time, seq)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = 0;  ///< head of the free list (index + 1)
  std::uint64_t next_seq_ = 0;
};

}  // namespace chronos::sim
