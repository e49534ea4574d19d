#include "sim/event_queue.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"

namespace chronos::sim {

namespace {

// Registered once at load; each update is a thread-local relaxed increment,
// cheap enough for the schedule/pop fast paths (BM_EventQueueScheduleFire
// guards the budget). Strictly observational: nothing here feeds back into
// event order or timing.
const obs::Counter c_scheduled = obs::counter("sim.events_scheduled");
const obs::Counter c_fired = obs::counter("sim.events_fired");
const obs::Counter c_cancelled = obs::counter("sim.events_cancelled");
const obs::Counter c_slots_new = obs::counter("sim.slots_allocated");
const obs::Counter c_slots_reused = obs::counter("sim.slots_reused");
const obs::Gauge g_depth = obs::gauge("sim.queue_depth");

// A 4-ary heap is half as deep as a binary one; sift_down compares more
// children per level, but they sit side by side in memory.
constexpr std::size_t kArity = 4;

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  std::uint32_t slot;
  if (free_head_ != 0) {
    slot = free_head_ - 1;
    free_head_ = slots_[slot].next_free;
    c_slots_reused.add();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    c_slots_new.add();
  }
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  auto& s = slots_[slot];
  s.handler = nullptr;
  ++s.generation;  // invalidates any outstanding EventId
  s.next_free = free_head_;
  free_head_ = slot + 1;
}

void EventQueue::place(std::size_t pos, const Entry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos, const Entry& entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!(entry < heap_[parent])) {
      break;
    }
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::sift_down(std::size_t pos, const Entry& entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * pos + 1;
    if (first >= n) {
      break;
    }
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (heap_[child] < heap_[best]) {
        best = child;
      }
    }
    if (!(heap_[best] < entry)) {
      break;
    }
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

void EventQueue::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // the removed entry was the last one
  }
  if (pos > 0 && last < heap_[(pos - 1) / kArity]) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

EventId EventQueue::schedule(Time at, EventHandler& handler,
                             const TypedEvent& event) {
  CHRONOS_EXPECTS(at >= 0.0, "cannot schedule an event before time 0");
  const std::uint32_t slot = acquire_slot();
  auto& s = slots_[slot];
  s.handler = &handler;
  s.event = event;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, slot});
  c_scheduled.add();
  g_depth.update(heap_.size());
  return EventId{static_cast<std::uint64_t>(slot) + 1, s.generation};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const std::uint64_t slot = id.value - 1;
  if (slot >= slots_.size() || slots_[slot].generation != id.generation) {
    return false;  // already fired, already cancelled, or a forged id
  }
  const std::size_t pos = slots_[slot].heap_pos;
  CHRONOS_ENSURES(pos < heap_.size() && heap_[pos].slot == slot,
                  "pending event lost its heap entry");
  remove_at(pos);
  release_slot(static_cast<std::uint32_t>(slot));
  c_cancelled.add();
  return true;
}

Time EventQueue::next_time() const {
  CHRONOS_EXPECTS(!heap_.empty(), "next_time on an empty queue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  CHRONOS_EXPECTS(!heap_.empty(), "pop on an empty queue");
  const Entry top = heap_.front();
  remove_at(0);
  auto& slot = slots_[top.slot];
  CHRONOS_ENSURES(slot.handler != nullptr, "live event lost its handler");
  const Fired fired{top.time, slot.handler, slot.event};
  release_slot(top.slot);
  c_fired.add();
  return fired;
}

void EventQueue::reserve(std::size_t n) {
  // Grow geometrically even when hinted: reserving exactly size() + n on
  // every burst would pin capacity to the request and force a full
  // reallocate-and-copy per burst (quadratic over repeated submissions).
  const auto grow = [](auto& vec, std::size_t want) {
    if (want > vec.capacity()) {
      vec.reserve(std::max(want, 2 * vec.capacity()));
    }
  };
  grow(heap_, heap_.size() + n);
  grow(slots_, slots_.size() + n);
}

}  // namespace chronos::sim
