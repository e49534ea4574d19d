#include "sim/event_queue.h"

#include <algorithm>
#include <functional>

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
const obs::Counter c_stale = obs::counter("sim.events_stale_dropped");
const obs::Counter c_slots_new = obs::counter("sim.slots_allocated");
const obs::Counter c_slots_reused = obs::counter("sim.slots_reused");
const obs::Gauge g_depth = obs::gauge("sim.queue_depth");

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
  ++s.generation;  // invalidates the heap entry and any outstanding EventId
  s.next_free = free_head_;
  free_head_ = slot + 1;
}

EventId EventQueue::schedule(Time at, EventHandler& handler,
                             const TypedEvent& event) {
  CHRONOS_EXPECTS(at >= 0.0, "cannot schedule an event before time 0");
  const std::uint32_t slot = acquire_slot();
  auto& s = slots_[slot];
  s.handler = &handler;
  s.event = event;
  heap_.push_back(Entry{at, next_seq_++, s.generation, slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_;
  c_scheduled.add();
  g_depth.update(live_);
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
  // The heap entry goes stale and is dropped lazily.
  release_slot(static_cast<std::uint32_t>(slot));
  CHRONOS_ENSURES(live_ > 0, "live event count underflow");
  --live_;
  c_cancelled.add();
  return true;
}

void EventQueue::drop_stale() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slots_[top.slot].generation == top.generation) {
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    c_stale.add();
  }
}

bool EventQueue::empty() const {
  drop_stale();
  return heap_.empty();
}

Time EventQueue::next_time() const {
  drop_stale();
  CHRONOS_EXPECTS(!heap_.empty(), "next_time on an empty queue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_stale();
  CHRONOS_EXPECTS(!heap_.empty(), "pop on an empty queue");
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
  auto& slot = slots_[top.slot];
  CHRONOS_ENSURES(slot.handler != nullptr, "live event lost its handler");
  const Fired fired{top.time, slot.handler, slot.event};
  release_slot(top.slot);
  CHRONOS_ENSURES(live_ > 0, "live event count underflow");
  --live_;
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
