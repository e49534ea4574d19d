// Simulation clock and event loop.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.h"

namespace chronos::sim {

class Simulator {
 public:
  /// Current simulated time.
  Time now() const { return now_; }

  /// Delivers `event` to `handler` at absolute time `at` (>= now()) / after
  /// `delay` seconds (>= 0); see EventQueue::schedule.
  EventId at(Time at, EventHandler& handler, const TypedEvent& event);
  EventId after(double delay, EventHandler& handler, const TypedEvent& event);

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event queue drains.
  void run();

  /// Runs until the queue drains or simulated time would exceed `limit`;
  /// events at exactly `limit` still fire.
  void run_until(Time limit);

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Capacity hint forwarded to the event queue; callers that know how many
  /// events a burst will schedule (e.g. a job submission) avoid mid-burst
  /// reallocation.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  /// Pending events.
  std::size_t pending() const { return queue_.size(); }

 private:
  void step();

  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace chronos::sim
