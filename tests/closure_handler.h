// Test-only EventHandler that runs one registered closure per typed event,
// so tests can write event bodies as lambdas while the simulator core knows
// typed events only.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace chronos::testing {

class ClosureHandler final : public sim::EventHandler {
 public:
  /// Schedules `fn` on `queue` at absolute time `at`.
  sim::EventId schedule(sim::EventQueue& queue, sim::Time at,
                        std::function<void()> fn) {
    return queue.schedule(at, *this, add(std::move(fn)));
  }

  /// Schedules `fn` on `simulator` at absolute time `at`.
  sim::EventId at(sim::Simulator& simulator, sim::Time at,
                  std::function<void()> fn) {
    return simulator.at(at, *this, add(std::move(fn)));
  }

  /// Schedules `fn` on `simulator` after `delay` seconds.
  sim::EventId after(sim::Simulator& simulator, double delay,
                     std::function<void()> fn) {
    return simulator.after(delay, *this, add(std::move(fn)));
  }

  void on_event(const sim::TypedEvent& event) override { fns_[event.slot](); }

 private:
  sim::TypedEvent add(std::function<void()> fn) {
    sim::TypedEvent event;
    event.slot = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
    return event;
  }

  /// A deque, so a running closure that schedules another keeps its place.
  std::deque<std::function<void()>> fns_;
};

/// Delivers a popped event the way Simulator::step does.
inline void fire(const sim::EventQueue::Fired& fired) {
  fired.handler->on_event(fired.event);
}

}  // namespace chronos::testing
