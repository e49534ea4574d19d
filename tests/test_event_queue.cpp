#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "closure_handler.h"
#include "common/error.h"

namespace chronos::sim {
namespace {

using testing::ClosureHandler;
using testing::fire;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  ClosureHandler h;
  std::vector<int> order;
  h.schedule(q, 3.0, [&] { order.push_back(3); });
  h.schedule(q, 1.0, [&] { order.push_back(1); });
  h.schedule(q, 2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    fire(q.pop());
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInInsertionOrder) {
  EventQueue q;
  ClosureHandler h;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    h.schedule(q, 5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    fire(q.pop());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  ClosureHandler h;
  bool fired = false;
  const auto id = h.schedule(q, 1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  ClosureHandler h;
  const auto id = h.schedule(q, 1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  ClosureHandler h;
  const auto id = h.schedule(q, 1.0, [] {});
  fire(q.pop());
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleEventSkipsIt) {
  EventQueue q;
  ClosureHandler h;
  std::vector<int> order;
  h.schedule(q, 1.0, [&] { order.push_back(1); });
  const auto id = h.schedule(q, 2.0, [&] { order.push_back(2); });
  h.schedule(q, 3.0, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) {
    fire(q.pop());
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  ClosureHandler h;
  EXPECT_EQ(q.size(), 0u);
  const auto a = h.schedule(q, 1.0, [] {});
  h.schedule(q, 2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  ClosureHandler h;
  const auto a = h.schedule(q, 1.0, [] {});
  h.schedule(q, 2.0, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, PopReportsScheduledTime) {
  EventQueue q;
  ClosureHandler h;
  h.schedule(q, 4.5, [] {});
  EXPECT_EQ(q.pop().time, 4.5);
}

TEST(EventQueue, RejectsInvalidSchedules) {
  EventQueue q;
  ClosureHandler h;
  EXPECT_THROW(h.schedule(q, -1.0, [] {}), PreconditionError);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), PreconditionError);
  EXPECT_THROW(q.next_time(), PreconditionError);
}

// --- slot-arena semantics ---------------------------------------------------

TEST(EventQueue, StaleIdCannotCancelSlotReuse) {
  // After an event fires, its arena slot is recycled. The old handle's
  // generation tag no longer matches, so it must not cancel the newcomer.
  EventQueue q;
  ClosureHandler h;
  const auto old_id = h.schedule(q, 1.0, [] {});
  fire(q.pop());
  bool fired = false;
  h.schedule(q, 2.0, [&] { fired = true; });  // likely reuses the slot
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  fire(q.pop());
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleIdAfterCancelCannotCancelSlotReuse) {
  EventQueue q;
  ClosureHandler h;
  const auto old_id = h.schedule(q, 1.0, [] {});
  EXPECT_TRUE(q.cancel(old_id));
  h.schedule(q, 2.0, [] {});
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ReserveDoesNotDisturbSemantics) {
  EventQueue q;
  ClosureHandler h;
  q.reserve(64);
  std::vector<int> order;
  h.schedule(q, 2.0, [&] { order.push_back(2); });
  const auto id = h.schedule(q, 1.5, [&] { order.push_back(-1); });
  h.schedule(q, 1.0, [&] { order.push_back(1); });
  q.cancel(id);
  while (!q.empty()) {
    fire(q.pop());
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ChurnReusesSlotsWithCorrectOrdering) {
  // Heavy schedule/cancel/fire churn across recycled slots: (time, seq)
  // determinism and cancellation must survive arbitrary slot reuse.
  EventQueue q;
  ClosureHandler h;
  std::vector<int> fired;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i) {
      const int tag = round * 100 + i;
      ids.push_back(h.schedule(q, static_cast<double>(i % 7),
                               [&fired, tag] { fired.push_back(tag); }));
    }
    for (int i = 0; i < 20; i += 3) {
      q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    double last = -1.0;
    while (!q.empty()) {
      const auto f = q.pop();
      EXPECT_GE(f.time, last);
      last = f.time;
      fire(f);
    }
  }
  // 50 rounds x 20 events, minus 7 cancellations per round.
  EXPECT_EQ(fired.size(), 50u * 13u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  ClosureHandler h;
  double last = -1.0;
  for (int i = 0; i < 5000; ++i) {
    h.schedule(q, static_cast<double>((i * 7919) % 1000), [] {});
  }
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

}  // namespace
}  // namespace chronos::sim
