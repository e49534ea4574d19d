#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "closure_handler.h"
#include "common/error.h"
#include "common/rng.h"

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

// --- eager removal ----------------------------------------------------------
//
// The heap is 4-ary: position p's children are 4p+1 .. 4p+4. When every
// scheduled time is >= its parent's, no entry moves on insertion, so the
// array holds the events in scheduling order and a test can pick the heap
// position that a cancellation removes.

/// Ignores every event; these tests read the popped payload directly.
class Sink final : public EventHandler {
 public:
  void on_event(const TypedEvent& /*event*/) override {}
};

/// Schedules `times` in order (payload = index), cancels the events at the
/// indices in `cancel` in that order, and returns the times popped after.
std::vector<Time> pop_after_cancel(const std::vector<Time>& times,
                                   const std::vector<std::size_t>& cancel) {
  EventQueue q;
  Sink sink;
  std::vector<EventId> ids;
  for (std::size_t i = 0; i < times.size(); ++i) {
    TypedEvent event;
    event.generation = i;
    ids.push_back(q.schedule(times[i], sink, event));
  }
  for (const std::size_t i : cancel) {
    EXPECT_TRUE(q.cancel(ids[i])) << "index " << i;
  }
  EXPECT_EQ(q.size(), times.size() - cancel.size());
  std::vector<Time> popped;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_EQ(fired.time, times[fired.event.generation]);
    popped.push_back(fired.time);
  }
  return popped;
}

/// `times` minus the entries at `cancel`, sorted.
std::vector<Time> sorted_without(std::vector<Time> times,
                                 std::vector<std::size_t> cancel) {
  std::sort(cancel.rbegin(), cancel.rend());
  for (const std::size_t i : cancel) {
    times.erase(times.begin() + static_cast<std::ptrdiff_t>(i));
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<Time> ascending(int n) {
  std::vector<Time> times;
  for (int i = 0; i < n; ++i) {
    times.push_back(static_cast<Time>(i));
  }
  return times;
}

TEST(EventQueueRemoval, CancelRoot) {
  const auto times = ascending(21);
  EXPECT_EQ(pop_after_cancel(times, {0}), sorted_without(times, {0}));
}

TEST(EventQueueRemoval, CancelLastEntry) {
  const auto times = ascending(21);
  EXPECT_EQ(pop_after_cancel(times, {20}), sorted_without(times, {20}));
}

TEST(EventQueueRemoval, CancelInnerEntryThatSiftsDown) {
  // Position 1 (time 1) is removed; the last entry (time 20) takes its
  // place and must sink below its new children (times 5..8).
  const auto times = ascending(21);
  EXPECT_EQ(pop_after_cancel(times, {1}), sorted_without(times, {1}));
  // Then cancel the entries that moved, so their recorded positions are
  // exercised too.
  EXPECT_EQ(pop_after_cancel(times, {1, 20, 5}),
            sorted_without(times, {1, 20, 5}));
}

TEST(EventQueueRemoval, CancelInnerEntryThatSiftsUp) {
  // Layout by position: root 0; children 50, 1, 2, 3; then the children of
  // 50 (51..54), of 1 (100..103), of 2 (104..107) and of 3 (108..110, 40).
  // Cancelling 51 (position 5) moves the last entry, 40, under 50, so it
  // must rise past 50 to position 1. Left under 50, it would pop after 50:
  // the entries above 100 keep the heap deeper than position 5 until then.
  const std::vector<Time> times{0,   50,  1,   2,   3,   51,  52,
                                53,  54,  100, 101, 102, 103, 104,
                                105, 106, 107, 108, 109, 110, 40};
  EXPECT_EQ(pop_after_cancel(times, {5}), sorted_without(times, {5}));
  // 40 now sits at position 1 and 50 at position 5: cancel both.
  EXPECT_EQ(pop_after_cancel(times, {5, 20, 1}),
            sorted_without(times, {5, 20, 1}));
}

TEST(EventQueueRemoval, CancelThreeInEveryOrder) {
  // A 10-event heap with ties: cancel every ordered choice of 3 of the
  // first 5 events.
  std::vector<std::size_t> order{0, 1, 2, 3, 4};
  const std::vector<Time> times{2, 1, 1, 3, 0, 2, 1, 4, 0, 2};
  do {
    const std::vector<std::size_t> cancel(order.begin(), order.begin() + 3);
    EXPECT_EQ(pop_after_cancel(times, cancel), sorted_without(times, cancel));
  } while (std::next_permutation(order.begin(), order.end()));
}

// --- differential property test ---------------------------------------------
//
// A seeded random interleaving of every public operation, checked after each
// step against a reference model: the pending keys (time, scheduling index)
// in a std::set, plus the key of every pending id. Many times coincide, so
// the (time, seq) tie-break is exercised throughout.

TEST(EventQueueProperty, MatchesReferenceModel) {
  using Key = std::pair<Time, std::uint64_t>;
  constexpr int kOps = 100000;

  EventQueue q;
  Sink sink;
  Rng rng(18);

  std::set<Key> pending;                  // reference queue
  std::map<std::uint64_t, Key> key_of;    // pending index -> key
  std::vector<EventId> ids;               // by scheduling index
  std::vector<std::uint64_t> live;        // pending indices (unordered)
  std::vector<std::size_t> live_pos;      // index -> position in `live`
  std::vector<std::uint64_t> fired_ids;   // indices that fired
  std::vector<std::uint64_t> cancelled;   // indices that were cancelled
  std::vector<Key> fired_ref;             // expected pop sequence
  std::vector<Key> fired_got;             // actual pop sequence
  Time now = 0.0;

  const auto forget = [&](std::uint64_t n) {
    const std::size_t at = live_pos[n];
    live[at] = live.back();
    live_pos[live[at]] = at;
    live.pop_back();
    pending.erase(key_of.at(n));
    key_of.erase(n);
  };
  const auto pick = [&](const std::vector<std::uint64_t>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };

  for (int op = 0; op < kOps; ++op) {
    // Alternate phases in which the queue grows and shrinks, so both small
    // and deep heaps are covered.
    const bool growing = (op / 5000) % 2 == 0;
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < (growing ? 45 : 25)) {
      // schedule: mostly a handful of distinct near times (ties), sometimes
      // a far-future one, as a straggler's finish event is.
      Time at = now;
      const std::int64_t shape = rng.uniform_int(0, 9);
      if (shape < 7) {
        at += static_cast<Time>(rng.uniform_int(0, 4));
      } else if (shape < 9) {
        at += rng.uniform(0.0, 10.0);
      } else {
        at += 1e6 + static_cast<Time>(rng.uniform_int(0, 3));
      }
      const std::uint64_t n = ids.size();
      TypedEvent event;
      event.generation = n;
      ids.push_back(q.schedule(at, sink, event));
      ASSERT_TRUE(ids.back().valid());
      pending.insert(Key{at, n});
      key_of.emplace(n, Key{at, n});
      live_pos.push_back(live.size());
      live.push_back(n);
    } else if (roll < (growing ? 70 : 60)) {
      // cancel: a live, fired, cancelled or forged id.
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 5 && !live.empty()) {
        const std::uint64_t n = pick(live);
        ASSERT_TRUE(q.cancel(ids[n])) << "op " << op;
        forget(n);
        cancelled.push_back(n);
        ASSERT_FALSE(q.cancel(ids[n])) << "op " << op;  // idempotent
      } else if (kind < 6 && !fired_ids.empty()) {
        ASSERT_FALSE(q.cancel(ids[pick(fired_ids)])) << "op " << op;
      } else if (kind < 7 && !cancelled.empty()) {
        ASSERT_FALSE(q.cancel(ids[pick(cancelled)])) << "op " << op;
      } else if (kind < 8 && !live.empty()) {
        // Forged: a pending event's slot with a generation it does not have.
        EventId forged = ids[pick(live)];
        forged.generation += 1 + static_cast<std::uint64_t>(
                                     rng.uniform_int(0, 1000));
        ASSERT_FALSE(q.cancel(forged)) << "op " << op;
      } else if (kind < 9) {
        // Forged: a slot that was never allocated.
        const EventId forged{ids.size() + 1 +
                                 static_cast<std::uint64_t>(
                                     rng.uniform_int(0, 1 << 20)),
                             0};
        ASSERT_FALSE(q.cancel(forged)) << "op " << op;
      } else {
        ASSERT_FALSE(q.cancel(EventId{})) << "op " << op;
      }
    } else if (roll < 90) {
      if (pending.empty()) {
        ASSERT_THROW(q.pop(), PreconditionError);
      } else {
        const auto fired = q.pop();
        ASSERT_EQ(fired.handler, &sink);
        const std::uint64_t n = fired.event.generation;
        fired_got.emplace_back(fired.time, n);
        fired_ref.push_back(*pending.begin());
        ASSERT_EQ(fired_got.back(), fired_ref.back()) << "op " << op;
        now = fired.time;
        forget(n);
        fired_ids.push_back(n);
      }
    } else if (roll < 95) {
      if (pending.empty()) {
        ASSERT_THROW(q.next_time(), PreconditionError);
      } else {
        ASSERT_EQ(q.next_time(), pending.begin()->first) << "op " << op;
      }
    } else {
      q.reserve(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    }

    ASSERT_EQ(q.size(), pending.size()) << "op " << op;
    ASSERT_EQ(q.empty(), pending.empty()) << "op " << op;
    if (!pending.empty()) {
      ASSERT_EQ(q.next_time(), pending.begin()->first) << "op " << op;
    }
  }

  // Drain; the whole fired sequence must match.
  while (!pending.empty()) {
    const auto fired = q.pop();
    fired_got.emplace_back(fired.time, fired.event.generation);
    fired_ref.push_back(*pending.begin());
    forget(fired.event.generation);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired_got, fired_ref);
  // The run must have exercised every kind of operation at some depth.
  EXPECT_GT(fired_ref.size(), 10000u);
  EXPECT_GT(cancelled.size(), 5000u);
}

}  // namespace
}  // namespace chronos::sim
