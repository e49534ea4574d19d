#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "closure_handler.h"
#include "common/error.h"

namespace chronos::sim {
namespace {

using testing::ClosureHandler;

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator simulator;
  ClosureHandler h;
  EXPECT_EQ(simulator.now(), 0.0);
  std::vector<double> times;
  h.at(simulator, 2.0, [&] { times.push_back(simulator.now()); });
  h.at(simulator, 5.0, [&] { times.push_back(simulator.now()); });
  simulator.run();
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(simulator.now(), 5.0);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator simulator;
  ClosureHandler h;
  double fired_at = -1.0;
  h.at(simulator, 3.0, [&] {
    h.after(simulator, 2.0, [&] { fired_at = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  ClosureHandler h;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 10) {
      h.after(simulator, 1.0, chain);
    }
  };
  h.after(simulator, 1.0, chain);
  simulator.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(simulator.now(), 10.0);
  EXPECT_EQ(simulator.events_executed(), 10u);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator simulator;
  ClosureHandler h;
  std::vector<double> fired;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    h.at(simulator, t, [&, t] { fired.push_back(t); });
  }
  simulator.run_until(4.0);
  EXPECT_EQ(fired.size(), 4u);  // events at exactly the limit still fire
  EXPECT_EQ(simulator.pending(), 6u);
  simulator.run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(Simulator, CancelWorksThroughFacade) {
  Simulator simulator;
  ClosureHandler h;
  bool fired = false;
  const auto id = h.at(simulator, 1.0, [&] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator simulator;
  ClosureHandler h;
  h.at(simulator, 5.0, [] {});
  simulator.run();
  EXPECT_THROW(h.at(simulator, 4.0, [] {}), PreconditionError);
  EXPECT_THROW(h.after(simulator, -1.0, [] {}), PreconditionError);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator simulator;
  ClosureHandler h;
  double fired_at = -1.0;
  h.at(simulator, 3.0, [&] {
    h.after(simulator, 0.0, [&] { fired_at = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired_at, 3.0);
}

}  // namespace
}  // namespace chronos::sim
