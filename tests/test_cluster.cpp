#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"

namespace chronos::sim {
namespace {

ClusterConfig two_nodes() {
  NodeConfig node;
  node.containers = 2;
  return ClusterConfig::uniform(2, node);
}

/// Ticket carrying `id` in the field the tests read back from the sink.
GrantTicket ticket(int id = 0) {
  GrantTicket t;
  t.arg = id;
  return t;
}

/// Records every grant as (ticket id, node).
class GrantLog final : public Cluster::GrantSink {
 public:
  void on_grant(const GrantTicket& t, int node) override {
    ids.push_back(t.arg);
    nodes.push_back(node);
  }
  std::vector<int> ids;
  std::vector<int> nodes;
};

/// Records every (busy, waiting) occupancy notification.
class OccupancyLog final : public Cluster::OccupancyObserver {
 public:
  void on_occupancy(int busy, std::size_t waiting) override {
    seen.emplace_back(busy, waiting);
  }
  std::vector<std::pair<int, std::size_t>> seen;
};

TEST(Cluster, GrantsImmediatelyWhenIdle) {
  Cluster cluster(two_nodes());
  GrantLog log;
  cluster.set_grant_sink(&log);
  cluster.request_container(ticket());
  ASSERT_EQ(log.nodes.size(), 1u);
  EXPECT_GE(log.nodes[0], 0);
  EXPECT_EQ(cluster.busy_containers(), 1);
  EXPECT_EQ(cluster.idle_containers(), 3);
}

TEST(Cluster, BalancesAcrossNodes) {
  Cluster cluster(two_nodes());
  GrantLog log;
  cluster.set_grant_sink(&log);
  for (int i = 0; i < 4; ++i) {
    cluster.request_container(ticket());
  }
  // Most-free-first placement alternates between the two nodes.
  const std::vector<int>& nodes = log.nodes;
  EXPECT_EQ(nodes.size(), 4u);
  EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 0), 2);
  EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 1), 2);
}

TEST(Cluster, QueuesWhenFullAndGrantsFifoOnRelease) {
  Cluster cluster(two_nodes());
  GrantLog log;
  cluster.set_grant_sink(&log);
  // Tickets 1 and 2 are the ones that must queue; 0 fills the cluster.
  for (int i = 0; i < 4; ++i) {
    cluster.request_container(ticket(0));
  }
  EXPECT_FALSE(cluster.has_idle_container());
  cluster.request_container(ticket(1));
  cluster.request_container(ticket(2));
  EXPECT_EQ(cluster.pending_requests(), 2u);
  cluster.release_container(0);
  EXPECT_EQ(log.ids, (std::vector<int>{0, 0, 0, 0, 1}));
  cluster.release_container(1);
  EXPECT_EQ(log.ids, (std::vector<int>{0, 0, 0, 0, 1, 2}));
  EXPECT_EQ(cluster.pending_requests(), 0u);
}

TEST(Cluster, OccupancyObserverSeesEveryChange) {
  // One container: a grant, a queued request, a release that re-grants the
  // waiter, and a final release. The observer sees each change in order,
  // the re-grant's (1, 0) before the waiter's grant is delivered.
  NodeConfig node;
  node.containers = 1;
  Cluster cluster(ClusterConfig::uniform(1, node));
  GrantLog grants;
  OccupancyLog occupancy;
  cluster.set_grant_sink(&grants);
  cluster.set_occupancy_observer(&occupancy);
  using Seen = std::vector<std::pair<int, std::size_t>>;
  cluster.request_container(ticket(0));
  EXPECT_EQ(occupancy.seen, (Seen{{1, 0}}));
  cluster.request_container(ticket(1));
  EXPECT_EQ(occupancy.seen, (Seen{{1, 0}, {1, 1}}));
  EXPECT_EQ(grants.ids, (std::vector<int>{0}));
  cluster.release_container(0);
  EXPECT_EQ(occupancy.seen, (Seen{{1, 0}, {1, 1}, {0, 1}, {1, 0}}));
  EXPECT_EQ(grants.ids, (std::vector<int>{0, 1}));
  cluster.release_container(0);
  EXPECT_EQ(occupancy.seen, (Seen{{1, 0}, {1, 1}, {0, 1}, {1, 0}, {0, 0}}));
  // Removed, the observer hears nothing more.
  cluster.set_occupancy_observer(nullptr);
  cluster.request_container(ticket(2));
  EXPECT_EQ(occupancy.seen.size(), 5u);
  EXPECT_EQ(grants.ids, (std::vector<int>{0, 1, 2}));
}

TEST(Cluster, RequestWithoutGrantSinkThrows) {
  Cluster cluster(two_nodes());
  EXPECT_THROW(cluster.request_container(ticket()), PreconditionError);
  EXPECT_EQ(cluster.busy_containers(), 0);
  EXPECT_EQ(cluster.pending_requests(), 0u);
}

TEST(Cluster, ReleaseWithoutBusyThrows) {
  Cluster cluster(two_nodes());
  EXPECT_THROW(cluster.release_container(0), PreconditionError);
  EXPECT_THROW(cluster.release_container(7), PreconditionError);
}

TEST(Cluster, CountsStayConsistent) {
  Cluster cluster(two_nodes());
  EXPECT_EQ(cluster.total_containers(), 4);
  GrantLog log;
  cluster.set_grant_sink(&log);
  for (int i = 0; i < 3; ++i) {
    cluster.request_container(ticket());
  }
  EXPECT_EQ(cluster.busy_containers(), 3);
  cluster.release_container(log.nodes[0]);
  EXPECT_EQ(cluster.busy_containers(), 2);
  EXPECT_EQ(cluster.idle_containers(), 2);
}

TEST(Cluster, SlowdownIsInverseSpeedWithoutNoise) {
  NodeConfig fast;
  fast.speed = 2.0;
  Cluster cluster(ClusterConfig::uniform(1, fast));
  Rng rng(1);
  EXPECT_NEAR(cluster.sample_slowdown(0, rng), 0.5, 1e-12);
  EXPECT_NEAR(cluster.node_speed(0), 2.0, 1e-12);
}

TEST(Cluster, NoiseInflatesSlowdown) {
  NodeConfig noisy;
  noisy.noise_mean = 0.5;
  noisy.noise_sigma = 0.3;
  Cluster cluster(ClusterConfig::uniform(1, noisy));
  Rng rng(2);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double s = cluster.sample_slowdown(0, rng);
    EXPECT_GT(s, 1.0);  // contention only ever slows down
    sum += s;
  }
  // Mean slowdown = 1 + noise_mean.
  EXPECT_NEAR(sum / n, 1.5, 0.01);
}

TEST(Cluster, RejectsInvalidConfigs) {
  EXPECT_THROW(Cluster(ClusterConfig{}), PreconditionError);
  NodeConfig bad;
  bad.speed = 0.0;
  EXPECT_THROW(Cluster(ClusterConfig::uniform(1, bad)), PreconditionError);
  bad = NodeConfig{};
  bad.containers = 0;
  EXPECT_THROW(Cluster(ClusterConfig::uniform(1, bad)), PreconditionError);
  EXPECT_THROW(ClusterConfig::uniform(0, NodeConfig{}), PreconditionError);
}

TEST(Cluster, NodeIndexValidation) {
  Cluster cluster(two_nodes());
  Rng rng(1);
  EXPECT_THROW(cluster.node_speed(-1), PreconditionError);
  EXPECT_THROW(cluster.sample_slowdown(2, rng), PreconditionError);
}

}  // namespace
}  // namespace chronos::sim
