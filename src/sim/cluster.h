// Cluster model: a set of nodes, each with a fixed number of containers
// (YARN-style execution slots), a relative speed factor, and a stochastic
// background-noise process that inflates attempt durations (emulating the
// Stress-generated contention of §VII-A).
//
// Container requests that cannot be satisfied immediately queue FIFO and are
// granted as containers free up. A request is a POD ticket; every grant hands
// the ticket back, with the granting node, to the cluster's one grant sink.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace chronos::sim {

struct NodeConfig {
  double speed = 1.0;        ///< relative processing speed (> 0)
  int containers = 8;        ///< execution slots (>= 1)
  double noise_mean = 0.0;   ///< mean extra slowdown from contention (>= 0)
  double noise_sigma = 0.0;  ///< lognormal sigma of the contention factor
};

struct ClusterConfig {
  std::vector<NodeConfig> nodes;

  /// Homogeneous cluster shortcut.
  static ClusterConfig uniform(int num_nodes, const NodeConfig& node);
};

/// One container request. Opaque to the cluster: the requester's fields
/// (the scheduler stores its job slot, the slot's generation and the
/// attempt id) come back verbatim in the grant.
using GrantTicket = TypedEvent;

class Cluster {
 public:
  /// Receives every grant: the request's ticket and the granting node.
  class GrantSink {
   public:
    virtual void on_grant(const GrantTicket& ticket, int node) = 0;

   protected:
    ~GrantSink() = default;
  };

  /// Notified after every change to the busy-container count or the
  /// waiting-request queue (open-system utilization/queue-length tracking).
  /// Purely observational: it must not call back into the cluster's mutating
  /// API and never touches the numeric path.
  class OccupancyObserver {
   public:
    virtual void on_occupancy(int busy, std::size_t waiting) = 0;

   protected:
    ~OccupancyObserver() = default;
  };

  explicit Cluster(ClusterConfig config);

  /// Installs (or, with nullptr, removes) the occupancy observer; it must
  /// outlive its installation.
  void set_occupancy_observer(OccupancyObserver* observer) {
    observer_ = observer;
  }

  /// Installs (or, with nullptr, removes) the grant sink; requests need
  /// one, and it must outlive its installation.
  void set_grant_sink(GrantSink* sink) { sink_ = sink; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int total_containers() const { return total_containers_; }
  int busy_containers() const { return busy_; }
  int idle_containers() const { return total_containers_ - busy_; }
  bool has_idle_container() const { return idle_containers() > 0; }
  std::size_t pending_requests() const { return waiting_.size(); }

  /// Requests one container. If one is free the grant is delivered
  /// synchronously; otherwise the ticket queues FIFO.
  void request_container(const GrantTicket& ticket);

  /// Releases a container on `node`; the oldest waiting request (if any) is
  /// granted synchronously. Requires a container on `node` to be busy.
  void release_container(int node);

  /// Speed factor of `node` (>0).
  double node_speed(int node) const;

  /// Samples a multiplicative slowdown (>= 1) for an attempt placed on
  /// `node`, combining the node's deterministic speed with its stochastic
  /// contention factor.
  double sample_slowdown(int node, Rng& rng) const;

 private:
  struct NodeState {
    NodeConfig config;
    int busy = 0;
  };

  /// Node with the most free containers (ties -> lowest index), or -1.
  int pick_node() const;

  void notify_occupancy() const {
    if (observer_ != nullptr) {
      observer_->on_occupancy(busy_, waiting_.size());
    }
  }

  std::vector<NodeState> nodes_;
  std::deque<GrantTicket> waiting_;
  GrantSink* sink_ = nullptr;
  OccupancyObserver* observer_ = nullptr;
  int total_containers_ = 0;
  int busy_ = 0;
};

}  // namespace chronos::sim
