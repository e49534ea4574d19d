// Sweep-fabric controller: leases cells to workers, collects results, and
// reassigns the work of workers that die, wedge, or lose frames.
//
// The protocol-level logic lives in ControllerCore, a pure state machine:
// events go in (connect, line, disconnect, tick — each stamped with a
// caller-supplied clock), frame sends and closes come out. Nothing inside
// touches sockets or real time, so every failure scenario is unit-testable
// with a fake clock. run_controller wraps the core in a poll()-driven
// socket loop.
//
// Fault-tolerance invariants:
//  - A lease is a loan, not a transfer: cells stay owned by the controller
//    until a result for them arrives, from anyone.
//  - Liveness is heartbeat-based. A worker silent past the lease timeout is
//    expired; its unfinished cells return to the pending queue.
//  - A worker that requests work while its own lease still has unfinished
//    cells has provably lost those results (it would not ask otherwise —
//    e.g. a dropped result frame); they return to pending immediately, no
//    timeout needed.
//  - Long-poll tail: a request that finds no pending cell is parked, not
//    refused. It is answered in the same Actions batch as the event that
//    makes an answer possible — `done` to every parked worker when a result
//    completes the sweep, a lease when cells return to pending (revoke,
//    bye, disconnect, heartbeat or progress deadline). A request parked for
//    heartbeat_ms with nothing to give gets `wait`, and the worker asks
//    again at once; the hold stays below the worker's reply timeout
//    (max(4 * heartbeat_ms, 500) ms), so a parked worker never mistakes it
//    for a lost reply.
//  - Results are idempotent: per-cell seed streams make re-execution
//    bit-identical, so a duplicate delivery must match the stored entry
//    byte for byte (counted, dropped). A byte-different duplicate can only
//    mean corruption or a foreign workload and fails the sweep loudly.
//  - Conservation: when the run completes, every cell in `todo` was
//    recorded exactly once (stats().results == todo.size()); duplicates are
//    tallied separately and never double-count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exp/checkpoint.h"
#include "fabric/protocol.h"

namespace chronos::fabric {

struct ControllerConfig {
  std::string fingerprint;    ///< spec fingerprint workers must present
  std::size_t num_cells = 0;  ///< grid size (for validating result indices)
  std::vector<std::size_t> todo;  ///< cells to compute, ascending
  std::uint64_t max_lease_cells = 4;   ///< cap per lease grant
  std::uint64_t heartbeat_ms = 500;    ///< interval advertised in welcome
  std::uint64_t lease_timeout_ms = 5000;  ///< silence => worker expired
  /// When > 0: a worker that heartbeats but delivers no result for this
  /// long has its lease revoked (it is wedged, not dead). 0 disables.
  std::uint64_t progress_timeout_ms = 0;
  /// Fail the sweep when no live worker has been around for this long.
  std::uint64_t worker_timeout_ms = 30000;
};

/// Connection handle as seen by the core; the driver picks the values.
using ConnId = std::uint64_t;

/// What the core wants done after an event: frames to send, connections to
/// close. A closed connection is finished — the driver must drop it without
/// reporting a disconnect back (the core already cleaned up its state).
struct Actions {
  std::vector<std::pair<ConnId, std::string>> send;
  std::vector<ConnId> close;
};

struct ControllerStats {
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_expired = 0;   ///< heartbeat/progress deadline hits
  std::uint64_t cells_reassigned = 0; ///< cells returned to pending
  std::uint64_t results = 0;          ///< first-time cell completions
  std::uint64_t duplicates = 0;       ///< identical re-deliveries dropped
  std::uint64_t heartbeats = 0;
  std::uint64_t workers_joined = 0;
  std::uint64_t workers_lost = 0;     ///< disconnects/expiries before done
  std::uint64_t protocol_errors = 0;
};

class ControllerCore {
 public:
  explicit ControllerCore(ControllerConfig config);

  /// Starts the clock (worker-timeout accounting).
  void start(std::uint64_t now_ms);

  Actions on_connect(ConnId conn, std::uint64_t now_ms);
  Actions on_line(ConnId conn, const std::string& line,
                  std::uint64_t now_ms);
  Actions on_disconnect(ConnId conn, std::uint64_t now_ms);

  /// Periodic maintenance: expires silent workers, revokes stalled leases,
  /// answers requests parked for heartbeat_ms with `wait`, trips the
  /// no-worker timeout. Call every few tens of ms.
  Actions on_tick(std::uint64_t now_ms);

  /// Every todo cell has a recorded result.
  bool done() const { return finished_.size() == config_.todo.size(); }

  /// The sweep cannot succeed (conflicting results, worker drought).
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Live (welcomed) workers.
  std::size_t live_workers() const { return workers_.size(); }

  const std::map<std::size_t, exp::CellAggregate>& finished() const {
    return finished_;
  }
  const ControllerStats& stats() const { return stats_; }

  /// Invoked exactly once per todo cell, on its first accepted result —
  /// the journal hookup. The entry's bytes equal the worker's wire entry.
  std::function<void(const exp::JournalEntry&)> on_cell_finished;

 private:
  struct WorkerState {
    ConnId conn = 0;
    std::string name;
    std::uint64_t last_seen_ms = 0;
    std::uint64_t last_progress_ms = 0;
    std::uint64_t lease_id = 0;               ///< 0 = no outstanding lease
    std::vector<std::size_t> outstanding;     ///< leased, not yet finished
    std::uint64_t parked_want = 0;  ///< cells a parked request wants; 0 = none
    std::uint64_t parked_ms = 0;    ///< when the parked request arrived
  };

  Actions fail(const std::string& message);
  void reassign(WorkerState& worker, const char* why);
  void drop_worker(std::uint64_t worker_id, const char* why);
  Actions handle_hello(ConnId conn, const Frame& frame, std::uint64_t now);
  Actions handle_request(WorkerState& worker, const Frame& frame,
                         std::uint64_t now);
  Actions dispatch(ConnId conn, const std::string& line, std::uint64_t now);
  void grant(WorkerState& worker, Actions& actions);
  void serve_parked(Actions& actions);
  Actions handle_result(WorkerState& worker, const Frame& frame,
                        std::uint64_t now);
  Actions protocol_error(ConnId conn, std::uint64_t now);

  ControllerConfig config_;
  std::uint64_t last_alive_ms_ = 0;  ///< last instant with >= 1 live worker
  std::vector<std::size_t> pending_;  ///< unleased todo cells, FIFO
  std::map<std::size_t, std::string> finished_lines_;  ///< entry bytes
  std::map<std::size_t, exp::CellAggregate> finished_;
  std::map<ConnId, std::uint64_t> conns_;     ///< conn -> worker id (0 = new)
  std::map<std::uint64_t, WorkerState> workers_;
  std::uint64_t next_worker_ = 1;
  std::uint64_t next_lease_ = 1;
  bool failed_ = false;
  std::string error_;
  ControllerStats stats_;
};

/// Result of a completed controller run.
struct ControllerRunResult {
  std::map<std::size_t, exp::CellAggregate> cells;  ///< the todo cells
  ControllerStats stats;
};

/// Runs a controller to completion on `address` (fabric/transport.h endpoint
/// syntax). `on_cell` (optional) receives each first-time result — wire it
/// to a JournalWriter for crash-proof restarts. `cancel` (optional) drains
/// the run: connections close and exp::SweepCancelled is thrown, with every
/// journaled cell intact. Throws on controller failure (conflicting
/// results, no workers within the timeout).
ControllerRunResult run_controller(
    const std::string& address, const ControllerConfig& config,
    const std::function<void(const exp::JournalEntry&)>& on_cell,
    const std::atomic<bool>* cancel);

}  // namespace chronos::fabric
