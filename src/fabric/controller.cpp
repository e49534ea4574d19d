#include "fabric/controller.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <set>

#include "common/error.h"
#include "exp/sweep.h"
#include "fabric/transport.h"
#include "obs/metrics.h"

namespace chronos::fabric {

namespace {

const obs::Counter c_leases_granted = obs::counter("fabric.leases_granted");
const obs::Counter c_leases_expired = obs::counter("fabric.leases_expired");
const obs::Counter c_cells_reassigned =
    obs::counter("fabric.cells_reassigned");
const obs::Counter c_results = obs::counter("fabric.results");
const obs::Counter c_duplicates = obs::counter("fabric.duplicates");
const obs::Counter c_heartbeats = obs::counter("fabric.heartbeats");
const obs::Counter c_workers_joined = obs::counter("fabric.workers_joined");
const obs::Counter c_workers_lost = obs::counter("fabric.workers_lost");
const obs::Counter c_protocol_errors =
    obs::counter("fabric.protocol_errors");
const obs::Gauge g_workers = obs::gauge("fabric.workers");

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ControllerCore::ControllerCore(ControllerConfig config)
    : config_(std::move(config)) {
  CHRONOS_EXPECTS(!config_.fingerprint.empty(),
                  "controller needs a spec fingerprint");
  CHRONOS_EXPECTS(config_.max_lease_cells >= 1,
                  "max_lease_cells must be >= 1");
  CHRONOS_EXPECTS(config_.heartbeat_ms >= 1, "heartbeat_ms must be >= 1");
  CHRONOS_EXPECTS(config_.lease_timeout_ms > config_.heartbeat_ms,
                  "lease_timeout_ms must exceed heartbeat_ms");
  std::size_t previous = 0;
  bool first = true;
  for (const std::size_t cell : config_.todo) {
    CHRONOS_EXPECTS(cell < config_.num_cells,
                    "todo cell " + std::to_string(cell) +
                        " out of range for a " +
                        std::to_string(config_.num_cells) + "-cell sweep");
    CHRONOS_EXPECTS(first || cell > previous,
                    "todo cells must be strictly ascending");
    first = false;
    previous = cell;
    pending_.push_back(cell);
  }
}

void ControllerCore::start(std::uint64_t now_ms) { last_alive_ms_ = now_ms; }

Actions ControllerCore::on_connect(ConnId conn, std::uint64_t) {
  conns_[conn] = 0;  // unwelcomed until a valid hello arrives
  return {};
}

Actions ControllerCore::fail(const std::string& message) {
  failed_ = true;
  error_ = message;
  Actions actions;
  for (const auto& [conn, worker] : conns_) {
    actions.close.push_back(conn);
  }
  conns_.clear();
  workers_.clear();
  return actions;
}

void ControllerCore::reassign(WorkerState& worker, const char* why) {
  if (worker.outstanding.empty()) {
    worker.lease_id = 0;
    return;
  }
  // Returned cells go to the FRONT of the queue, in ascending order, so the
  // sweep finishes the oldest work first and the reassignment order is a
  // pure function of the event sequence.
  std::vector<std::size_t> cells = worker.outstanding;
  std::sort(cells.begin(), cells.end());
  pending_.insert(pending_.begin(), cells.begin(), cells.end());
  stats_.cells_reassigned += cells.size();
  c_cells_reassigned.add(cells.size());
  (void)why;
  worker.outstanding.clear();
  worker.lease_id = 0;
}

void ControllerCore::drop_worker(std::uint64_t worker_id, const char* why) {
  auto it = workers_.find(worker_id);
  if (it == workers_.end()) {
    return;
  }
  reassign(it->second, why);
  conns_.erase(it->second.conn);
  workers_.erase(it);
}

Actions ControllerCore::protocol_error(ConnId conn, std::uint64_t now) {
  stats_.protocol_errors += 1;
  c_protocol_errors.add();
  Actions actions = on_disconnect(conn, now);
  actions.close.push_back(conn);
  return actions;
}

Actions ControllerCore::handle_hello(ConnId conn, const Frame& frame,
                                     std::uint64_t now) {
  Actions actions;
  std::string reject_reason;
  if (frame.value != kProtocolVersion) {
    reject_reason = "version-mismatch";
  } else if (frame.fingerprint != config_.fingerprint) {
    reject_reason = "fingerprint-mismatch";
  }
  if (!reject_reason.empty()) {
    Frame reject;
    reject.type = FrameType::kReject;
    reject.reason = reject_reason;
    actions.send.emplace_back(conn, encode_frame(reject));
    conns_.erase(conn);
    actions.close.push_back(conn);
    return actions;
  }
  std::uint64_t worker_id = conns_[conn];
  if (worker_id == 0) {
    worker_id = next_worker_++;
    conns_[conn] = worker_id;
    WorkerState worker;
    worker.conn = conn;
    worker.name = frame.name;
    worker.last_seen_ms = now;
    worker.last_progress_ms = now;
    workers_.emplace(worker_id, std::move(worker));
    stats_.workers_joined += 1;
    c_workers_joined.add();
    g_workers.update(workers_.size());
  }
  // A duplicated hello (dup-frame fault, worker retry) re-sends the same
  // welcome: the handshake is idempotent.
  Frame welcome;
  welcome.type = FrameType::kWelcome;
  welcome.worker = worker_id;
  welcome.value = config_.heartbeat_ms;
  actions.send.emplace_back(conn, encode_frame(welcome));
  return actions;
}

void ControllerCore::grant(WorkerState& worker, Actions& actions) {
  const std::size_t count = std::min<std::size_t>(
      static_cast<std::size_t>(worker.parked_want), pending_.size());
  std::vector<std::size_t> cells(pending_.begin(),
                                 pending_.begin() + count);
  pending_.erase(pending_.begin(), pending_.begin() + count);
  std::sort(cells.begin(), cells.end());
  worker.parked_want = 0;
  worker.lease_id = next_lease_++;
  worker.outstanding = cells;
  stats_.leases_granted += 1;
  c_leases_granted.add();
  Frame lease;
  lease.type = FrameType::kLease;
  lease.lease = worker.lease_id;
  lease.cells.assign(cells.begin(), cells.end());
  actions.send.emplace_back(worker.conn, encode_frame(lease));
}

void ControllerCore::serve_parked(Actions& actions) {
  if (pending_.empty() && !done()) {
    return;  // nothing to give anyone yet
  }
  for (auto& [id, worker] : workers_) {
    if (worker.parked_want == 0) {
      continue;
    }
    if (done()) {
      Frame reply;
      reply.type = FrameType::kDone;
      actions.send.emplace_back(worker.conn, encode_frame(reply));
      worker.parked_want = 0;
    } else if (!pending_.empty()) {
      grant(worker, actions);
    }
  }
}

Actions ControllerCore::handle_request(WorkerState& worker,
                                       const Frame& frame,
                                       std::uint64_t now) {
  Actions actions;
  // Revoke-on-request: a worker asking for work while its own lease still
  // has unfinished cells has provably lost those results (a dropped frame,
  // a restart) — it would not ask otherwise. Return them to pending
  // deterministically instead of waiting for any timeout; workers parked
  // before this one take them first.
  if (!worker.outstanding.empty()) {
    reassign(worker, "request-with-outstanding-lease");
    serve_parked(actions);
  }
  // Park the request, then answer it if anything can be given now. A
  // duplicated request while parked keeps the first one's clock and still
  // gets exactly one reply.
  if (worker.parked_want == 0) {
    worker.parked_ms = now;
  }
  worker.parked_want =
      std::clamp<std::uint64_t>(frame.value, 1, config_.max_lease_cells);
  serve_parked(actions);
  return actions;
}

Actions ControllerCore::handle_result(WorkerState& worker,
                                      const Frame& frame,
                                      std::uint64_t now) {
  const std::optional<exp::JournalEntry> entry =
      exp::decode_journal_entry(frame.entry);
  if (!entry.has_value() || entry->cell >= config_.num_cells ||
      !std::binary_search(config_.todo.begin(), config_.todo.end(),
                          entry->cell)) {
    return protocol_error(worker.conn, now);
  }
  const std::size_t cell = entry->cell;
  worker.last_progress_ms = now;
  const auto seen = finished_lines_.find(cell);
  if (seen != finished_lines_.end()) {
    // Already finished: a late or duplicated delivery. Per-cell seed
    // streams make honest re-execution bit-identical, so the bytes must
    // match; anything else is corruption and poisons the whole sweep.
    if (seen->second == frame.entry) {
      stats_.duplicates += 1;
      c_duplicates.add();
      return {};
    }
    return fail("conflicting result for cell " + std::to_string(cell) +
                ": two workers produced different bytes");
  }
  finished_lines_.emplace(cell, frame.entry);
  finished_.emplace(cell, entry->aggregate);
  stats_.results += 1;
  c_results.add();
  if (on_cell_finished) {
    on_cell_finished(*entry);
  }
  // The cell may simultaneously sit in pending_ (revoked/expired lease) or
  // in another worker's outstanding set (reassigned, both still running);
  // a completed cell leaves every queue.
  pending_.erase(std::remove(pending_.begin(), pending_.end(), cell),
                 pending_.end());
  for (auto& [id, other] : workers_) {
    auto& cells = other.outstanding;
    cells.erase(std::remove(cells.begin(), cells.end(), cell), cells.end());
    if (cells.empty()) {
      other.lease_id = 0;
    }
  }
  return {};
}

Actions ControllerCore::on_line(ConnId conn, const std::string& line,
                                std::uint64_t now_ms) {
  Actions actions = dispatch(conn, line, now_ms);
  // A result that completes the sweep, or a bye or protocol error that
  // returns cells, answers parked requests in this same batch.
  serve_parked(actions);
  return actions;
}

Actions ControllerCore::dispatch(ConnId conn, const std::string& line,
                                 std::uint64_t now_ms) {
  const auto conn_it = conns_.find(conn);
  if (conn_it == conns_.end()) {
    return {};  // already closed by an earlier action
  }
  const std::optional<Frame> frame = decode_frame(line);
  if (!frame.has_value()) {
    return protocol_error(conn, now_ms);
  }
  if (frame->type == FrameType::kHello) {
    return handle_hello(conn, *frame, now_ms);
  }
  // Everything else requires a completed handshake, and the worker id in
  // the frame must be the one this connection was welcomed with.
  const std::uint64_t worker_id = conn_it->second;
  auto worker_it = workers_.find(worker_id);
  if (worker_id == 0 || worker_it == workers_.end() ||
      frame->worker != worker_id) {
    return protocol_error(conn, now_ms);
  }
  WorkerState& worker = worker_it->second;
  worker.last_seen_ms = now_ms;
  switch (frame->type) {
    case FrameType::kRequest:
      return handle_request(worker, *frame, now_ms);
    case FrameType::kResult:
      return handle_result(worker, *frame, now_ms);
    case FrameType::kHeartbeat:
      stats_.heartbeats += 1;
      c_heartbeats.add();
      return {};
    case FrameType::kBye: {
      Actions actions;
      drop_worker(worker_id, "bye");
      actions.close.push_back(conn);
      return actions;
    }
    default:
      // welcome/lease/wait/done/reject are controller->worker only.
      return protocol_error(conn, now_ms);
  }
}

Actions ControllerCore::on_disconnect(ConnId conn, std::uint64_t) {
  const auto conn_it = conns_.find(conn);
  if (conn_it == conns_.end()) {
    return {};
  }
  const std::uint64_t worker_id = conn_it->second;
  if (worker_id != 0 && workers_.count(worker_id) > 0) {
    if (!done()) {
      stats_.workers_lost += 1;
      c_workers_lost.add();
    }
    drop_worker(worker_id, "disconnect");
  }
  conns_.erase(conn);
  Actions actions;
  serve_parked(actions);
  return actions;
}

Actions ControllerCore::on_tick(std::uint64_t now_ms) {
  if (failed_) {
    return {};
  }
  Actions actions;
  // Heartbeat deadline: a worker silent for the whole lease timeout is
  // dead or unreachable; cut it loose and put its cells back to work.
  std::vector<std::uint64_t> expired;
  for (auto& [id, worker] : workers_) {
    if (now_ms - worker.last_seen_ms > config_.lease_timeout_ms) {
      expired.push_back(id);
    }
  }
  for (const std::uint64_t id : expired) {
    WorkerState& worker = workers_.at(id);
    if (worker.lease_id != 0) {
      stats_.leases_expired += 1;
      c_leases_expired.add();
    }
    actions.close.push_back(worker.conn);
    if (!done()) {
      stats_.workers_lost += 1;
      c_workers_lost.add();
    }
    drop_worker(id, "heartbeat-deadline");
  }
  // Progress deadline: a worker that heartbeats but never delivers is
  // wedged. Revoke the lease (another worker can run the cells); keep the
  // connection — its late results still dedup cleanly if it ever recovers.
  if (config_.progress_timeout_ms > 0) {
    for (auto& [id, worker] : workers_) {
      if (!worker.outstanding.empty() &&
          now_ms - worker.last_progress_ms > config_.progress_timeout_ms) {
        stats_.leases_expired += 1;
        c_leases_expired.add();
        reassign(worker, "progress-deadline");
      }
    }
  }
  serve_parked(actions);
  // Bound the hold: a request parked for a heartbeat interval with nothing
  // to give is answered `wait`, and the worker asks again at once.
  for (auto& [id, worker] : workers_) {
    if (worker.parked_want != 0 &&
        now_ms - worker.parked_ms >= config_.heartbeat_ms) {
      Frame wait;
      wait.type = FrameType::kWait;
      wait.value = now_ms - worker.parked_ms;
      actions.send.emplace_back(worker.conn, encode_frame(wait));
      worker.parked_want = 0;
    }
  }
  if (!workers_.empty()) {
    last_alive_ms_ = now_ms;
  } else if (!done() &&
             now_ms - last_alive_ms_ > config_.worker_timeout_ms) {
    return fail("no live worker for " +
                std::to_string(config_.worker_timeout_ms) +
                " ms (none ever connected, or all were lost)");
  }
  return actions;
}

ControllerRunResult run_controller(
    const std::string& address, const ControllerConfig& config,
    const std::function<void(const exp::JournalEntry&)>& on_cell,
    const std::atomic<bool>* cancel) {
  Listener listener(parse_endpoint(address));
  ControllerCore core(config);
  core.on_cell_finished = on_cell;
  core.start(steady_now_ms());

  std::map<ConnId, std::unique_ptr<Stream>> streams;
  ConnId next_conn = 1;

  const auto apply = [&](Actions actions) {
    for (std::size_t i = 0; i < actions.send.size(); ++i) {
      const ConnId conn = actions.send[i].first;
      const auto it = streams.find(conn);
      if (it == streams.end()) {
        continue;
      }
      if (!it->second->send_line(actions.send[i].second)) {
        // Peer vanished mid-send. on_disconnect reassigns its cells, and
        // the leases it hands parked workers join this batch.
        streams.erase(it);
        Actions more = core.on_disconnect(conn, steady_now_ms());
        for (auto& frame : more.send) {
          actions.send.push_back(std::move(frame));
        }
      }
    }
    for (const ConnId conn : actions.close) {
      streams.erase(conn);
    }
  };

  // After the last result, a worker whose request went missing asks again
  // one reply timeout later and gets `done`; wait for two of those.
  const std::uint64_t drain_grace_ms = std::max<std::uint64_t>(
      1000, 2 * reply_timeout_ms(config.heartbeat_ms));
  std::uint64_t done_since_ms = 0;
  while (true) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      // Graceful drain: drop every connection (workers see a close and
      // exit) and surface the cancel. Journaled cells all survive — the
      // caller syncs the journal and a rerun resumes right here.
      streams.clear();
      throw exp::SweepCancelled();
    }

    std::vector<pollfd> pfds;
    std::vector<ConnId> pfd_conn;
    pfds.push_back({listener.fd(), POLLIN, 0});
    pfd_conn.push_back(0);
    bool buffered = false;
    for (const auto& [conn, stream] : streams) {
      pfds.push_back({stream->fd(), POLLIN, 0});
      pfd_conn.push_back(conn);
      buffered = buffered || stream->has_buffered_line();
    }
    ::poll(pfds.data(), pfds.size(), buffered ? 0 : 20);

    while (auto stream = listener.accept(0)) {
      const ConnId conn = next_conn++;
      streams.emplace(conn, std::move(stream));
      apply(core.on_connect(conn, steady_now_ms()));
    }

    // Readable (or line-buffered) connections: drain every complete line.
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      const ConnId conn = pfd_conn[i];
      auto it = streams.find(conn);
      if (it == streams.end()) {
        continue;  // closed by an earlier action this iteration
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0 &&
          !it->second->has_buffered_line()) {
        continue;
      }
      while (true) {
        it = streams.find(conn);
        if (it == streams.end()) {
          break;
        }
        std::string line;
        const Stream::Recv status = it->second->recv_line(line, 0);
        if (status == Stream::Recv::kLine) {
          apply(core.on_line(conn, line, steady_now_ms()));
          continue;
        }
        if (status == Stream::Recv::kClosed) {
          streams.erase(conn);
          apply(core.on_disconnect(conn, steady_now_ms()));
        }
        break;
      }
    }

    apply(core.on_tick(steady_now_ms()));
    if (core.failed()) {
      streams.clear();
      CHRONOS_EXPECTS(false, "fabric controller failed: " + core.error());
    }
    if (core.done()) {
      if (done_since_ms == 0) {
        done_since_ms = steady_now_ms();
      }
      // Let connected workers pick up their `done` and say bye; force the
      // issue after a short grace so one hung worker cannot stall exit.
      if (streams.empty() ||
          steady_now_ms() - done_since_ms > drain_grace_ms) {
        break;
      }
    }
  }

  ControllerRunResult result;
  result.cells = core.finished();
  result.stats = core.stats();
  // Conservation: every todo cell completed, counted exactly once.
  CHRONOS_ENSURES(result.cells.size() == config.todo.size() &&
                      result.stats.results == config.todo.size(),
                  "fabric conservation violated: " +
                      std::to_string(result.stats.results) + " results for " +
                      std::to_string(config.todo.size()) + " cells");
  return result;
}

}  // namespace chronos::fabric
