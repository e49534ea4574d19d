#include "fabric/worker.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.h"
#include "exp/checkpoint.h"
#include "fabric/protocol.h"
#include "fabric/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chronos::fabric {

namespace {

const obs::Counter c_worker_cells = obs::counter("fabric.worker.cells");
const obs::Counter c_worker_leases = obs::counter("fabric.worker.leases");

}  // namespace

int worker_exit_code(WorkerOutcome outcome) {
  switch (outcome) {
    case WorkerOutcome::kDone:
      return 0;
    case WorkerOutcome::kLost:
      return 1;
    case WorkerOutcome::kRejected:
      return 2;
    case WorkerOutcome::kFaultStop:
      return 3;
    case WorkerOutcome::kCancelled:
      return 130;
  }
  return 1;
}

WorkerOutcome run_worker(const exp::SweepSpec& spec,
                         const exp::SweepHooks& hooks,
                         const WorkerOptions& options) {
  spec.validate();
  CHRONOS_EXPECTS(!options.fingerprint.empty(),
                  "worker needs a spec fingerprint");
  CHRONOS_EXPECTS(options.want >= 1, "worker must want at least one cell");
  const Endpoint endpoint = parse_endpoint(options.address);
  // Connect and handshake; returns on the way end the span too.
  std::optional<obs::TraceSpan> connect_span;
  connect_span.emplace("fabric.connect", "fabric");
  const std::unique_ptr<Stream> stream =
      connect_with_retry(endpoint, options.connect_attempts,
                         options.connect_backoff_ms, options.cancel);
  if (stream == nullptr) {
    return options.cancel != nullptr &&
                   options.cancel->load(std::memory_order_relaxed)
               ? WorkerOutcome::kCancelled
               : WorkerOutcome::kLost;
  }
  FaultStream out(*stream, options.fault);
  std::mutex send_mu;

  // --- handshake: hello -> welcome (resent on a lost reply) ---------------
  std::uint64_t worker_id = 0;
  std::uint64_t heartbeat_ms = 0;
  {
    Frame hello;
    hello.type = FrameType::kHello;
    hello.value = kProtocolVersion;
    hello.fingerprint = options.fingerprint;
    hello.name = options.name;
    const std::string hello_line = encode_frame(hello);
    bool welcomed = false;
    for (int attempt = 0; attempt < 5 && !welcomed; ++attempt) {
      switch (out.send_frame(hello_line)) {
        case FaultStream::Send::kTorn:
          stream->close();
          return WorkerOutcome::kFaultStop;
        case FaultStream::Send::kError:
          return WorkerOutcome::kLost;
        case FaultStream::Send::kDropped:
        case FaultStream::Send::kSent:
          break;
      }
      std::string line;
      const Stream::Recv status = stream->recv_line(line, 2000);
      if (status == Stream::Recv::kTimeout) {
        continue;  // reply (or our hello) went missing; try again
      }
      if (status == Stream::Recv::kClosed) {
        return WorkerOutcome::kLost;
      }
      const std::optional<Frame> reply = decode_frame(line);
      if (!reply.has_value()) {
        return WorkerOutcome::kLost;
      }
      if (reply->type == FrameType::kReject) {
        return WorkerOutcome::kRejected;
      }
      if (reply->type != FrameType::kWelcome) {
        return WorkerOutcome::kLost;
      }
      worker_id = reply->worker;
      heartbeat_ms = std::max<std::uint64_t>(reply->value, 1);
      welcomed = true;
    }
    if (!welcomed) {
      return WorkerOutcome::kLost;
    }
  }
  connect_span.reset();

  // --- heartbeat thread ---------------------------------------------------
  // Sends at half the controller's advertised interval so one lost or
  // delayed beat never trips the deadline. The hang fault silences it too:
  // a wedged process stops doing everything. It waits on a condition
  // variable, so finish() wakes it at once instead of after a sleep.
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop_heartbeats = false;  // guarded by stop_mu
  std::atomic<bool> hang{false};
  std::atomic<std::uint64_t> cells_completed{0};
  std::thread heartbeat_thread([&] {
    const std::chrono::milliseconds interval(
        std::max<std::uint64_t>(heartbeat_ms / 2, 5));
    std::unique_lock<std::mutex> lock(stop_mu);
    while (!stop_cv.wait_for(lock, interval, [&] { return stop_heartbeats; })) {
      if (hang.load(std::memory_order_relaxed)) {
        continue;
      }
      lock.unlock();
      Frame beat;
      beat.type = FrameType::kHeartbeat;
      beat.worker = worker_id;
      beat.value = cells_completed.load(std::memory_order_relaxed);
      const std::string line = encode_frame(beat);
      {
        std::lock_guard<std::mutex> send_lock(send_mu);
        out.send_heartbeat(line);
      }
      lock.lock();
    }
  });
  // A planned crash closes the socket the heartbeat thread sends on, so it
  // takes send_mu too.
  const auto crash = [&] {
    std::lock_guard<std::mutex> lock(send_mu);
    stream->close();
  };
  // finish() joins the heartbeat thread, which blocks on send_mu to emit a
  // beat — so it must NEVER run with send_mu held, or a beat fired at just
  // the wrong instant deadlocks the join. Every send below scopes its
  // lock_guard tightly and calls finish() only after releasing it. A worker
  // that ends done or cancelled says bye first.
  const auto finish = [&](WorkerOutcome outcome) {
    obs::TraceSpan span("fabric.shutdown", "fabric");
    if (outcome == WorkerOutcome::kDone ||
        outcome == WorkerOutcome::kCancelled) {
      Frame bye;
      bye.type = FrameType::kBye;
      bye.worker = worker_id;
      const std::string line = encode_frame(bye);
      std::lock_guard<std::mutex> lock(send_mu);
      out.send_frame(line);
    }
    {
      std::lock_guard<std::mutex> lock(stop_mu);
      stop_heartbeats = true;
    }
    stop_cv.notify_one();
    heartbeat_thread.join();
    return outcome;
  };

  // --- lease loop ---------------------------------------------------------
  const int reply_timeout =
      static_cast<int>(reply_timeout_ms(heartbeat_ms));
  std::uint64_t results_sent = 0;
  int consecutive_timeouts = 0;
  while (true) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return finish(WorkerOutcome::kCancelled);
    }
    // Request -> reply. The controller holds a request it cannot answer
    // yet (long poll), for at most one heartbeat interval.
    FaultStream::Send sent;
    Stream::Recv status = Stream::Recv::kTimeout;
    std::string line;
    {
      obs::TraceSpan span("fabric.lease_wait", "fabric");
      Frame request;
      request.type = FrameType::kRequest;
      request.worker = worker_id;
      request.value = options.want;
      const std::string request_line = encode_frame(request);
      {
        std::lock_guard<std::mutex> lock(send_mu);
        sent = out.send_frame(request_line);
      }
      if (sent == FaultStream::Send::kSent ||
          sent == FaultStream::Send::kDropped) {
        // A dropped request surfaces as a recv timeout.
        status = stream->recv_line(line, reply_timeout);
      }
    }
    switch (sent) {
      case FaultStream::Send::kTorn:
        crash();
        return finish(WorkerOutcome::kFaultStop);
      case FaultStream::Send::kError:
        return finish(WorkerOutcome::kLost);
      case FaultStream::Send::kDropped:
      case FaultStream::Send::kSent:
        break;
    }
    if (status == Stream::Recv::kTimeout) {
      // Lost request or lost reply; ask again. The controller's
      // revoke-on-request makes the retry idempotent.
      if (++consecutive_timeouts > 20) {
        return finish(WorkerOutcome::kLost);
      }
      continue;
    }
    if (status == Stream::Recv::kClosed) {
      return finish(WorkerOutcome::kLost);
    }
    consecutive_timeouts = 0;
    const std::optional<Frame> reply = decode_frame(line);
    if (!reply.has_value()) {
      return finish(WorkerOutcome::kLost);
    }
    if (reply->type == FrameType::kWait) {
      continue;  // the hold ran out with nothing to give: ask again now
    }
    if (reply->type == FrameType::kDone) {
      return finish(WorkerOutcome::kDone);
    }
    if (reply->type != FrameType::kLease) {
      return finish(WorkerOutcome::kLost);
    }

    c_worker_leases.add();
    for (const std::uint64_t cell : reply->cells) {
      const exp::CellAggregate aggregate = [&] {
        obs::TraceSpan span("fabric.cell", "fabric");
        return exp::run_single_cell(spec, hooks,
                                    static_cast<std::size_t>(cell));
      }();
      c_worker_cells.add();
      exp::JournalEntry entry;
      entry.cell = static_cast<std::size_t>(cell);
      entry.aggregate = aggregate;
      Frame result;
      result.type = FrameType::kResult;
      result.worker = worker_id;
      result.lease = reply->lease;
      result.entry = exp::encode_journal_entry(entry);
      if (options.fault.delay_cell_ms > 0) {
        cancellable_sleep(options.fault.delay_cell_ms, options.cancel);
      }
      if (options.fault.hang_after_cells > 0 &&
          results_sent >= options.fault.hang_after_cells) {
        // Wedge: no result, no heartbeat, no disconnect. The controller's
        // heartbeat deadline must dig the cells out.
        hang.store(true, std::memory_order_relaxed);
        std::string ignored;
        while (stream->recv_line(ignored, 60000) == Stream::Recv::kLine) {
        }
        return finish(WorkerOutcome::kFaultStop);
      }
      FaultStream::Send result_sent;
      {
        obs::TraceSpan span("fabric.result_send", "fabric");
        const std::string result_line = encode_frame(result);
        std::lock_guard<std::mutex> lock(send_mu);
        result_sent = out.send_frame(result_line);
      }
      switch (result_sent) {
        case FaultStream::Send::kTorn:
          crash();
          return finish(WorkerOutcome::kFaultStop);
        case FaultStream::Send::kError:
          return finish(WorkerOutcome::kLost);
        case FaultStream::Send::kDropped:
        case FaultStream::Send::kSent:
          break;
      }
      results_sent += 1;
      cells_completed.fetch_add(1, std::memory_order_relaxed);
      if (options.fault.kill_after_cells > 0 &&
          results_sent >= options.fault.kill_after_cells) {
        // Crash: abrupt close, no bye — exactly what kill -9 looks like
        // from the controller's side.
        crash();
        return finish(WorkerOutcome::kFaultStop);
      }
    }
  }
}

}  // namespace chronos::fabric
