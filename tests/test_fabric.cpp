// Fault-tolerant sweep fabric: wire-protocol strictness, fault-plan
// parsing, line transport, ControllerCore failure handling (driven with a
// fake clock — no sockets, no sleeps), full controller+worker socket runs
// under every injected fault, and a sweeprun CLI equivalence check. The
// load-bearing assertion throughout: whatever dies, hangs, or mangles its
// frames, the assembled reports are byte-identical to a single-process
// `--threads 1` run.
#include "fabric/controller.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/numeric.h"
#include "exp/aggregate.h"
#include "exp/checkpoint.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "fabric/fault.h"
#include "fabric/protocol.h"
#include "fabric/transport.h"
#include "fabric/worker.h"
#include "trace/planner.h"

namespace chronos::fabric {
namespace {

using exp::CellAggregate;
using strategies::PolicyKind;

// --- shared fixtures -------------------------------------------------------

/// Same tiny-but-real experiment the sweep tests use: 6 short jobs on a
/// small cluster, 2 policies x 3 axis values = 6 cells.
exp::CellInstance tiny_cell(const exp::SweepPoint& point,
                            std::uint64_t seed) {
  trace::TraceConfig config;
  config.num_jobs = 6;
  config.duration_hours = 0.2;
  config.mean_tasks = 4.0;
  config.max_tasks = 10;
  config.seed = 5;

  auto jobs = generate_trace(config);
  trace::PlannerConfig planner;
  const trace::SpotPriceModel prices;
  plan_trace(jobs, point.policy, planner, prices);

  exp::CellInstance instance;
  instance.set_jobs(std::move(jobs));
  sim::NodeConfig node;
  node.containers = 4;
  instance.config.policy = point.policy;
  instance.config.cluster = sim::ClusterConfig::uniform(4, node);
  instance.config.seed = seed;
  return instance;
}

exp::SweepSpec tiny_spec() {
  exp::SweepSpec spec;
  spec.name = "tiny";
  spec.policies = {PolicyKind::kHadoopNS, PolicyKind::kSResume};
  spec.axes = {{.name = "x", .values = {0.0, 1.0, 2.0}, .labels = {}}};
  spec.replications = 2;
  spec.seed = 33;
  return spec;
}

exp::SweepHooks tiny_hooks() {
  exp::SweepHooks hooks;
  hooks.run = [](const exp::SweepPoint& point, std::uint64_t seed,
                 const exp::SharedCell&) { return tiny_cell(point, seed); };
  return hooks;
}

/// A fixed, valid aggregate whose encoded bytes depend only on `base` —
/// lets fake-clock tests fabricate identical or conflicting results.
CellAggregate sample_aggregate(double base) {
  CellAggregate aggregate;
  aggregate.runs = 3;
  aggregate.jobs = 18;
  aggregate.attempts_launched = 70;
  aggregate.attempts_killed = 12;
  aggregate.attempts_failed = 1;
  aggregate.events_executed = 12345;
  aggregate.pocd = {3, 0.75 + base, 0.1, 0.2484, 0.6, 0.9};
  aggregate.cost = {3, 123.456, 7.5, 18.63, 110.0, 130.5};
  aggregate.machine_time = {3, 0.3, 0.0, 0.0, 0.3, 0.3};
  aggregate.mean_r = {3, 2.5, 0.5, 1.242, 2.0, 3.0};
  aggregate.utility = {2, -std::numeric_limits<double>::infinity(), 0.0,
                       0.0, -std::numeric_limits<double>::infinity(), -0.5};
  return aggregate;
}

std::string entry_line(std::size_t cell, double base = 0.0) {
  return exp::encode_journal_entry({cell, sample_aggregate(base)});
}

// --- protocol --------------------------------------------------------------

std::string with_crc(const std::string& payload) {
  return payload + " crc=" + numeric::hex64(numeric::fnv1a(payload));
}

TEST(FabricProtocol, EveryFrameTypeRoundTrips) {
  std::vector<Frame> frames;
  Frame hello;
  hello.type = FrameType::kHello;
  hello.value = kProtocolVersion;
  hello.fingerprint = "0123abcd";
  hello.name = "worker-1";
  frames.push_back(hello);
  Frame welcome;
  welcome.type = FrameType::kWelcome;
  welcome.worker = 7;
  welcome.value = 500;
  frames.push_back(welcome);
  Frame reject;
  reject.type = FrameType::kReject;
  reject.reason = "fingerprint-mismatch";
  frames.push_back(reject);
  Frame request;
  request.type = FrameType::kRequest;
  request.worker = 7;
  request.value = 4;
  frames.push_back(request);
  Frame lease;
  lease.type = FrameType::kLease;
  lease.lease = 3;
  lease.cells = {0, 2, 5};
  frames.push_back(lease);
  Frame wait;
  wait.type = FrameType::kWait;
  wait.value = 200;
  frames.push_back(wait);
  Frame done;
  done.type = FrameType::kDone;
  frames.push_back(done);
  Frame result;
  result.type = FrameType::kResult;
  result.worker = 7;
  result.lease = 3;
  result.entry = entry_line(11, 0.25);
  frames.push_back(result);
  Frame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  heartbeat.worker = 7;
  heartbeat.value = 9;
  frames.push_back(heartbeat);
  Frame bye;
  bye.type = FrameType::kBye;
  bye.worker = 7;
  frames.push_back(bye);

  for (const Frame& frame : frames) {
    const std::string line = encode_frame(frame);
    const std::optional<Frame> decoded = decode_frame(line);
    ASSERT_TRUE(decoded.has_value()) << line;
    EXPECT_EQ(decoded->type, frame.type) << line;
    EXPECT_EQ(decoded->worker, frame.worker);
    EXPECT_EQ(decoded->lease, frame.lease);
    EXPECT_EQ(decoded->value, frame.value);
    EXPECT_EQ(decoded->fingerprint, frame.fingerprint);
    EXPECT_EQ(decoded->name, frame.name);
    EXPECT_EQ(decoded->reason, frame.reason);
    EXPECT_EQ(decoded->cells, frame.cells);
    EXPECT_EQ(decoded->entry, frame.entry);
    EXPECT_EQ(encode_frame(*decoded), line);
  }
}

TEST(FabricProtocol, ResultFrameEmbedsTheJournalEntryVerbatim) {
  // The controller appends result entries to its journal unchanged; the
  // wire must hand them over byte for byte even though the entry carries
  // its own " crc=" field inside the frame payload.
  Frame result;
  result.type = FrameType::kResult;
  result.worker = 2;
  result.lease = 9;
  result.entry = entry_line(4, 0.5);
  const std::optional<Frame> decoded = decode_frame(encode_frame(result));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->entry, result.entry);
  EXPECT_TRUE(exp::decode_journal_entry(decoded->entry).has_value());
}

TEST(FabricProtocol, RejectsTamperedAndNonCanonicalLines) {
  Frame request;
  request.type = FrameType::kRequest;
  request.worker = 7;
  request.value = 4;
  const std::string line = encode_frame(request);

  // Flip one payload byte: the checksum catches it.
  std::string flipped = line;
  flipped[8] = flipped[8] == '7' ? '8' : '7';
  EXPECT_FALSE(decode_frame(flipped).has_value());

  // Corrupt the checksum itself.
  std::string bad_crc = line;
  bad_crc.back() = bad_crc.back() == '0' ? '1' : '0';
  EXPECT_FALSE(decode_frame(bad_crc).has_value());

  EXPECT_FALSE(decode_frame("").has_value());
  EXPECT_FALSE(decode_frame("request worker=7 want=4").has_value());

  // Valid checksum over an invalid payload: unknown type, reordered
  // fields, non-canonical numbers, bad lease cell lists.
  EXPECT_FALSE(decode_frame(with_crc("ping worker=7")).has_value());
  EXPECT_FALSE(decode_frame(with_crc("request want=4 worker=7")).has_value());
  EXPECT_FALSE(decode_frame(with_crc("request worker=07 want=4")).has_value());
  EXPECT_FALSE(decode_frame(with_crc("request worker=7 want=4 x=1")).has_value());
  EXPECT_FALSE(decode_frame(with_crc("lease id=1 cells=5,2")).has_value());
  EXPECT_FALSE(decode_frame(with_crc("lease id=1 cells=2,2")).has_value());
  EXPECT_FALSE(decode_frame(with_crc("lease id=1 cells=")).has_value());
  EXPECT_FALSE(decode_frame(with_crc("hello v=1 fp= name=w")).has_value());
}

TEST(FabricProtocol, RefusesToEncodeInvalidFrames) {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.value = kProtocolVersion;
  hello.fingerprint = "abc";
  hello.name = "two words";  // tokens must be space-free
  EXPECT_THROW(encode_frame(hello), PreconditionError);

  Frame lease;
  lease.type = FrameType::kLease;
  lease.lease = 1;
  lease.cells = {3, 1};  // must be strictly increasing
  EXPECT_THROW(encode_frame(lease), PreconditionError);

  Frame result;
  result.type = FrameType::kResult;
  result.worker = 1;
  result.lease = 1;
  result.entry = "torn\nline";  // embedded newline would break framing
  EXPECT_THROW(encode_frame(result), PreconditionError);

  result.entry = std::string(kMaxFrameBytes, 'x');  // over the frame cap
  EXPECT_THROW(encode_frame(result), PreconditionError);
}

// --- fault plans ------------------------------------------------------------

TEST(FabricFaultPlan, ParsesSpecs) {
  const FaultPlan plan = parse_fault_plan(
      "kill-after=2,hang-after=4,delay-ms=40,drop=3,drop=5,dup=1,torn=7");
  EXPECT_EQ(plan.kill_after_cells, 2u);
  EXPECT_EQ(plan.hang_after_cells, 4u);
  EXPECT_EQ(plan.delay_cell_ms, 40u);
  EXPECT_EQ(plan.drop_frames, (std::vector<std::uint64_t>{3, 5}));
  EXPECT_EQ(plan.dup_frames, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(plan.torn_frames, (std::vector<std::uint64_t>{7}));
  EXPECT_TRUE(plan.any());
  EXPECT_FALSE(parse_fault_plan("").any());
}

TEST(FabricFaultPlan, RejectsBadSpecs) {
  EXPECT_THROW(parse_fault_plan("explode=1"), PreconditionError);
  EXPECT_THROW(parse_fault_plan("kill-after"), PreconditionError);
  EXPECT_THROW(parse_fault_plan("drop=0"), PreconditionError);
  EXPECT_THROW(parse_fault_plan("dup=zero"), PreconditionError);
}

// --- transport --------------------------------------------------------------

TEST(FabricTransport, ParsesEndpoints) {
  Endpoint endpoint = parse_endpoint("unix:/tmp/fab.sock");
  EXPECT_FALSE(endpoint.tcp);
  EXPECT_EQ(endpoint.path_or_host, "/tmp/fab.sock");
  EXPECT_EQ(endpoint_to_string(endpoint), "unix:/tmp/fab.sock");

  endpoint = parse_endpoint("/tmp/bare.sock");  // bare path = unix
  EXPECT_FALSE(endpoint.tcp);
  EXPECT_EQ(endpoint.path_or_host, "/tmp/bare.sock");

  endpoint = parse_endpoint("tcp:127.0.0.1:9000");
  EXPECT_TRUE(endpoint.tcp);
  EXPECT_EQ(endpoint.path_or_host, "127.0.0.1");
  EXPECT_EQ(endpoint.port, 9000);
  EXPECT_EQ(endpoint_to_string(endpoint), "tcp:127.0.0.1:9000");

  EXPECT_THROW(parse_endpoint(""), PreconditionError);
  EXPECT_THROW(parse_endpoint("unix:"), PreconditionError);
  EXPECT_THROW(parse_endpoint("tcp:host"), PreconditionError);
  EXPECT_THROW(parse_endpoint("tcp:host:notaport"), PreconditionError);
  EXPECT_THROW(parse_endpoint("tcp:host:70000"), PreconditionError);
}

TEST(FabricTransport, LineStreamDropsTornTail) {
  const std::string path = testing::TempDir() + "fabric_transport.sock";
  Listener listener(parse_endpoint(path));
  std::unique_ptr<Stream> client = connect_endpoint(listener.local());
  ASSERT_NE(client, nullptr);
  std::unique_ptr<Stream> server = listener.accept(1000);
  ASSERT_NE(server, nullptr);

  EXPECT_TRUE(client->send_line("one"));
  EXPECT_TRUE(client->send_line("two"));
  std::string line;
  EXPECT_EQ(server->recv_line(line, 1000), Stream::Recv::kLine);
  EXPECT_EQ(line, "one");
  EXPECT_TRUE(server->has_buffered_line());
  EXPECT_EQ(server->recv_line(line, 0), Stream::Recv::kLine);
  EXPECT_EQ(line, "two");
  EXPECT_EQ(server->recv_line(line, 0), Stream::Recv::kTimeout);

  // A crash mid-write leaves a half line with no newline: the receiver
  // must report closed, never hand the fragment up as a frame.
  EXPECT_TRUE(client->send_bytes("half-a-fra"));
  client->close();
  EXPECT_EQ(server->recv_line(line, 1000), Stream::Recv::kClosed);
}

// --- controller core (fake clock) ------------------------------------------

std::string hello_line(const std::string& fingerprint = "feedface",
                       std::uint64_t version = kProtocolVersion) {
  Frame frame;
  frame.type = FrameType::kHello;
  frame.value = version;
  frame.fingerprint = fingerprint;
  frame.name = "w";
  return encode_frame(frame);
}

std::string request_line(std::uint64_t worker, std::uint64_t want = 2) {
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.worker = worker;
  frame.value = want;
  return encode_frame(frame);
}

std::string result_line(std::uint64_t worker, std::uint64_t lease,
                        std::size_t cell, double base = 0.0) {
  Frame frame;
  frame.type = FrameType::kResult;
  frame.worker = worker;
  frame.lease = lease;
  frame.entry = entry_line(cell, base);
  return encode_frame(frame);
}

std::string heartbeat_line(std::uint64_t worker, std::uint64_t done = 0) {
  Frame frame;
  frame.type = FrameType::kHeartbeat;
  frame.worker = worker;
  frame.value = done;
  return encode_frame(frame);
}

std::string bye_line(std::uint64_t worker) {
  Frame frame;
  frame.type = FrameType::kBye;
  frame.worker = worker;
  return encode_frame(frame);
}

ControllerConfig core_config() {
  ControllerConfig config;
  config.fingerprint = "feedface";
  config.num_cells = 8;
  config.todo = {0, 1, 2, 3, 4, 5};
  config.max_lease_cells = 2;
  config.heartbeat_ms = 100;
  config.lease_timeout_ms = 1000;
  config.worker_timeout_ms = 5000;
  return config;
}

/// The first frame an Actions batch sends; fails the test when absent.
Frame sent_frame(const Actions& actions, std::size_t index = 0) {
  const std::optional<Frame> frame =
      decode_frame(actions.send.at(index).second);
  EXPECT_TRUE(frame.has_value());
  return frame.value_or(Frame{});
}

/// Connects + hellos one worker, returning its assigned id.
std::uint64_t join_worker(ControllerCore& core, ConnId conn,
                          std::uint64_t now) {
  core.on_connect(conn, now);
  const Frame welcome = sent_frame(core.on_line(conn, hello_line(), now));
  EXPECT_EQ(welcome.type, FrameType::kWelcome);
  return welcome.worker;
}

TEST(ControllerCore, LeasesCellsAndCompletesWithConservation) {
  ControllerCore core(core_config());
  core.start(0);
  std::size_t journaled = 0;
  core.on_cell_finished = [&](const exp::JournalEntry&) { journaled += 1; };
  const std::uint64_t w1 = join_worker(core, 1, 0);
  ASSERT_NE(w1, 0u);

  std::uint64_t now = 10;
  while (!core.done()) {
    const Frame reply =
        sent_frame(core.on_line(1, request_line(w1), now));
    ASSERT_EQ(reply.type, FrameType::kLease);
    EXPECT_FALSE(reply.cells.empty());
    EXPECT_LE(reply.cells.size(), 2u);
    for (const std::uint64_t cell : reply.cells) {
      core.on_line(1, result_line(w1, reply.lease, cell), now);
      now += 10;
    }
  }
  const Frame done = sent_frame(core.on_line(1, request_line(w1), now));
  EXPECT_EQ(done.type, FrameType::kDone);

  EXPECT_EQ(core.finished().size(), 6u);
  EXPECT_EQ(journaled, 6u);
  EXPECT_EQ(core.stats().results, 6u);
  EXPECT_EQ(core.stats().leases_granted, 3u);
  EXPECT_EQ(core.stats().duplicates, 0u);
  EXPECT_EQ(core.stats().cells_reassigned, 0u);
  EXPECT_EQ(core.stats().workers_joined, 1u);
  EXPECT_EQ(core.stats().workers_lost, 0u);
  EXPECT_FALSE(core.failed());
}

TEST(ControllerCore, RejectsWrongFingerprintAndVersion) {
  ControllerCore core(core_config());
  core.start(0);
  core.on_connect(1, 0);
  Actions actions = core.on_line(1, hello_line("badfp"), 0);
  Frame reject = sent_frame(actions);
  EXPECT_EQ(reject.type, FrameType::kReject);
  EXPECT_EQ(reject.reason, "fingerprint-mismatch");
  EXPECT_EQ(actions.close, std::vector<ConnId>{1});

  core.on_connect(2, 0);
  actions = core.on_line(2, hello_line("feedface", kProtocolVersion + 1), 0);
  reject = sent_frame(actions);
  EXPECT_EQ(reject.type, FrameType::kReject);
  EXPECT_EQ(reject.reason, "version-mismatch");

  // A version-1 worker would sleep on `wait` instead of asking again.
  core.on_connect(3, 0);
  actions = core.on_line(3, hello_line("feedface", 1), 0);
  reject = sent_frame(actions);
  EXPECT_EQ(reject.type, FrameType::kReject);
  EXPECT_EQ(reject.reason, "version-mismatch");
  EXPECT_EQ(actions.close, std::vector<ConnId>{3});
  EXPECT_EQ(core.live_workers(), 0u);
  EXPECT_EQ(core.stats().workers_joined, 0u);
}

TEST(ControllerCore, DuplicateHelloIsIdempotent) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  // A dup-frame fault or a worker retry re-sends hello: same welcome, no
  // second worker.
  const Frame again = sent_frame(core.on_line(1, hello_line(), 5));
  EXPECT_EQ(again.type, FrameType::kWelcome);
  EXPECT_EQ(again.worker, w1);
  EXPECT_EQ(core.stats().workers_joined, 1u);
  EXPECT_EQ(core.live_workers(), 1u);
}

TEST(ControllerCore, HeartbeatDeadlineExpiresWorkerAndReassigns) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  const Frame lease = sent_frame(core.on_line(1, request_line(w1), 0));
  ASSERT_EQ(lease.type, FrameType::kLease);
  ASSERT_EQ(lease.cells, (std::vector<std::uint64_t>{0, 1}));
  core.on_line(1, heartbeat_line(w1), 400);
  EXPECT_TRUE(core.on_tick(500).close.empty());  // 100 ms silent: fine

  // 1100 ms of silence beats the 1000 ms lease timeout: cut it loose.
  const Actions expiry = core.on_tick(1500);
  EXPECT_EQ(expiry.close, std::vector<ConnId>{1});
  EXPECT_EQ(core.stats().leases_expired, 1u);
  EXPECT_EQ(core.stats().cells_reassigned, 2u);
  EXPECT_EQ(core.stats().workers_lost, 1u);
  EXPECT_EQ(core.live_workers(), 0u);

  // The expired cells lead the queue: the next worker inherits them first.
  const std::uint64_t w2 = join_worker(core, 2, 1500);
  const Frame retry = sent_frame(core.on_line(2, request_line(w2), 1500));
  ASSERT_EQ(retry.type, FrameType::kLease);
  EXPECT_EQ(retry.cells, (std::vector<std::uint64_t>{0, 1}));
}

TEST(ControllerCore, RequestWithOutstandingLeaseRevokesIt) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  const Frame lease = sent_frame(core.on_line(1, request_line(w1), 0));
  ASSERT_EQ(lease.cells, (std::vector<std::uint64_t>{0, 1}));
  core.on_line(1, result_line(w1, lease.lease, 0), 10);

  // The worker asks again while cell 1 is still outstanding — it has
  // provably lost that lease (e.g. our reply was dropped). Cell 1 returns
  // to the front of the queue and is re-granted immediately.
  const Frame retry = sent_frame(core.on_line(1, request_line(w1), 20));
  ASSERT_EQ(retry.type, FrameType::kLease);
  EXPECT_EQ(retry.cells, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(core.stats().cells_reassigned, 1u);
  EXPECT_EQ(core.stats().leases_expired, 0u);  // no timeout involved
}

TEST(ControllerCore, LateResultAfterProgressRevokeDedups) {
  ControllerConfig config = core_config();
  config.progress_timeout_ms = 300;
  ControllerCore core(config);
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  const Frame lease = sent_frame(core.on_line(1, request_line(w1), 0));
  ASSERT_EQ(lease.cells, (std::vector<std::uint64_t>{0, 1}));

  // w1 heartbeats but never delivers: wedged, not dead. The progress
  // deadline revokes the lease but keeps the connection.
  core.on_line(1, heartbeat_line(w1), 200);
  EXPECT_TRUE(core.on_tick(350).close.empty());
  EXPECT_EQ(core.stats().leases_expired, 1u);
  EXPECT_EQ(core.stats().cells_reassigned, 2u);
  EXPECT_EQ(core.live_workers(), 1u);

  // w2 inherits and finishes the cells.
  const std::uint64_t w2 = join_worker(core, 2, 400);
  const Frame retry = sent_frame(core.on_line(2, request_line(w2), 400));
  ASSERT_EQ(retry.cells, (std::vector<std::uint64_t>{0, 1}));
  core.on_line(2, result_line(w2, retry.lease, 0), 410);
  core.on_line(2, result_line(w2, retry.lease, 1), 420);
  EXPECT_EQ(core.stats().results, 2u);

  // w1 wakes up and delivers cell 0 after all. Same seed stream => same
  // bytes => a counted duplicate, not a conflict, not a double count.
  core.on_line(1, result_line(w1, lease.lease, 0), 500);
  EXPECT_EQ(core.stats().results, 2u);
  EXPECT_EQ(core.stats().duplicates, 1u);
  EXPECT_FALSE(core.failed());
}

TEST(ControllerCore, ByteDifferentResultForFinishedCellFailsLoudly) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  const Frame lease = sent_frame(core.on_line(1, request_line(w1), 0));
  core.on_line(1, result_line(w1, lease.lease, 0, 0.0), 10);
  // Different bytes for a finished cell can only mean corruption or a
  // foreign workload: poison, not a dedup.
  const Actions actions =
      core.on_line(1, result_line(w1, lease.lease, 0, 0.5), 20);
  EXPECT_TRUE(core.failed());
  EXPECT_NE(core.error().find("conflicting result for cell 0"),
            std::string::npos);
  EXPECT_FALSE(actions.close.empty());
  EXPECT_EQ(core.live_workers(), 0u);
}

/// Core whose first worker (conn 1) holds all six cells in one lease and
/// whose second (conn 2) has a request parked at t=10.
struct ParkedCore {
  ControllerCore core{[] {
    ControllerConfig config = core_config();
    config.max_lease_cells = 6;
    return config;
  }()};
  std::uint64_t w1 = 0;
  std::uint64_t w2 = 0;
  Frame lease;

  ParkedCore() {
    core.start(0);
    w1 = join_worker(core, 1, 0);
    lease = sent_frame(core.on_line(1, request_line(w1, 6), 0));
    w2 = join_worker(core, 2, 10);
    // Everything is leased out: the request is held, not answered.
    EXPECT_TRUE(core.on_line(2, request_line(w2), 10).send.empty());
  }
};

TEST(ControllerCore, ParkedRequestGetsDoneWithTheLastResult) {
  ParkedCore p;
  ASSERT_EQ(p.lease.cells.size(), 6u);
  for (std::size_t i = 0; i + 1 < p.lease.cells.size(); ++i) {
    EXPECT_TRUE(
        p.core.on_line(1, result_line(p.w1, p.lease.lease, p.lease.cells[i]),
                       20)
            .send.empty());
  }
  // The result that completes the sweep answers the parked request in the
  // same batch.
  const Actions last = p.core.on_line(
      1, result_line(p.w1, p.lease.lease, p.lease.cells.back()), 20);
  EXPECT_TRUE(p.core.done());
  ASSERT_EQ(last.send.size(), 1u);
  EXPECT_EQ(last.send[0].first, 2u);
  EXPECT_EQ(sent_frame(last).type, FrameType::kDone);
  // Answered once: no `wait` follows later.
  EXPECT_TRUE(p.core.on_tick(1000).send.empty());
}

TEST(ControllerCore, ParkedRequestGetsALeaseWhenARevokeReturnsCells) {
  ParkedCore p;
  p.core.on_line(1, result_line(p.w1, p.lease.lease, 0), 20);
  // w1 asks again with cells 1..5 unfinished: revoke-on-request returns
  // them, and the parked w2 takes the first ones in the same batch before
  // w1 gets the rest.
  const Actions actions = p.core.on_line(1, request_line(p.w1, 2), 30);
  ASSERT_EQ(actions.send.size(), 2u);
  EXPECT_EQ(actions.send[0].first, 2u);
  const Frame parked = sent_frame(actions, 0);
  ASSERT_EQ(parked.type, FrameType::kLease);
  EXPECT_EQ(parked.cells, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(actions.send[1].first, 1u);
  EXPECT_EQ(sent_frame(actions, 1).cells,
            (std::vector<std::uint64_t>{3, 4}));
}

TEST(ControllerCore, ParkedRequestGetsALeaseWhenAByeReturnsCells) {
  ParkedCore p;
  const Actions actions = p.core.on_line(1, bye_line(p.w1), 30);
  EXPECT_EQ(actions.close, std::vector<ConnId>{1});
  ASSERT_EQ(actions.send.size(), 1u);
  EXPECT_EQ(actions.send[0].first, 2u);
  const Frame lease = sent_frame(actions);
  ASSERT_EQ(lease.type, FrameType::kLease);
  EXPECT_EQ(lease.cells, (std::vector<std::uint64_t>{0, 1}));
}

TEST(ControllerCore, ParkedRequestGetsALeaseWhenADisconnectReturnsCells) {
  ParkedCore p;
  const Actions actions = p.core.on_disconnect(1, 30);
  ASSERT_EQ(actions.send.size(), 1u);
  EXPECT_EQ(actions.send[0].first, 2u);
  const Frame lease = sent_frame(actions);
  ASSERT_EQ(lease.type, FrameType::kLease);
  EXPECT_EQ(lease.cells, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(p.core.stats().workers_lost, 1u);
}

TEST(ControllerCore, ParkedRequestGetsALeaseWhenAnExpiryReturnsCells) {
  ParkedCore p;
  p.core.on_line(2, heartbeat_line(p.w2), 900);
  // w1 has been silent past the 1000 ms lease timeout: the tick that
  // expires it hands its cells to the parked w2 instead of a `wait`.
  const Actions actions = p.core.on_tick(1001);
  EXPECT_EQ(actions.close, std::vector<ConnId>{1});
  ASSERT_EQ(actions.send.size(), 1u);
  EXPECT_EQ(actions.send[0].first, 2u);
  const Frame lease = sent_frame(actions);
  ASSERT_EQ(lease.type, FrameType::kLease);
  EXPECT_EQ(lease.cells, (std::vector<std::uint64_t>{0, 1}));
}

TEST(ControllerCore, IdleParkedRequestGetsWaitAfterOneHeartbeat) {
  ParkedCore p;
  p.core.on_line(2, heartbeat_line(p.w2), 50);
  // Parked at t=10 with heartbeat_ms = 100: held through t=109 ...
  EXPECT_TRUE(p.core.on_tick(109).send.empty());
  // ... and answered `wait` at t=110, exactly once.
  const Actions actions = p.core.on_tick(110);
  ASSERT_EQ(actions.send.size(), 1u);
  EXPECT_EQ(actions.send[0].first, 2u);
  const Frame wait = sent_frame(actions);
  EXPECT_EQ(wait.type, FrameType::kWait);
  EXPECT_EQ(wait.value, 100u);
  EXPECT_TRUE(p.core.on_tick(500).send.empty());
  // The worker asks again at once and is parked anew.
  EXPECT_TRUE(p.core.on_line(2, request_line(p.w2), 111).send.empty());
  EXPECT_TRUE(p.core.on_tick(210).send.empty());
  EXPECT_EQ(sent_frame(p.core.on_tick(211)).type, FrameType::kWait);
}

TEST(ControllerCore, DuplicatedParkedRequestGetsOneReply) {
  ParkedCore p;
  // A dup-frame fault delivers the parked request twice.
  EXPECT_TRUE(p.core.on_line(2, request_line(p.w2), 40).send.empty());
  // The hold still runs from the first copy ...
  const Actions wait = p.core.on_tick(110);
  ASSERT_EQ(wait.send.size(), 1u);
  EXPECT_EQ(sent_frame(wait).type, FrameType::kWait);
  // ... and a later completion sends nothing more to w2.
  for (const std::uint64_t cell : p.lease.cells) {
    EXPECT_TRUE(
        p.core.on_line(1, result_line(p.w1, p.lease.lease, cell), 120)
            .send.empty());
  }
  EXPECT_TRUE(p.core.done());

  // Twice parked, then released by a completion: one `done`, not two.
  ParkedCore q;
  q.core.on_line(2, request_line(q.w2), 40);
  std::size_t replies = 0;
  for (const std::uint64_t cell : q.lease.cells) {
    replies +=
        q.core.on_line(1, result_line(q.w1, q.lease.lease, cell), 50)
            .send.size();
  }
  EXPECT_EQ(replies, 1u);
  EXPECT_TRUE(q.core.on_tick(1000).send.empty());
}

TEST(ControllerCore, MidSweepJoinerSharesTheGrid) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  const Frame first = sent_frame(core.on_line(1, request_line(w1), 0));
  ASSERT_EQ(first.cells, (std::vector<std::uint64_t>{0, 1}));

  const std::uint64_t w2 = join_worker(core, 2, 100);
  const Frame second = sent_frame(core.on_line(2, request_line(w2), 100));
  ASSERT_EQ(second.type, FrameType::kLease);
  EXPECT_EQ(second.cells, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(core.stats().workers_joined, 2u);
}

TEST(ControllerCore, FailsAfterWorkerDrought) {
  ControllerCore core(core_config());
  core.start(0);
  EXPECT_TRUE(core.on_tick(4000).close.empty());
  EXPECT_FALSE(core.failed());
  core.on_tick(5001);  // worker_timeout_ms = 5000, none ever connected
  EXPECT_TRUE(core.failed());
  EXPECT_NE(core.error().find("no live worker"), std::string::npos);
}

TEST(ControllerCore, DroughtClockRestartsAfterLastWorkerLeaves) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  for (std::uint64_t now = 500; now <= 3000; now += 500) {
    core.on_line(1, heartbeat_line(w1), now);  // stays live the whole time
  }
  core.on_tick(3000);       // alive: the drought clock follows along
  core.on_disconnect(1, 3100);
  EXPECT_EQ(core.stats().workers_lost, 1u);
  core.on_tick(7900);       // 4900 ms without workers: still within budget
  EXPECT_FALSE(core.failed());
  core.on_tick(8100);       // 5100 ms: drought
  EXPECT_TRUE(core.failed());
}

TEST(ControllerCore, MalformedLineDropsTheWorkerAndReassigns) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  const Frame lease = sent_frame(core.on_line(1, request_line(w1), 0));
  ASSERT_EQ(lease.cells.size(), 2u);
  const Actions actions = core.on_line(1, "complete garbage", 10);
  EXPECT_EQ(actions.close, std::vector<ConnId>{1});
  EXPECT_EQ(core.stats().protocol_errors, 1u);
  EXPECT_EQ(core.stats().cells_reassigned, 2u);
  EXPECT_EQ(core.live_workers(), 0u);
}

TEST(ControllerCore, WrongWorkerIdAndForeignCellsAreProtocolErrors) {
  ControllerCore core(core_config());
  core.start(0);
  // Requesting before hello is a protocol error.
  core.on_connect(1, 0);
  Actions actions = core.on_line(1, request_line(1), 0);
  EXPECT_EQ(actions.close, std::vector<ConnId>{1});

  // A frame claiming someone else's id is a protocol error.
  const std::uint64_t w2 = join_worker(core, 2, 0);
  actions = core.on_line(2, request_line(w2 + 17), 0);
  EXPECT_EQ(actions.close, std::vector<ConnId>{2});

  // A result for a cell outside the todo set (cell 7 exists in the grid
  // but is not being swept) is a protocol error, not an accepted result.
  const std::uint64_t w3 = join_worker(core, 3, 0);
  const Frame lease = sent_frame(core.on_line(3, request_line(w3), 0));
  actions = core.on_line(3, result_line(w3, lease.lease, 7), 0);
  EXPECT_EQ(actions.close, std::vector<ConnId>{3});
  EXPECT_EQ(core.stats().results, 0u);
  EXPECT_EQ(core.stats().protocol_errors, 3u);
}

TEST(ControllerCore, ByeReturnsCellsWithoutCountingALoss) {
  ControllerCore core(core_config());
  core.start(0);
  const std::uint64_t w1 = join_worker(core, 1, 0);
  sent_frame(core.on_line(1, request_line(w1), 0));
  const Actions actions = core.on_line(1, bye_line(w1), 10);
  EXPECT_EQ(actions.close, std::vector<ConnId>{1});
  EXPECT_EQ(core.stats().cells_reassigned, 2u);
  EXPECT_EQ(core.stats().workers_lost, 0u);  // graceful exit, not a loss
  EXPECT_EQ(core.live_workers(), 0u);
}

TEST(ControllerCore, ValidatesItsConfig) {
  ControllerConfig config = core_config();
  config.fingerprint.clear();
  EXPECT_THROW(ControllerCore{config}, PreconditionError);
  config = core_config();
  config.todo = {0, 2, 1};  // not ascending
  EXPECT_THROW(ControllerCore{config}, PreconditionError);
  config = core_config();
  config.todo = {0, 9};  // out of range
  EXPECT_THROW(ControllerCore{config}, PreconditionError);
  config = core_config();
  config.lease_timeout_ms = config.heartbeat_ms;  // deadline <= beat
  EXPECT_THROW(ControllerCore{config}, PreconditionError);
}

// --- controller + workers over real sockets ---------------------------------

struct FabricRun {
  ControllerRunResult controller;
  std::vector<WorkerOutcome> outcomes;
};

/// Runs a controller and one worker thread per fault plan over a unix
/// socket, to completion. Throws whatever the controller threw.
FabricRun run_fabric(const exp::SweepSpec& spec,
                     const std::vector<FaultPlan>& faults,
                     const std::string& tag,
                     std::uint64_t lease_timeout_ms = 2000,
                     std::uint64_t stagger_ms = 0,
                     std::uint64_t first_result_hold_ms = 0) {
  const exp::SweepHooks hooks = tiny_hooks();
  const std::string fingerprint = exp::spec_fingerprint(spec);
  const std::string socket_path =
      testing::TempDir() + "fabric_" + tag + ".sock";
  const std::string address = "unix:" + socket_path;
  ControllerConfig config;
  config.fingerprint = fingerprint;
  config.num_cells = spec.num_cells();
  for (std::size_t cell = 0; cell < spec.num_cells(); ++cell) {
    config.todo.push_back(cell);
  }
  config.max_lease_cells = 2;
  config.heartbeat_ms = 50;
  config.lease_timeout_ms = lease_timeout_ms;
  config.worker_timeout_ms = 10000;

  FabricRun run;
  run.outcomes.assign(faults.size(), WorkerOutcome::kLost);
  std::exception_ptr controller_error;
  std::atomic<bool> controller_done{false};
  // A socket file left by an earlier run must not pass for a listening
  // controller.
  std::filesystem::remove(socket_path);
  // Holding the first result stalls the controller's loop the way a slow
  // journal append would: every other worker gets that long to join before
  // a fast worker can finish the grid alone.
  std::function<void(const exp::JournalEntry&)> on_cell;
  if (first_result_hold_ms > 0) {
    on_cell = [&, held = false](const exp::JournalEntry&) mutable {
      if (!held) {
        held = true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(first_result_hold_ms));
      }
    };
  }
  std::thread controller_thread([&] {
    try {
      run.controller = run_controller(address, config, on_cell, nullptr);
    } catch (...) {
      controller_error = std::current_exception();
    }
    controller_done = true;
  });
  // Start the workers only once the controller is listening. Started
  // earlier, a worker whose first connect lost the race with the bind
  // retried 50 ms later, by which time the other worker could have run the
  // whole grid and the controller exited: the worker ended kLost. The
  // socket file appears at bind and listen follows at once; the workers'
  // connect retry starts at 1 ms to cover that gap, and its doubling
  // backoff stays bounded (~2 s) so a worker that cannot connect fails the
  // test instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!std::filesystem::exists(socket_path) && !controller_done &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    workers.emplace_back([&, i] {
      if (stagger_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stagger_ms * i));
      }
      WorkerOptions options;
      options.address = address;
      options.fingerprint = fingerprint;
      options.name = "w" + std::to_string(i);
      options.want = 2;
      options.connect_attempts = 12;
      options.connect_backoff_ms = 1;
      options.fault = faults[i];
      run.outcomes[i] = run_worker(spec, hooks, options);
    });
  }
  for (std::thread& thread : workers) {
    thread.join();
  }
  controller_thread.join();
  if (controller_error) {
    std::rethrow_exception(controller_error);
  }
  return run;
}

std::string fabric_csv(const exp::SweepSpec& spec, const FabricRun& run) {
  return exp::to_csv(exp::assemble_result(spec, run.controller.cells));
}

std::string single_process_csv(const exp::SweepSpec& spec) {
  return exp::to_csv(exp::run_sweep(spec, tiny_cell, {.threads = 1}));
}

TEST(FabricIntegration, TwoCleanWorkersMatchSingleProcess) {
  const exp::SweepSpec spec = tiny_spec();
  const FabricRun run =
      run_fabric(spec, {FaultPlan{}, FaultPlan{}}, "clean",
                 /*lease_timeout_ms=*/2000, /*stagger_ms=*/0,
                 /*first_result_hold_ms=*/300);
  EXPECT_EQ(fabric_csv(spec, run), single_process_csv(spec));
  EXPECT_EQ(run.outcomes[0], WorkerOutcome::kDone);
  EXPECT_EQ(run.outcomes[1], WorkerOutcome::kDone);
  EXPECT_EQ(run.controller.stats.results, 6u);
  EXPECT_EQ(run.controller.stats.workers_joined, 2u);
  EXPECT_EQ(run.controller.stats.duplicates, 0u);
  EXPECT_EQ(run.controller.stats.cells_reassigned, 0u);
  EXPECT_EQ(run.controller.stats.workers_lost, 0u);
}

TEST(FabricIntegration, WorkerKilledMidLeaseIsByteIdentical) {
  // The tentpole scenario: one worker crashes (abrupt close, no bye) after
  // its first result, mid-lease. The survivor absorbs the orphaned cells
  // and the assembled report is byte-identical to --threads 1.
  // The survivor is slowed down (100 ms per result) so the faulty worker
  // always wins a lease before the grid runs dry — the scenario stays
  // deterministic instead of racing on scheduler luck.
  const exp::SweepSpec spec = tiny_spec();
  const FabricRun run = run_fabric(
      spec,
      {parse_fault_plan("kill-after=1"), parse_fault_plan("delay-ms=100")},
      "killed");
  EXPECT_EQ(fabric_csv(spec, run), single_process_csv(spec));
  EXPECT_EQ(run.outcomes[0], WorkerOutcome::kFaultStop);
  EXPECT_EQ(run.outcomes[1], WorkerOutcome::kDone);
  EXPECT_EQ(run.controller.stats.results, 6u);
  EXPECT_GE(run.controller.stats.cells_reassigned, 1u);
  EXPECT_GE(run.controller.stats.workers_lost, 1u);
}

TEST(FabricIntegration, HungWorkerExpiresByHeartbeatDeadline) {
  // The hung worker stops everything — results and heartbeats — while
  // holding a lease. Only the heartbeat deadline can free its cells.
  const exp::SweepSpec spec = tiny_spec();
  const FabricRun run = run_fabric(
      spec,
      {parse_fault_plan("hang-after=1"), parse_fault_plan("delay-ms=100")},
      "hung", /*lease_timeout_ms=*/400);
  EXPECT_EQ(fabric_csv(spec, run), single_process_csv(spec));
  EXPECT_EQ(run.outcomes[0], WorkerOutcome::kFaultStop);
  EXPECT_EQ(run.outcomes[1], WorkerOutcome::kDone);
  EXPECT_GE(run.controller.stats.leases_expired, 1u);
  EXPECT_GE(run.controller.stats.cells_reassigned, 1u);
  EXPECT_EQ(run.controller.stats.results, 6u);
}

TEST(FabricIntegration, DroppedResultFrameRecoveredByRevokeOnRequest) {
  // Frame 3 is the worker's first result (hello=1, request=2). It vanishes
  // in transit; nobody times out. The worker's next request reveals the
  // loss and the controller re-leases the cell for a bit-identical rerun.
  const exp::SweepSpec spec = tiny_spec();
  const FabricRun run =
      run_fabric(spec, {parse_fault_plan("drop=3")}, "dropped");
  EXPECT_EQ(fabric_csv(spec, run), single_process_csv(spec));
  EXPECT_EQ(run.outcomes[0], WorkerOutcome::kDone);
  EXPECT_EQ(run.controller.stats.results, 6u);
  EXPECT_EQ(run.controller.stats.cells_reassigned, 1u);
  EXPECT_EQ(run.controller.stats.duplicates, 0u);
}

TEST(FabricIntegration, DuplicatedResultFrameIsDeduplicated) {
  const exp::SweepSpec spec = tiny_spec();
  const FabricRun run = run_fabric(spec, {parse_fault_plan("dup=3")}, "dup");
  EXPECT_EQ(fabric_csv(spec, run), single_process_csv(spec));
  EXPECT_EQ(run.outcomes[0], WorkerOutcome::kDone);
  EXPECT_EQ(run.controller.stats.results, 6u);
  EXPECT_EQ(run.controller.stats.duplicates, 1u);
}

TEST(FabricIntegration, TornResultFrameNeverCorruptsTheSweep) {
  // The worker crashes mid-write: half a result line, no newline, closed
  // socket. The fragment must be discarded like a torn journal tail — not
  // parsed, not counted — and the cells rerun elsewhere.
  const exp::SweepSpec spec = tiny_spec();
  const FabricRun run = run_fabric(
      spec,
      {parse_fault_plan("torn=3"), parse_fault_plan("delay-ms=100")},
      "torn");
  EXPECT_EQ(fabric_csv(spec, run), single_process_csv(spec));
  EXPECT_EQ(run.outcomes[0], WorkerOutcome::kFaultStop);
  EXPECT_EQ(run.outcomes[1], WorkerOutcome::kDone);
  EXPECT_EQ(run.controller.stats.results, 6u);
  EXPECT_EQ(run.controller.stats.protocol_errors, 0u);
  EXPECT_GE(run.controller.stats.cells_reassigned, 1u);
}

TEST(FabricIntegration, LateJoinerSharesASlowedSweep) {
  // Worker 0 starts alone (each result delayed 150 ms, so the sweep is
  // still far from done); worker 1 joins 250 ms in and must be welcomed
  // and leased cells mid-sweep.
  const exp::SweepSpec spec = tiny_spec();
  const FabricRun run = run_fabric(
      spec, {parse_fault_plan("delay-ms=150"), parse_fault_plan("delay-ms=150")},
      "late", /*lease_timeout_ms=*/2000, /*stagger_ms=*/250);
  EXPECT_EQ(fabric_csv(spec, run), single_process_csv(spec));
  EXPECT_EQ(run.outcomes[0], WorkerOutcome::kDone);
  EXPECT_EQ(run.outcomes[1], WorkerOutcome::kDone);
  EXPECT_EQ(run.controller.stats.workers_joined, 2u);
  EXPECT_EQ(run.controller.stats.results, 6u);
}

TEST(FabricIntegration, ControllerFailsWhenNoWorkerEverConnects) {
  const exp::SweepSpec spec = tiny_spec();
  ControllerConfig config;
  config.fingerprint = exp::spec_fingerprint(spec);
  config.num_cells = spec.num_cells();
  for (std::size_t cell = 0; cell < spec.num_cells(); ++cell) {
    config.todo.push_back(cell);
  }
  config.heartbeat_ms = 50;
  config.lease_timeout_ms = 200;
  config.worker_timeout_ms = 300;
  const std::string address =
      "unix:" + testing::TempDir() + "fabric_noworkers.sock";
  EXPECT_THROW(run_controller(address, config, nullptr, nullptr),
               PreconditionError);
}

TEST(FabricIntegration, WrongFingerprintWorkerIsRejectedNotServed) {
  const exp::SweepSpec spec = tiny_spec();
  const exp::SweepHooks hooks = tiny_hooks();
  const std::string fingerprint = exp::spec_fingerprint(spec);
  const std::string address =
      "unix:" + testing::TempDir() + "fabric_reject.sock";
  ControllerConfig config;
  config.fingerprint = fingerprint;
  config.num_cells = spec.num_cells();
  for (std::size_t cell = 0; cell < spec.num_cells(); ++cell) {
    config.todo.push_back(cell);
  }
  config.heartbeat_ms = 50;
  config.lease_timeout_ms = 2000;
  config.worker_timeout_ms = 10000;

  ControllerRunResult result;
  std::exception_ptr controller_error;
  std::thread controller_thread([&] {
    try {
      result = run_controller(address, config, nullptr, nullptr);
    } catch (...) {
      controller_error = std::current_exception();
    }
  });
  WorkerOptions imposter;
  imposter.address = address;
  imposter.fingerprint = "deadbeef";  // a different sweep's journal bytes
  imposter.name = "imposter";
  const WorkerOutcome rejected = run_worker(spec, hooks, imposter);
  WorkerOptions honest;
  honest.address = address;
  honest.fingerprint = fingerprint;
  honest.name = "honest";
  const WorkerOutcome done = run_worker(spec, hooks, honest);
  controller_thread.join();
  if (controller_error) {
    std::rethrow_exception(controller_error);
  }
  EXPECT_EQ(rejected, WorkerOutcome::kRejected);
  EXPECT_EQ(worker_exit_code(rejected), 2);
  EXPECT_EQ(done, WorkerOutcome::kDone);
  EXPECT_EQ(result.stats.results, 6u);
  EXPECT_EQ(result.stats.workers_joined, 1u);
}

// --- sweeprun CLI ------------------------------------------------------------

struct CommandResult {
  int status = -1;
  std::string output;  ///< stdout + stderr
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, got);
  }
  const int raw = pclose(pipe);
  result.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FabricCli, ControllerAndFaultyWorkersMatchSingleProcessByteForByte) {
  const std::string dir = testing::TempDir() + "fabric_cli";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string sweeprun = CHRONOS_SWEEPRUN_BIN;
  const std::string manifest =
      std::string(CHRONOS_MANIFEST_DIR) + "/tiny.ini";
  const std::string sock = dir + "/fab.sock";

  const CommandResult single = run_command(
      sweeprun + " " + manifest + " --threads 1 --fresh --journal " + dir +
      "/single.journal --csv " + dir + "/single.csv");
  ASSERT_EQ(single.status, 0) << single.output;

  CommandResult controller;
  std::thread controller_thread([&] {
    controller = run_command(
        sweeprun + " " + manifest + " --controller unix:" + sock +
        " --fresh --journal " + dir + "/fab.journal --csv " + dir +
        "/fab.csv --heartbeat-ms 50 --lease-timeout-ms 1000");
  });
  CommandResult steady;
  CommandResult killed;
  // The steady worker is slowed per result so the faulty one always wins a
  // lease (and so crashes as planned) before the grid runs dry.
  std::thread steady_thread([&] {
    steady = run_command(sweeprun + " " + manifest + " --worker unix:" +
                         sock + " --name steady --fault delay-ms=100");
  });
  std::thread killed_thread([&] {
    killed = run_command(sweeprun + " " + manifest + " --worker unix:" +
                         sock + " --name killed --fault kill-after=1");
  });
  steady_thread.join();
  killed_thread.join();
  controller_thread.join();

  EXPECT_EQ(controller.status, 0) << controller.output;
  EXPECT_EQ(steady.status, 0) << steady.output;
  EXPECT_EQ(killed.status, 3) << killed.output;  // planned fault stop

  const std::string expected = slurp(dir + "/single.csv");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(slurp(dir + "/fab.csv"), expected);
}

}  // namespace
}  // namespace chronos::fabric
