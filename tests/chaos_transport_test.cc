// Chaos tests for the serving transport: every injected fault class has a
// pinned server-side outcome — an error response or a clean close, never
// a hang, a crash, or a corrupted response. Suites are named Chaos* so the
// CI TSan leg's -R filter picks them up alongside Engine/Server.
//
// The fault injector (server/fault.h) is client-side by construction, but
// each fault is server-felt: a real SocketServer is driven through raw
// sockets and through FaultyStream/ResilientClient, and the assertions are
// about what the *server* does next.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/krsp.h"
#include "server/client.h"
#include "server/fault.h"
#include "server/transport.h"
#include "server/wire.h"
#include "util/rng.h"

namespace krsp::server {
namespace {

using namespace std::chrono_literals;

api::Instance small_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  api::RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = 0.25;
  const auto inst = api::random_er_instance(rng, 10, 0.35, opt);
  KRSP_CHECK_MSG(inst.has_value(), "seed " << seed << " drew no instance");
  return *inst;
}

std::string solve_line(const api::Instance& inst, const std::string& id) {
  std::ostringstream kri;
  api::write_instance(kri, inst);
  return wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("instance", kri.str())
      .field("mode", "exact")
      .done();
}

/// Boots a real SocketServer on a per-test /tmp socket and tears it down
/// (stop + join) even when an assertion fails mid-test.
class ChaosServer {
 public:
  explicit ChaosServer(api::ServerOptions options = {.num_threads = 2})
      : service_(options),
        protocol_(service_),
        server_(protocol_, Endpoint::unix_socket(make_path())) {
    std::string error;
    KRSP_CHECK_MSG(server_.start(&error), "start: " << error);
    accept_thread_ = std::thread([this] { server_.serve_forever(); });
  }
  ~ChaosServer() {
    server_.request_stop();
    accept_thread_.join();
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] SocketServer& server() { return server_; }
  [[nodiscard]] SolveService& service() { return service_; }

  /// One fresh clean connection; sends `line` and returns the first
  /// response line (empty on EOF/timeout).
  std::string roundtrip(const std::string& line) {
    std::string error;
    FdStream stream(connect_unix(path_, &error));
    KRSP_CHECK_MSG(stream.connected(), "connect: " << error);
    KRSP_CHECK_MSG(stream.send(line + "\n", &error), "send: " << error);
    return read_line(stream);
  }

  /// Reads one newline-terminated line (5 s cap — a server that takes
  /// longer has hung, which is exactly what these tests must catch).
  static std::string read_line(ByteStream& stream) {
    std::string buffer;
    char chunk[4096];
    while (buffer.find('\n') == std::string::npos) {
      std::string error;
      const ssize_t n = stream.recv(chunk, sizeof chunk, 5000, &error);
      if (n <= 0) return "";
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    return buffer.substr(0, buffer.find('\n'));
  }

 private:
  std::string make_path() {
    static std::atomic<int> counter{0};
    path_ = "/tmp/krsp_chaos_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".sock";
    return path_;
  }

  SolveService service_;
  Protocol protocol_;
  std::string path_;
  SocketServer server_;
  std::thread accept_thread_;
};

// ----------------------------------------------- server-felt outcomes ---

TEST(ChaosTransport, GarbageFrameGetsErrorResponseAndConnectionSurvives) {
  ChaosServer fixture;
  std::string error;
  FdStream stream(connect_unix(fixture.path(), &error));
  ASSERT_TRUE(stream.connected()) << error;

  // A junk frame must be answered (ok:false), not crash or desync: the
  // very same connection then serves a well-formed request.
  ASSERT_TRUE(stream.send("!!nonsense@@#$%^\n", &error));
  const auto junk_resp = wire::parse(ChaosServer::read_line(stream));
  ASSERT_TRUE(junk_resp.has_value());
  EXPECT_FALSE(junk_resp->get_bool("ok", true));
  EXPECT_FALSE(junk_resp->get_string("error").empty());

  ASSERT_TRUE(stream.send("{\"op\":\"ping\"}\n", &error));
  const auto pong = wire::parse(ChaosServer::read_line(stream));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));
}

// A v1 instance whose 'p' line declares more vertices than the instance
// has bytes gets a structured error before anything is sized (a million
// declared vertices used to cost the daemon about 95 MiB), and the same
// connection goes on serving.
TEST(ChaosTransport, HugeVertexCountGetsErrorAndConnectionSurvives) {
  ChaosServer fixture;
  std::string error;
  FdStream stream(connect_unix(fixture.path(), &error));
  ASSERT_TRUE(stream.connected()) << error;
  const std::string instance = "p krsp 1000000 0\nq 0 1 1 5\n";
  const std::string line = wire::ObjectWriter()
                               .field("op", "solve")
                               .field("id", "huge-n")
                               .field("instance", instance)
                               .field("mode", "phase1")
                               .done();
  ASSERT_TRUE(stream.send(line + "\n", &error));
  const auto resp = wire::parse(ChaosServer::read_line(stream));
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->get_bool("ok", true));
  EXPECT_EQ(resp->get_string("error"),
            "bad instance: line 1, column 17: vertex count 1000000 exceeds the "
            "input size (27 bytes)");

  ASSERT_TRUE(stream.send("{\"op\":\"ping\"}\n", &error));
  const auto pong = wire::parse(ChaosServer::read_line(stream));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));
  EXPECT_EQ(fixture.service().stats().received, 0u);
}

TEST(ChaosTransport, TruncatedFrameThenCloseIsDiscardedServerStaysUp) {
  ChaosServer fixture;
  const std::string line = solve_line(small_instance(31), "trunc-1");
  {
    std::string error;
    FdStream stream(connect_unix(fixture.path(), &error));
    ASSERT_TRUE(stream.connected()) << error;
    // A prefix with no newline, then close: the partial line must be
    // discarded on EOF — no response, no crash, nothing half-parsed.
    ASSERT_TRUE(stream.send(line.substr(0, line.size() / 2), &error));
  }
  // The server keeps serving new connections and never saw a request.
  const auto pong = wire::parse(fixture.roundtrip("{\"op\":\"ping\"}"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));
  EXPECT_EQ(fixture.service().stats().received, 0u);
}

TEST(ChaosTransport, MidFrameStallIsBufferedAndEventuallyServed) {
  ChaosServer fixture;
  const std::string line = solve_line(small_instance(32), "stall-1") + "\n";
  std::string error;
  FdStream stream(connect_unix(fixture.path(), &error));
  ASSERT_TRUE(stream.connected()) << error;
  const std::size_t cut = line.size() / 3;
  ASSERT_TRUE(stream.send(line.substr(0, cut), &error));
  std::this_thread::sleep_for(50ms);
  ASSERT_TRUE(stream.send(line.substr(cut), &error));
  const auto resp = wire::parse(ChaosServer::read_line(stream));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->get_string("id"), "stall-1");
  EXPECT_TRUE(resp->get_bool("served", false));
}

TEST(ChaosTransport, ResetWithoutReadingResponseLeavesServerAlive) {
  ChaosServer fixture;
  for (int round = 0; round < 3; ++round) {
    std::string error;
    FdStream stream(connect_unix(fixture.path(), &error));
    ASSERT_TRUE(stream.connected()) << error;
    ASSERT_TRUE(
        stream.send(solve_line(small_instance(33), "reset") + "\n", &error));
    stream.close();  // vanish before the response is read
  }
  // Give the connection threads a beat to hit the dead sockets, then
  // prove the server still serves. Peer resets are routine accounting,
  // never unexpected send failures.
  std::this_thread::sleep_for(50ms);
  const auto pong = wire::parse(fixture.roundtrip("{\"op\":\"ping\"}"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));
  EXPECT_EQ(fixture.server().send_failures(), 0u);
}

TEST(ChaosTransport, SlowReadingClientGetsItsResponseLate) {
  ChaosServer fixture;
  std::string error;
  FdStream stream(connect_unix(fixture.path(), &error));
  ASSERT_TRUE(stream.connected()) << error;
  ASSERT_TRUE(stream.send("{\"op\":\"ping\"}\n", &error));
  std::this_thread::sleep_for(100ms);  // stop draining for a while
  const auto pong = wire::parse(ChaosServer::read_line(stream));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));
}

TEST(ChaosTransport, OversizeLineGetsOneErrorThenClose) {
  ChaosServer fixture;
  std::string error;
  FdStream stream(connect_unix(fixture.path(), &error));
  ASSERT_TRUE(stream.connected()) << error;
  // Stream > kMaxLineBytes without a newline. The server must answer
  // with one error line and close — bounded memory, no hang. The write
  // may fail partway once the server closes; that is success too.
  const std::string block(1 << 20, 'x');
  bool write_failed = false;
  for (std::size_t sent = 0; sent <= SocketServer::kMaxLineBytes;
       sent += block.size()) {
    if (!stream.send(block, &error)) {
      write_failed = true;
      break;
    }
  }
  const std::string line = ChaosServer::read_line(stream);
  if (!write_failed) {
    const auto resp = wire::parse(line);
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_FALSE(resp->get_bool("ok", true));
  }
  // Either way the connection is now closed...
  char c;
  EXPECT_EQ(stream.recv(&c, 1, 5000, &error), 0);
  // ...and the server is still healthy.
  const auto pong = wire::parse(fixture.roundtrip("{\"op\":\"ping\"}"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));
}

TEST(ChaosTransport, StartFailuresAreErrorsNotAborts) {
  // Both address families share one socket/bind/listen path; each way it
  // can refuse an endpoint is an error string and a false, and the
  // server stays destructible.
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service);
  const std::string long_path = "/tmp/" + std::string(200, 'x') + ".sock";
  const std::pair<Endpoint, std::string> cases[] = {
      {Endpoint::unix_socket(long_path), "socket path too long"},
      {Endpoint::unix_socket("/nonexistent-dir/x.sock"),
       "bind(/nonexistent-dir/x.sock)"},
      {Endpoint::tcp("127.0.0.1", 0), "takes no host"},
  };
  for (const auto& [endpoint, needle] : cases) {
    SocketServer server(protocol, endpoint);
    std::string error;
    EXPECT_FALSE(server.start(&error)) << endpoint.describe();
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  }
}

// ------------------------------------------ wire-parser property test ---

TEST(ChaosWire, MutatedFramesYieldErrorResponsesNeverCrashes) {
  // Satellite property: seeded random byte mutations of valid frames
  // always produce a parseable response; unparseable input is never
  // "accepted" (ok:true). ASan/UBSan turn memory bugs into failures.
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service);
  const std::vector<std::string> seeds = {
      solve_line(small_instance(41), "mut-1"),
      "{\"op\":\"stats\"}",
      "{\"op\":\"ping\"}",
      wire::ObjectWriter()
          .field("op", "solve")
          .field("id", "mut-2")
          .field("instance", "not an instance")
          .done(),
  };
  util::Rng rng(20260809);
  for (int trial = 0; trial < 400; ++trial) {
    std::string line = seeds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    const int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      line[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.25))  // truncations, too
      line.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()))));

    const std::string response_line = protocol.handle_line(line);
    const auto response = wire::parse(response_line);
    ASSERT_TRUE(response.has_value())
        << "unparseable response " << response_line << " for input " << line;
    if (!wire::parse(line).has_value()) {
      // Garbage in ⇒ explicit error out, never silently accepted.
      EXPECT_FALSE(response->get_bool("ok", true)) << line;
    }
  }
}

// --------------------------------------------- seeded fault schedules ---

/// In-memory ByteStream for determinism tests: records sent bytes.
class MemoryStream final : public ByteStream {
 public:
  bool send(std::string_view data, std::string* /*error*/) override {
    sent.append(data);
    return true;
  }
  ssize_t recv(char* /*buf*/, std::size_t /*len*/, int /*timeout_ms*/,
               std::string* /*error*/) override {
    return kRecvTimeout;
  }
  void close() override { closed = true; }
  [[nodiscard]] bool connected() const override { return !closed; }

  std::string sent;
  bool closed = false;
};

TEST(ChaosFaultyStream, SameSeedReplaysTheExactFaultSchedule) {
  const auto run = [](std::uint64_t seed) {
    MemoryStream inner;
    util::Rng rng(seed);
    FaultOptions options;
    options.fault_rate = 0.5;
    options.stall_ms = 0;  // schedule determinism, not timing
    FaultCounters counters;
    FaultyStream stream(inner, options, &rng, &counters);
    std::vector<FaultKind> schedule;
    std::string error;
    for (int i = 0; i < 64 && !stream.poisoned(); ++i) {
      (void)stream.send("{\"op\":\"ping\"}\n", &error);
      schedule.push_back(stream.last_fault());
    }
    return std::pair(schedule, inner.sent);
  };
  const auto [schedule_a, bytes_a] = run(12345);
  const auto [schedule_b, bytes_b] = run(12345);
  EXPECT_EQ(schedule_a, schedule_b);
  EXPECT_EQ(bytes_a, bytes_b);
  // The mix actually injects: over 64 draws at rate 0.5 at least one
  // fault must fire (p ≈ 1 - 2^-64 even before poisoning cuts it short).
  EXPECT_NE(schedule_a,
            std::vector<FaultKind>(schedule_a.size(), FaultKind::kNone));
}

TEST(ChaosFaultyStream, RateZeroIsBytePerfectPassthrough) {
  MemoryStream inner;
  FaultOptions options;  // fault_rate = 0
  FaultyStream stream(inner, options, nullptr);
  std::string error;
  ASSERT_TRUE(stream.send("hello\n", &error));
  ASSERT_TRUE(stream.send("world\n", &error));
  EXPECT_EQ(inner.sent, "hello\nworld\n");
  EXPECT_FALSE(stream.poisoned());
}

// ------------------------------------------------- client resilience ---

TEST(ChaosClient, IdempotentRequestsAllEventuallySucceedUnderFaults) {
  ChaosServer fixture;
  // Oracle: direct solves of the request pool.
  std::vector<api::Instance> pool;
  std::vector<api::SolveResult> oracle;
  for (int i = 0; i < 3; ++i) {
    pool.push_back(small_instance(50 + static_cast<std::uint64_t>(i)));
    api::SolveRequest req;
    req.instance = pool.back();
    req.mode = api::Mode::kExactWeights;
    oracle.push_back(api::Solver::solve(req));
  }

  RetryOptions retry;
  retry.max_retries = 16;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 20;
  retry.request_timeout_ms = 5000;
  FaultOptions faults;
  faults.seed = 99;
  faults.fault_rate = 0.3;
  faults.stall_ms = 5;
  ResilientClient client(Endpoint::unix_socket(fixture.path()), retry,
                         faults);

  for (int r = 0; r < 24; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) % pool.size();
    const std::string id = "chaos-" + std::to_string(i);
    std::string response_line;
    std::string error;
    ASSERT_TRUE(client.request(solve_line(pool[i], id), id,
                               /*idempotent=*/true, &response_line, &error))
        << "request " << r << ": " << error;
    const auto resp = wire::parse(response_line);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->get_string("id"), id);
    ASSERT_TRUE(resp->get_bool("served", false)) << response_line;
    // Bit-identical to the direct solve — retries and cache replays
    // included.
    EXPECT_EQ(resp->get_string("status"), api::status_name(oracle[i].status));
    EXPECT_EQ(resp->get_int("cost", -1), oracle[i].cost);
    EXPECT_EQ(resp->get_int("delay", -1), oracle[i].delay);
  }
  const ClientCounters& counters = client.counters();
  EXPECT_EQ(counters.give_ups, 0u);
  // Rate 0.3 over ≥24 sends: the schedule injected something, and the
  // client survived every poisoned stream by reconnecting.
  EXPECT_GT(counters.faults.injected, 0u);
  EXPECT_EQ(counters.attempts, 24u + counters.retries);
}

TEST(ChaosClient, NonIdempotentRequestIsNeverRetriedAfterPossibleDelivery) {
  ChaosServer fixture;
  RetryOptions retry;
  retry.max_retries = 8;
  retry.base_backoff_ms = 1;
  FaultOptions faults;
  faults.fault_rate = 1.0;  // every send faults...
  faults.p_truncate = 1.0;  // ...with a mid-frame truncate
  faults.p_garbage = faults.p_stall = faults.p_reset = faults.p_slow_read =
      0.0;
  ResilientClient client(Endpoint::unix_socket(fixture.path()), retry,
                         faults);
  std::string response_line;
  std::string error;
  EXPECT_FALSE(client.request(solve_line(small_instance(60), "once"), "once",
                              /*idempotent=*/false, &response_line, &error));
  // At-most-once: exactly one attempt, no retries, an explicit reason.
  EXPECT_EQ(client.counters().attempts, 1u);
  EXPECT_EQ(client.counters().retries, 0u);
  EXPECT_NE(error.find("non-idempotent"), std::string::npos) << error;
}

TEST(ChaosClient, RetriesExhaustedReportsGiveUpWithAccounting) {
  ChaosServer fixture;
  RetryOptions retry;
  retry.max_retries = 2;
  retry.base_backoff_ms = 1;
  FaultOptions faults;
  faults.fault_rate = 1.0;  // every send resets: nothing can succeed
  faults.p_reset = 1.0;
  faults.p_garbage = faults.p_stall = faults.p_truncate = faults.p_slow_read =
      0.0;
  ResilientClient client(Endpoint::unix_socket(fixture.path()), retry,
                         faults);
  std::string response_line;
  std::string error;
  EXPECT_FALSE(client.request("{\"op\":\"ping\"}", "",
                              /*idempotent=*/true, &response_line, &error));
  EXPECT_EQ(client.counters().attempts, 3u);  // 1 + max_retries
  EXPECT_EQ(client.counters().retries, 2u);
  EXPECT_EQ(client.counters().give_ups, 1u);
  EXPECT_GE(client.counters().reconnects, 2u);
  EXPECT_NE(error.find("retries exhausted"), std::string::npos) << error;
}

}  // namespace
}  // namespace krsp::server
