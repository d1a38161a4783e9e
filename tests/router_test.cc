// End-to-end tests of the fleet front tier (router/router.h): routed
// responses bit-identical to direct shard responses, v1/v2 cross-form
// shard affinity, refused-at-connect failover, the health state machine
// under probes, the drain op, and the TCP transport round trip. Real
// SocketServers on per-test /tmp sockets back every shard; the Router is
// driven through its LineHandler surface exactly as krsp_router drives
// it. Suites are named Router* so the CI TSan leg's -R filter includes
// them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "router/router.h"
#include "server/client.h"
#include "server/fault.h"
#include "server/transport.h"
#include "server/wire.h"
#include "store/catalog.h"
#include "store/container.h"
#include "util/check.h"
#include "util/rng.h"

namespace krsp::router {
namespace {

using server::wire::Value;

api::Instance small_instance(std::uint64_t seed, int n = 12) {
  util::Rng rng(seed);
  api::RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = 0.3;
  const auto inst = api::random_er_instance(rng, n, 0.35, opt);
  KRSP_CHECK_MSG(inst.has_value(), "seed " << seed << " drew no instance");
  return *inst;
}

std::string inline_line(const api::Instance& inst, const std::string& id) {
  std::ostringstream kri;
  api::write_instance(kri, inst);
  return server::wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("instance", kri.str())
      .field("mode", "exact")
      .done();
}

/// Removes the nondeterministic timing fields and the router-injected
/// served_by field so routed and direct response lines compare with
/// operator== — the bit-identity contract modulo documented additions.
std::string strip_variable(std::string line) {
  for (const char* key :
       {"\"queue_ms\":", "\"total_ms\":", "\"served_by\":"}) {
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    // The values (numbers, socket-path strings) contain no ',' or '}'.
    const std::size_t end = line.find_first_of(",}", pos + std::strlen(key));
    KRSP_CHECK(end != std::string::npos);
    KRSP_CHECK(pos > 0 && line[pos - 1] == ',');
    line.erase(pos - 1, end - (pos - 1));
  }
  return line;
}

/// One in-process shard: a real SolveService behind a real SocketServer
/// on an explicit Unix socket path, with its own accept thread.
class TestShard {
 public:
  explicit TestShard(std::string path,
                     const store::TopologyCatalog* catalog = nullptr,
                     api::ServerOptions options = {.num_threads = 1})
      : path_(std::move(path)),
        service_(options),
        protocol_(service_, catalog),
        server_(protocol_, endpoint()) {
    std::string error;
    KRSP_CHECK_MSG(server_.start(&error), "start: " << error);
    accept_thread_ = std::thread([this] { server_.serve_forever(); });
  }
  ~TestShard() {
    server_.request_stop();
    accept_thread_.join();
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] server::Endpoint endpoint() const {
    return server::Endpoint::unix_socket(path_);
  }
  [[nodiscard]] std::string name() const { return endpoint().describe(); }
  [[nodiscard]] server::SolveService& service() { return service_; }

 private:
  std::string path_;
  server::SolveService service_;
  server::Protocol protocol_;
  server::SocketServer server_;
  std::thread accept_thread_;
};

std::string make_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/krsp_router_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

RouterOptions manual_probe_options() {
  RouterOptions options;
  options.probe_interval_ms = 0;  // tests drive probe_all() by hand
  options.mark_down_after = 2;
  options.mark_up_after = 2;
  return options;
}

// ------------------------------------------------------- bit identity ---

TEST(RouterTest, RoutedSolveIsBitIdenticalToDirectAndNamesItsShard) {
  TestShard shard(make_path("ident"));
  Router router({shard.endpoint()}, nullptr, manual_probe_options());

  // Direct oracle from a *fresh* service so no cache crosses the sides.
  server::SolveService direct_service(api::ServerOptions{.num_threads = 1});
  server::Protocol direct(direct_service);

  for (std::uint64_t seed : {201, 202, 203}) {
    const api::Instance inst = small_instance(seed);
    const std::string line =
        inline_line(inst, "ident-" + std::to_string(seed));
    const std::string routed = router.handle_line(line);
    const std::string expected = direct.handle_line(line);
    EXPECT_EQ(strip_variable(routed), strip_variable(expected));
    const auto parsed = server::wire::parse(routed);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->get_bool("served", false)) << routed;
    EXPECT_EQ(parsed->get_string("served_by"), shard.name());
  }
  EXPECT_EQ(router.requests_routed(), 3u);
}

// ---------------------------------------------------- cross-form keys ---

TEST(RouterTest, V1AndV2FormsOfOneQueryShareOneRingKey) {
  const api::Instance inst = small_instance(301);
  const std::string dir =
      testing::TempDir() + "/router_affinity_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  store::CsrContainer::write_file(dir + "/net.krspb", inst);
  const store::TopologyCatalog catalog = store::TopologyCatalog::load(dir);

  TestShard shard(make_path("affinity"), &catalog);
  Router router({shard.endpoint()}, &catalog, manual_probe_options());

  const std::string v1 = inline_line(inst, "id-a");
  const std::string v2 = server::wire::ObjectWriter()
                             .field("op", "solve")
                             .field("id", "id-b")
                             .field("topology", "net")
                             .field("mode", "exact")
                             .done();
  // Same query, both wire forms, different ids: one ring key, so the
  // owning shard's cache serves both.
  EXPECT_EQ(router.route_key(v1), router.route_key(v2));

  // A router with no catalog cannot lower the v2 form; the fallback key
  // differs, but it is still deterministic.
  Router blind({shard.endpoint()}, nullptr, manual_probe_options());
  EXPECT_EQ(blind.route_key(v2), blind.route_key(v2));
  EXPECT_EQ(blind.route_key(v1), router.route_key(v1));

  // End to end: the v1 solve warms the shard cache, the v2 solve hits it
  // through the router.
  const auto warm = server::wire::parse(router.handle_line(v1));
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->get_bool("served", false));
  const auto hit = server::wire::parse(router.handle_line(v2));
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->get_bool("served", false));
  EXPECT_TRUE(hit->get_bool("cache_hit", false));
}

TEST(RouterTest, RingKeyIgnoresTheRequestId) {
  TestShard shard(make_path("ids"));
  Router router({shard.endpoint()}, nullptr, manual_probe_options());
  const api::Instance inst = small_instance(305);
  EXPECT_EQ(router.route_key(inline_line(inst, "first")),
            router.route_key(inline_line(inst, "second")));
  // ...but different queries get different keys (with overwhelming
  // probability; these two are fixed, so this is deterministic).
  EXPECT_NE(router.route_key(inline_line(small_instance(306), "x")),
            router.route_key(inline_line(inst, "x")));
}

// ------------------------------------------------------------ failover ---

TEST(RouterTest, RefusedShardFailsOverAndMarksDown) {
  TestShard live(make_path("live"));
  // A never-bound socket path: every connect refuses (ENOENT), nothing
  // is ever delivered.
  const server::Endpoint dead =
      server::Endpoint::unix_socket(make_path("dead"));
  Router router({live.endpoint(), dead}, nullptr, manual_probe_options());
  ASSERT_EQ(router.ring_size(), 2u);

  // Enough distinct queries that some hash to the dead shard; every one
  // must still succeed via the ring walk.
  for (std::uint64_t seed = 400; seed < 410; ++seed) {
    const auto resp = server::wire::parse(
        router.handle_line(inline_line(small_instance(seed), "f")));
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->get_bool("served", false));
    EXPECT_EQ(resp->get_string("served_by"), live.name());
  }
  const Shard& dead_shard = router.shard(1);
  EXPECT_GT(dead_shard.forwards_refused(), 0u);
  // mark_down_after = 2 refusals: the dead shard left the ring, so new
  // requests no longer pay the connect attempt.
  EXPECT_EQ(dead_shard.state(), ShardState::kDown);
  EXPECT_EQ(router.ring_size(), 1u);
  EXPECT_EQ(router.no_shard_errors(), 0u);
}

TEST(RouterTest, RefusedConnectFailsOverEvenForNonIdempotentRequests) {
  TestShard live(make_path("live2"));
  const server::Endpoint dead =
      server::Endpoint::unix_socket(make_path("dead2"));
  Router router({live.endpoint(), dead}, nullptr, manual_probe_options());

  // Deadline-bounded (non-idempotent) solves: refused-at-connect means
  // nothing was delivered, so the walk continues and they all serve.
  for (std::uint64_t seed = 420; seed < 428; ++seed) {
    std::ostringstream kri;
    api::write_instance(kri, small_instance(seed));
    const std::string line = server::wire::ObjectWriter()
                                 .field("op", "solve")
                                 .field("id", "nid")
                                 .field("instance", kri.str())
                                 .field("mode", "exact")
                                 .field("deadline", 30.0)
                                 .done();
    const auto resp = server::wire::parse(router.handle_line(line));
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->get_bool("served", false));
    EXPECT_EQ(resp->get_string("served_by"), live.name());
  }
}

TEST(RouterTest, NoShardAvailableIsAStructuredError) {
  const server::Endpoint dead =
      server::Endpoint::unix_socket(make_path("dead3"));
  Router router({dead}, nullptr, manual_probe_options());
  const auto resp = server::wire::parse(
      router.handle_line(inline_line(small_instance(430), "lost")));
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->get_bool("ok", true));
  EXPECT_NE(resp->get_string("error").find("no shard available"),
            std::string::npos);
  EXPECT_EQ(resp->get_string("id"), "lost");
  EXPECT_EQ(router.no_shard_errors(), 1u);
}

// ------------------------------------------------------- health probes ---

TEST(RouterTest, ProbesMarkDownAndRecoverWithHysteresis) {
  const std::string path = make_path("flap");
  const server::Endpoint ep = server::Endpoint::unix_socket(path);
  Router router({ep}, nullptr, manual_probe_options());
  const Shard& shard = router.shard(0);

  // Nothing listens yet: mark_down_after = 2 failed probes take the
  // shard out; one is not enough (hysteresis).
  router.probe_all();
  EXPECT_EQ(shard.state(), ShardState::kUp);
  router.probe_all();
  EXPECT_EQ(shard.state(), ShardState::kDown);
  EXPECT_EQ(router.ring_size(), 0u);

  // Boot the real server on that exact path: mark_up_after = 2 good
  // probes bring it back, and the recovery is counted.
  TestShard revived(path);
  router.probe_all();
  EXPECT_EQ(shard.state(), ShardState::kDown);
  router.probe_all();
  EXPECT_EQ(shard.state(), ShardState::kUp);
  EXPECT_EQ(router.ring_size(), 1u);
  EXPECT_EQ(shard.recoveries(), 1u);
  EXPECT_GT(shard.ewma_probe_ms(), 0.0);

  const auto resp = server::wire::parse(
      router.handle_line(inline_line(small_instance(440), "back")));
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->get_bool("served", false));
}

// ---------------------------------------------------------------- drain ---

TEST(RouterTest, DrainFencesTheShardAndTrafficRebalances) {
  TestShard a(make_path("drain_a"));
  TestShard b(make_path("drain_b"));
  RouterOptions options = manual_probe_options();
  options.drain_wait_ms = 2000.0;
  Router router({a.endpoint(), b.endpoint()}, nullptr, options);
  ASSERT_EQ(router.ring_size(), 2u);

  const auto drained = server::wire::parse(router.handle_line(
      server::wire::ObjectWriter()
          .field("op", "drain")
          .field("shard", a.name())
          .done()));
  ASSERT_TRUE(drained.has_value());
  EXPECT_TRUE(drained->get_bool("ok", false));
  EXPECT_TRUE(drained->get_bool("drained", false));
  EXPECT_TRUE(drained->get_bool("quiesced", false));
  EXPECT_EQ(router.shard(0).state(), ShardState::kDraining);
  EXPECT_EQ(router.ring_size(), 1u);

  // Every subsequent solve lands on the survivor.
  for (std::uint64_t seed = 450; seed < 456; ++seed) {
    const auto resp = server::wire::parse(
        router.handle_line(inline_line(small_instance(seed), "post")));
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->get_bool("served", false));
    EXPECT_EQ(resp->get_string("served_by"), b.name());
  }

  // Draining an unknown name is a structured error, not a crash.
  const auto unknown = server::wire::parse(router.handle_line(
      "{\"op\":\"drain\",\"shard\":\"nope\"}"));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_FALSE(unknown->get_bool("ok", true));
  EXPECT_NE(unknown->get_string("error").find("unknown shard"),
            std::string::npos);
  const auto missing = server::wire::parse(router.handle_line(
      "{\"op\":\"drain\"}"));
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(missing->get_bool("ok", true));
}

// ------------------------------------------------------- control plane ---

TEST(RouterTest, StatsMetricsPingAndErrorsMatchTheWireContract) {
  TestShard shard(make_path("ctl"));
  Router router({shard.endpoint()}, nullptr, manual_probe_options());

  const auto stats =
      server::wire::parse(router.handle_line("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->get_bool("ok", false));
  EXPECT_TRUE(stats->get_bool("router", false));
  EXPECT_EQ(stats->get_int("shards", 0), 1);
  EXPECT_EQ(stats->get_int("ring_shards", 0), 1);
  EXPECT_EQ(stats->get_int("vnodes", 0), HashRing::kDefaultVnodes);
  const Value* shard_stats = stats->find("shard_stats");
  ASSERT_NE(shard_stats, nullptr);
  ASSERT_EQ(shard_stats->type, Value::Type::kArray);
  ASSERT_EQ(shard_stats->items.size(), 1u);
  EXPECT_EQ(shard_stats->items[0].get_string("name"), shard.name());
  EXPECT_EQ(shard_stats->items[0].get_string("state"), "up");
  EXPECT_NEAR(shard_stats->items[0].get_number("keyspace_share", 0.0), 1.0,
              1e-12);

  const auto metrics =
      server::wire::parse(router.handle_line("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(metrics->get_bool("ok", false));
  EXPECT_NE(metrics->get_string("metrics").find("krsp_"), std::string::npos);

  const auto pong =
      server::wire::parse(router.handle_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));

  // Error strings mirror a shard's Protocol byte for byte, so clients
  // cannot tell a router from a shard by its failure shapes.
  const auto bad = server::wire::parse(router.handle_line("!!garbage"));
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->get_string("error").find("bad json"), std::string::npos);
  const auto not_obj = server::wire::parse(router.handle_line("[1,2]"));
  ASSERT_TRUE(not_obj.has_value());
  EXPECT_EQ(not_obj->get_string("error"), "request must be a json object");
  const auto unknown =
      server::wire::parse(router.handle_line("{\"op\":\"nope\"}"));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->get_string("error"), "unknown op: nope");

  const auto bye =
      server::wire::parse(router.handle_line("{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(bye->get_bool("draining", false));
  EXPECT_TRUE(router.shutdown_requested());
}

TEST(RouterTest, TopologyDiscoveryIsForwardedToAShard) {
  const api::Instance inst = small_instance(460);
  const std::string dir =
      testing::TempDir() + "/router_topo_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  store::CsrContainer::write_file(dir + "/net.krspb", inst);
  const store::TopologyCatalog catalog = store::TopologyCatalog::load(dir);

  TestShard shard(make_path("topo"), &catalog);
  Router router({shard.endpoint()}, &catalog, manual_probe_options());

  const auto listing =
      server::wire::parse(router.handle_line("{\"op\":\"topologies\"}"));
  ASSERT_TRUE(listing.has_value());
  EXPECT_TRUE(listing->get_bool("ok", false)) << "topologies via router";
  const auto one = server::wire::parse(
      router.handle_line("{\"op\":\"topology\",\"id\":\"net\"}"));
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->get_bool("ok", false)) << "topology via router";
}

// ------------------------------------------------------- TCP transport ---

TEST(RouterTcp, TcpShardServesTheSameWireAsUnix) {
  server::SolveService service(api::ServerOptions{.num_threads = 1});
  server::Protocol protocol(service);
  server::SocketServer tcp_server(protocol, server::Endpoint::tcp("", 0));
  std::string error;
  ASSERT_TRUE(tcp_server.start(&error)) << error;
  ASSERT_GT(tcp_server.bound_port(), 0);
  std::thread accept_thread([&] { tcp_server.serve_forever(); });

  const server::Endpoint ep =
      server::Endpoint::tcp("127.0.0.1", tcp_server.bound_port());
  server::ResilientClient client(ep);
  std::string response_line;
  ASSERT_TRUE(client.request("{\"op\":\"ping\"}", "", true, &response_line,
                             &error))
      << error;
  const auto pong = server::wire::parse(response_line);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->get_bool("pong", false));

  // A routed solve over TCP is bit-identical to the direct solve.
  server::SolveService direct_service(api::ServerOptions{.num_threads = 1});
  server::Protocol direct(direct_service);
  Router router({ep}, nullptr, manual_probe_options());
  const std::string line = inline_line(small_instance(470), "tcp-1");
  const std::string routed = router.handle_line(line);
  EXPECT_EQ(strip_variable(routed), strip_variable(direct.handle_line(line)));
  const auto parsed = server::wire::parse(routed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_string("served_by"), ep.describe());

  tcp_server.request_stop();
  accept_thread.join();
}

TEST(RouterTcp, EndpointParseClassifiesSpecs) {
  const auto unix_ep = server::Endpoint::parse("/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, server::Endpoint::Kind::kUnixSocket);
  EXPECT_EQ(unix_ep.describe(), "unix:/tmp/x.sock");
  const auto tcp_ep = server::Endpoint::parse("127.0.0.1:4701");
  EXPECT_EQ(tcp_ep.kind, server::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep.host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 4701);
  EXPECT_EQ(tcp_ep.describe(), "tcp:127.0.0.1:4701");
  // A slash wins: this is a path even though it ends in :digits.
  EXPECT_EQ(server::Endpoint::parse("/tmp/odd:123").kind,
            server::Endpoint::Kind::kUnixSocket);
  // No port digits: a bare name is a (relative) socket path.
  EXPECT_EQ(server::Endpoint::parse("localhost").kind,
            server::Endpoint::Kind::kUnixSocket);
}

}  // namespace
}  // namespace krsp::router
