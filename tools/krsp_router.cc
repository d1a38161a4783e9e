// Fleet front tier: routes solve traffic across N krsp_serve shards.
//
//   $ krsp_router --socket=/tmp/krsp-router.sock
//                 --shards=/tmp/shard-a.sock,127.0.0.1:4701
//                 [--catalog=DIR] [--vnodes=128] [--probe-interval-ms=200]
//                 [--mark-down-after=3] [--mark-up-after=2]
//                 [--forward-timeout-ms=0] [--forward-retries=0]
//                 [--drain-wait-ms=5000] [--quiet]
//   $ krsp_router --tcp=4700 --shards=... [...]   # TCP listener instead
//
// --shards is a comma-separated endpoint list; entries containing a '/'
// are Unix socket paths, host:port entries are TCP (server/fault.h
// Endpoint::parse). The router speaks the same newline-framed JSON wire
// as a shard, so krsp_loadgen and every other client point at it
// unchanged; solve responses gain an optional "served_by" field naming
// the shard that answered.
//
// Routing is consistent-hash affinity over request fingerprints (see
// src/router/router.h): give the router the same --catalog directory as
// the shards so v2 topology requests fingerprint identically to their v1
// forms and shard caches stay hot across both. Health: a background
// prober sweeps every shard's stats op; shards mark down after
// --mark-down-after consecutive failures (probe or refused forward) and
// rejoin after --mark-up-after consecutive probe successes. Operators
// drain a shard with {"op":"drain","shard":"<name>"} — fence, rebalance,
// quiesce, then the shard gets the wire shutdown op.
//
// Like krsp_serve, --tcp=0 announces its kernel-picked port as
//   {"event":"listening","transport":"tcp","port":NNNN}
// and SIGTERM/SIGINT (or a shutdown op) begins a graceful drain, ending
// with one {"event":"final_stats",...} line on stdout: every field of the
// router's stats op (the same writer produces both: ring membership,
// per-shard health, ring shares and forward counters) plus the
// transport's connections, peer_resets and send_failures.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <vector>

#include "router/router.h"
#include "server/wire.h"
#include "store/catalog.h"
#include "util/cli.h"

namespace {

constexpr char kUsage[] =
    "usage: krsp_router --socket=<path>|--tcp=<port> --shards=ep1,ep2,... "
    "[--catalog=<dir>] [--vnodes=128] [--probe-interval-ms=200] "
    "[--mark-down-after=3] [--mark-up-after=2] [--forward-timeout-ms=0] "
    "[--forward-retries=0] [--drain-wait-ms=5000] [--quiet]  (exactly one "
    "of --socket / --tcp; shard endpoints are socket paths or host:port)";

krsp::server::SocketServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int run(int argc, char** argv) {
  using namespace krsp;
  const util::Cli cli(argc, argv);
  const std::string socket_path = cli.get_string("socket", "");
  const std::int64_t tcp_port = cli.get_int("tcp", -1);
  const std::string shards_arg = cli.get_string("shards", "");
  const std::string catalog_dir = cli.get_string("catalog", "");
  router::RouterOptions options;
  options.vnodes = static_cast<int>(cli.get_int("vnodes", options.vnodes));
  options.probe_interval_ms = static_cast<int>(
      cli.get_int("probe-interval-ms", options.probe_interval_ms));
  options.mark_down_after = static_cast<int>(
      cli.get_int("mark-down-after", options.mark_down_after));
  options.mark_up_after =
      static_cast<int>(cli.get_int("mark-up-after", options.mark_up_after));
  options.forward_timeout_ms =
      cli.get_double("forward-timeout-ms", options.forward_timeout_ms);
  options.forward_retries = static_cast<int>(
      cli.get_int("forward-retries", options.forward_retries));
  options.drain_wait_ms =
      cli.get_double("drain-wait-ms", options.drain_wait_ms);
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  const bool use_tcp = tcp_port >= 0;
  std::vector<server::Endpoint> endpoints;
  std::istringstream shard_list(shards_arg);
  for (std::string spec; std::getline(shard_list, spec, ',');)
    if (!spec.empty()) endpoints.push_back(server::Endpoint::parse(spec));
  if (socket_path.empty() == !use_tcp || tcp_port > 65535 ||
      endpoints.empty() || options.vnodes < 1) {
    std::cerr << kUsage << "\n";
    return 2;
  }

  // Same fail-fast contract as krsp_serve: routing on a partial catalog
  // would silently degrade v2 affinity.
  store::TopologyCatalog catalog;
  if (!catalog_dir.empty()) {
    try {
      catalog = store::TopologyCatalog::load(catalog_dir);
    } catch (const std::exception& e) {
      std::cerr << "krsp_router: --catalog: " << e.what() << "\n";
      return 1;
    }
  }

  router::Router router(endpoints, catalog.empty() ? nullptr : &catalog,
                        options);
  server::SocketServer socket_server(
      router,
      use_tcp ? server::Endpoint::tcp("", static_cast<std::uint16_t>(tcp_port))
              : server::Endpoint::unix_socket(socket_path));
  std::string error;
  if (!socket_server.start(&error)) {
    std::cerr << "krsp_router: " << error << "\n";
    return 1;
  }
  if (use_tcp) {
    server::wire::ObjectWriter w;
    w.field("event", "listening");
    w.field("transport", "tcp");
    w.field("port", static_cast<std::int64_t>(socket_server.bound_port()));
    std::cout << w.done() << "\n" << std::flush;
  }

  g_server = &socket_server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!quiet) {
    std::cout << "krsp_router: listening on "
              << (use_tcp ? "tcp port " +
                                std::to_string(socket_server.bound_port())
                          : socket_path)
              << ", fronting " << router.num_shards() << " shard(s):";
    for (std::size_t i = 0; i < router.num_shards(); ++i)
      std::cout << ' ' << router.shard(i).name();
    std::cout << "\n" << std::flush;
  }

  router.start_probing();
  socket_server.serve_forever();  // returns after shutdown op / signal
  router.stop();
  g_server = nullptr;

  // Terminal accounting, mirroring krsp_serve's final_stats contract.
  {
    server::wire::ObjectWriter w;
    w.field("event", "final_stats");
    router.stats_fields(w);
    w.field("connections", socket_server.connections_accepted());
    w.field("peer_resets", socket_server.peer_resets());
    w.field("send_failures", socket_server.send_failures());
    std::cout << w.done() << "\n" << std::flush;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
