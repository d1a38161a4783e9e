// Long-running solve service over a Unix-domain socket or TCP.
//
//   $ krsp_serve --socket=/tmp/krsp.sock [--catalog=DIR] [--threads=0]
//                [--max-pending=256] [--max-pending-batch=0]
//                [--degrade-wait=0] [--cache-capacity=1024]
//                [--cache-shards=8] [--trace-out=FILE] [--trace-sample=1]
//                [--quiet]
//   $ krsp_serve --tcp=4701 [...]          # TCP listener instead
//
// Each tuning flag sets one api::ServerOptions field (--cache-capacity=0
// turns the result cache off); a negative count is a usage error.
//
// --tcp=PORT listens on TCP instead of a Unix socket (the fleet-shard
// transport behind krsp_router; same wire bytes either way). --tcp=0
// binds an ephemeral port; the resolved port is always announced on
// stdout as a machine-parseable line —
//   {"event":"listening","transport":"tcp","port":NNNN}
// — even with --quiet, so harnesses (fleet_smoke.sh) can discover it.
//
// --trace-out=FILE enables the obs tracer for the whole run and, after
// the drain, writes every captured span (solve phases, queue waits,
// cache lookups, admission decisions, wire handling) as Chrome
// trace-event JSON — load it in chrome://tracing or ui.perfetto.dev.
// --trace-sample=N keeps every Nth span per thread to bound the buffer
// on long runs. Live metrics are always on: the {"op":"metrics"} wire op
// returns the Prometheus-style exposition at any time.
//
// --catalog=DIR mmaps every `.krspb` container in DIR at startup
// (store/catalog.h) and enables the protocol-v2 topology surface:
// clients may send {"op":"solve","topology":"<id>",...} instead of an
// inline instance, plus {"op":"topologies"} / {"op":"topology"} for
// discovery. A bad container fails startup loudly; an unknown id at
// runtime is a per-request error response.
//
// Speaks the newline-framed JSON protocol of server/transport.h: clients
// connect, write one JSON request per line, and read one JSON response per
// line (see krsp_loadgen for a conforming client). The process runs until
// a client sends {"op":"shutdown"} or it receives SIGINT/SIGTERM, then
// drains gracefully: no new work is admitted, every in-flight solve
// finishes and is answered, and a final structured stats line —
//   {"event":"final_stats","protocol_version":2,"solves_v1":...,...}
// — is emitted on stdout (always, even with --quiet) so supervisors and
// the chaos harness can scrape the terminal accounting of the run. It
// carries every field of the stats op (the same writer produces both)
// plus catalog_topologies and the transport's connections, peer_resets
// and send_failures.
//
// SLA tiering: --max-pending-batch caps the batch class below the global
// --max-pending (0 = batch may use the whole queue); --degrade-wait > 0
// arms the interactive overload ladder (predicted waits at or above it
// serve solves with eps doubled up to 1 and the doubling cap search
// instead of rejecting). A deadline-bounded request whose predicted
// queue wait already exhausts its deadline is always rejected up front.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>

#include "obs/export.h"
#include "obs/trace.h"
#include "server/transport.h"
#include "server/wire.h"
#include "store/catalog.h"
#include "util/cli.h"

namespace {

constexpr char kUsage[] =
    "usage: krsp_serve --socket=<path>|--tcp=<port> [--catalog=<dir>] "
    "[--threads=0] [--max-pending=256] [--max-pending-batch=0] "
    "[--degrade-wait=0] [--cache-capacity=1024] [--cache-shards=8] "
    "[--trace-out=FILE] [--trace-sample=1] [--quiet]  (exactly one of "
    "--socket / --tcp; counts are >= 0)";

krsp::server::SocketServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int run(int argc, char** argv) {
  using namespace krsp;
  const util::Cli cli(argc, argv);
  const std::string socket_path = cli.get_string("socket", "");
  const std::int64_t tcp_port = cli.get_int("tcp", -1);
  const std::string catalog_dir = cli.get_string("catalog", "");
  api::ServerOptions options;
  options.num_threads = static_cast<int>(cli.get_int("threads", 0));
  options.max_pending =
      static_cast<std::size_t>(cli.get_count("max-pending", 256));
  options.max_pending_batch =
      static_cast<std::size_t>(cli.get_count("max-pending-batch", 0));
  options.degrade_wait_seconds = cli.get_double("degrade-wait", 0.0);
  options.cache_capacity =
      static_cast<std::size_t>(cli.get_count("cache-capacity", 1024));
  options.cache_shards = static_cast<int>(
      cli.get_count("cache-shards", 8, std::numeric_limits<int>::max()));
  const std::string trace_out = cli.get_string("trace-out", "");
  const auto trace_sample = cli.get_int("trace-sample", 1);
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  const bool use_tcp = tcp_port >= 0;
  if (socket_path.empty() == !use_tcp || tcp_port > 65535) {
    std::cerr << kUsage << "\n";
    return 2;
  }

  if (!trace_out.empty()) {
    obs::Tracer::global().set_sample_every(
        static_cast<std::uint32_t>(std::max<std::int64_t>(1, trace_sample)));
    obs::Tracer::global().enable();
  }

  // Fail fast on a bad catalog: a daemon serving a partial or corrupt
  // topology set is worse than one that refuses to start.
  store::TopologyCatalog catalog;
  if (!catalog_dir.empty()) {
    try {
      catalog = store::TopologyCatalog::load(catalog_dir);
    } catch (const std::exception& e) {
      std::cerr << "krsp_serve: --catalog: " << e.what() << "\n";
      return 1;
    }
  }

  server::SolveService service(options);
  server::Protocol protocol(service, &catalog);
  server::SocketServer socket_server(
      protocol,
      use_tcp ? server::Endpoint::tcp("", static_cast<std::uint16_t>(tcp_port))
              : server::Endpoint::unix_socket(socket_path));
  std::string error;
  if (!socket_server.start(&error)) {
    std::cerr << "krsp_serve: " << error << "\n";
    return 1;
  }
  // Machine-parseable bind announcement: with --tcp=0 the kernel picked
  // the port and this line is the only way a harness learns it.
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
  // The transport writes with MSG_NOSIGNAL, but ignore SIGPIPE anyway so
  // a client that disconnects before reading its response can never kill
  // the daemon through some other write path.
  std::signal(SIGPIPE, SIG_IGN);

  if (!quiet)
    std::cout << "krsp_serve: listening on "
              << (use_tcp ? "tcp port " +
                                std::to_string(socket_server.bound_port())
                          : socket_path)
              << " with "
              << service.num_threads() << " worker thread(s), cache "
              << (options.cache_capacity > 0
                      ? std::to_string(options.cache_capacity) + " entries"
                      : std::string("off"))
              << ", max pending " << options.max_pending << ", catalog "
              << (catalog.empty() ? std::string("off")
                                  : std::to_string(catalog.size()) +
                                        " topolog" +
                                        (catalog.size() == 1 ? "y" : "ies"))
              << "\n"
              << std::flush;

  socket_server.serve_forever();  // returns after shutdown op / signal
  service.drain();
  g_server = nullptr;

  // Terminal accounting: one JSON line, machine-parseable, emitted
  // unconditionally so a supervisor scraping stdout always gets the
  // final counters after SIGTERM/drain: the stats op's fields (the
  // solves_v1/solves_v2 split lets a fleet rollout verify v2 uptake
  // shard by shard), then what only the process knows.
  {
    server::wire::ObjectWriter w;
    w.field("event", "final_stats");
    protocol.stats_fields(w);
    w.field("catalog_topologies", static_cast<std::uint64_t>(catalog.size()));
    w.field("connections", socket_server.connections_accepted());
    w.field("peer_resets", socket_server.peer_resets());
    w.field("send_failures", socket_server.send_failures());
    std::cout << w.done() << "\n" << std::flush;
  }

  if (!trace_out.empty()) {
    std::string trace_error;
    if (!obs::write_chrome_trace_file(trace_out, &trace_error)) {
      std::cerr << "krsp_serve: --trace-out: " << trace_error << "\n";
      return 1;
    }
    if (!quiet)
      std::cout << "krsp_serve: wrote trace to " << trace_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
