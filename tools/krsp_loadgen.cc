// Load generator / conformance client for krsp_serve and krsp_router.
//
//   $ krsp_loadgen --socket=/tmp/krsp.sock [--requests=64] [--connections=4]
//                  [--rate=0] [--pool=8] [--n=12] [--k=2] [--seed=17]
//                  [--topology=id1,id2,...] [--catalog=DIR]
//                  [--mode=exact] [--eps1=0.25] [--eps2=0.25]
//                  [--deadline=0] [--class=batch]
//                  [--retries=0] [--retry-base-ms=10] [--retry-max-ms=500]
//                  [--retry-budget-ms=0] [--timeout-ms=0]
//                  [--fault-rate=0] [--fault-seed=1]
//                  [--latency-out=FILE]
//                  [--check] [--stats] [--shutdown] [--quiet]
//   $ krsp_loadgen --connect=127.0.0.1:4700 [...]   # TCP (router/shard)
//
// --connect=host:port dials TCP instead of a Unix socket — the same wire
// either way, so it works against a TCP krsp_serve shard or a
// krsp_router front tier (exactly one of --socket / --connect).
//
// --latency-out writes one CSV row per request (header:
// request,connection,pool,outcome,latency_ms,cache_hit,degraded,shard)
// so tail behavior can be analyzed offline instead of through the
// summary percentiles; latency is measured from the scheduled arrival,
// exactly as the printed p50/p95/p99 are. The shard column carries the
// router-injected "served_by" response field (empty when talking to a
// single krsp_serve directly — only routers inject it).
//
// Generates a pool of seeded random instances, serializes each once, and
// issues solve requests round-robin over the pool across N connections.
// --topology switches the pool to protocol-v2 requests referencing the
// named catalog entries of a server started with krsp_serve --catalog;
// each request line then carries a few dozen bytes instead of the whole
// edge list. With --check, --catalog=DIR names the same container
// directory so the reference solves run on the locally mmap'd instances
// (the v2 leg of the CI conformance matrix).
// --rate > 0 runs open-loop: arrival times are fixed up front at the given
// aggregate requests/sec and latency is measured from the *scheduled*
// arrival (late starts count against the server, as they would for a real
// user); --rate=0 runs closed-loop back-to-back per connection.
//
// Resilience (server/client.h): --retries arms retransmission with
// exponential backoff + jitter and automatic reconnect. Retries apply only
// to idempotent requests — deadline-free solves, which are pure functions
// of the request. A deadline-bounded request (--deadline > 0) is anytime
// and is never retransmitted once it may have reached the server.
// --fault-rate injects seeded transport chaos (truncated frames, resets,
// stalls, garbage) into every connection; with retries armed, every
// idempotent request must still eventually succeed — the run exits
// nonzero if any request ultimately fails.
//
// --check solves every pool entry locally (direct api::Solver::solve) and
// fails the run unless every served deadline-free response is bit-identical
// — status, cost, delay, and the exact edge ids of every path. This is the
// transport-level counterpart of bench_serving's in-process identity gate.
//
// --shutdown sends {"op":"shutdown"} at the end (the server then drains);
// --stats prints the server's counters before that.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "server/client.h"
#include "server/wire.h"
#include "store/container.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace krsp;
namespace wire = krsp::server::wire;
using Clock = std::chrono::steady_clock;

constexpr char kUsage[] =
    "usage: krsp_loadgen --socket=<path>|--connect=<host:port> "
    "[--requests=64] [--connections=4] [--rate=0] [--pool=8] [--n=12] "
    "[--k=2] [--seed=17] [--topology=id1,id2,...] [--catalog=<dir>] "
    "[--mode=exact|scaled|phase1] [--eps1] [--eps2] [--deadline=0] "
    "[--class=interactive|batch] [--retries=0] [--retry-base-ms=10] "
    "[--retry-max-ms=500] [--retry-budget-ms=0] [--timeout-ms=0] "
    "[--fault-rate=0] [--fault-seed=1] [--latency-out=<file>] [--check] "
    "[--stats] [--shutdown] [--quiet]";

struct PoolEntry {
  std::string id;               // request id ("pool-<i>"), echoed back
  std::string request_line;     // fully serialized solve request
  api::SolveResult reference;   // direct local solve (when --check)
};

bool paths_match(const wire::Value& response,
                 const core::PathSet& reference) {
  const wire::Value* paths = response.find("paths");
  if (paths == nullptr || paths->type != wire::Value::Type::kArray)
    return reference.paths().empty();
  const auto& expected = reference.paths();
  if (paths->items.size() != expected.size()) return false;
  for (std::size_t p = 0; p < expected.size(); ++p) {
    const wire::Value& path = paths->items[p];
    if (path.type != wire::Value::Type::kArray ||
        path.items.size() != expected[p].size())
      return false;
    for (std::size_t e = 0; e < expected[p].size(); ++e) {
      const wire::Value& edge = path.items[e];
      if (edge.type != wire::Value::Type::kNumber || !edge.is_integer ||
          edge.integer != expected[p][e])
        return false;
    }
  }
  return true;
}

/// One --latency-out CSV row: every request's outcome and latency.
struct RequestSample {
  int request = 0;  // global request index (also the CSV sort key)
  int connection = 0;
  std::size_t pool_index = 0;
  const char* outcome = "served";  // served | rejected | failed
  double latency_ms = 0.0;
  bool cache_hit = false;
  bool degraded = false;
  std::string shard;  // router-injected "served_by"; empty when direct
};

struct WorkerReport {
  std::vector<double> latency_ms;
  std::vector<RequestSample> samples;  // filled only with --latency-out
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t failed = 0;  // requests that exhausted the retry policy
  server::ClientCounters client;
};

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string socket_path = cli.get_string("socket", "");
  const std::string connect_spec = cli.get_string("connect", "");
  const int requests = static_cast<int>(cli.get_int("requests", 64));
  const int connections = static_cast<int>(cli.get_int("connections", 4));
  const double rate = cli.get_double("rate", 0.0);
  const int pool_size = static_cast<int>(cli.get_int("pool", 8));
  const int n = static_cast<int>(cli.get_int("n", 12));
  const int k = static_cast<int>(cli.get_int("k", 2));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
  const std::string topology = cli.get_string("topology", "");
  const std::string catalog_dir = cli.get_string("catalog", "");
  const std::string mode = cli.get_string("mode", "exact");
  const double eps1 = cli.get_positive("eps1", 0.25);
  const double eps2 = cli.get_positive("eps2", 0.25);
  const double deadline = cli.get_double("deadline", 0.0);
  const std::string sla_class = cli.get_string("class", "batch");
  const int retries = static_cast<int>(cli.get_int("retries", 0));
  const double retry_base_ms = cli.get_double("retry-base-ms", 10.0);
  const double retry_max_ms = cli.get_double("retry-max-ms", 500.0);
  const double retry_budget_ms = cli.get_double("retry-budget-ms", 0.0);
  const double timeout_ms = cli.get_double("timeout-ms", 0.0);
  const double fault_rate = cli.get_double("fault-rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  const std::string latency_out = cli.get_string("latency-out", "");
  const bool check = cli.get_bool("check", false);
  const bool want_stats = cli.get_bool("stats", false);
  const bool want_shutdown = cli.get_bool("shutdown", false);
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  if (socket_path.empty() == connect_spec.empty() || requests < 1 ||
      connections < 1 || pool_size < 1) {
    std::cerr << kUsage << "\n";
    return 2;
  }
  if (check && !topology.empty() && catalog_dir.empty()) {
    std::cerr << "krsp_loadgen: --check with --topology needs --catalog=<dir> "
                 "for the local reference instances\n";
    return 2;
  }
  const std::optional<api::Mode> api_mode = api::parse_mode(mode);
  if (!api_mode) {
    std::cerr << "unknown --mode: " << mode << "\n";
    return 2;
  }
  if (!api::parse_sla_class(sla_class)) {
    std::cerr << "unknown --class: " << sla_class << "\n";
    return 2;
  }
  if (fault_rate > 0.0 && retries == 0 && !quiet)
    std::cerr << "krsp_loadgen: note: --fault-rate without --retries will "
                 "fail requests on the first injected fault\n";
  // --socket is always a Unix path; --connect parses host:port (a '/' in
  // the spec would make it a path, which is what --socket is for).
  const server::Endpoint endpoint =
      connect_spec.empty() ? server::Endpoint::unix_socket(socket_path)
                           : server::Endpoint::parse(connect_spec);

  // Build the pool. --topology: protocol-v2 request lines naming catalog
  // entries (a few dozen bytes each), references solved from the locally
  // opened containers. Otherwise: seeded random instances shipped inline,
  // serialized once. Reference solves are deadline-free so the oracle is
  // deterministic.
  util::Rng rng(seed);
  std::vector<PoolEntry> pool;
  if (!topology.empty()) {
    std::istringstream ids(topology);
    for (std::string id; std::getline(ids, id, ',');) {
      if (id.empty()) continue;
      PoolEntry entry;
      entry.id = "topo-" + std::to_string(pool.size());
      wire::ObjectWriter w;
      w.field("op", "solve");
      w.field("id", entry.id);
      w.field("topology", id);
      w.field("mode", mode);
      w.field("class", sla_class);
      w.field("eps1", eps1);
      w.field("eps2", eps2);
      if (deadline > 0.0) w.field("deadline", deadline);
      entry.request_line = w.done();
      if (check) {
        api::SolveRequest req;
        try {
          req.instance =
              store::CsrContainer::open(catalog_dir + "/" + id + ".krspb")
                  .instance();
        } catch (const std::exception& e) {
          std::cerr << "krsp_loadgen: --topology " << id << ": " << e.what()
                    << "\n";
          return 2;
        }
        req.mode = *api_mode;
        req.eps1 = eps1;
        req.eps2 = eps2;
        entry.reference = api::Solver::solve(req);
      }
      pool.push_back(std::move(entry));
    }
    if (pool.empty()) {
      std::cerr << "krsp_loadgen: --topology lists no ids\n";
      return 2;
    }
  }
  pool.reserve(pool_size);
  while (topology.empty() && static_cast<int>(pool.size()) < pool_size) {
    api::RandomInstanceOptions io;
    io.k = k;
    io.delay_slack = 0.25;
    auto inst = api::random_er_instance(rng, n, 0.35, io);
    if (!inst) continue;
    api::SolveRequest req;
    req.instance = *inst;
    req.mode = *api_mode;
    req.eps1 = eps1;
    req.eps2 = eps2;

    std::ostringstream kri;
    api::write_instance(kri, *inst);
    PoolEntry entry;
    entry.id = "pool-" + std::to_string(pool.size());
    wire::ObjectWriter w;
    w.field("op", "solve");
    w.field("id", entry.id);
    w.field("instance", kri.str());
    w.field("mode", mode);
    w.field("class", sla_class);
    w.field("eps1", eps1);
    w.field("eps2", eps2);
    if (deadline > 0.0) w.field("deadline", deadline);

    entry.request_line = w.done();
    if (check) entry.reference = api::Solver::solve(req);
    pool.push_back(std::move(entry));
  }

  server::RetryOptions retry_options;
  retry_options.max_retries = retries;
  retry_options.base_backoff_ms = retry_base_ms;
  retry_options.max_backoff_ms = retry_max_ms;
  retry_options.total_budget_ms = retry_budget_ms;
  retry_options.request_timeout_ms = timeout_ms;
  // A deadline-free solve is a pure function of the request: retrying it
  // is safe (duplicates re-serve the same bytes, usually from the result
  // cache). A deadline-bounded solve is anytime — at most once.
  const bool idempotent = deadline <= 0.0;

  const bool open_loop = rate > 0.0;
  // Open-loop arrivals are scheduled from `start`; the 50 ms offset lets
  // every worker thread spin up first. Wall time is measured from `t0`:
  // closed-loop workers fire immediately and can finish before `start`.
  const auto t0 = Clock::now();
  const auto start = t0 + std::chrono::milliseconds(50);
  std::vector<WorkerReport> reports(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  bool connect_failed = false;
  std::mutex io_mu;

  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      WorkerReport& rep = reports[c];
      server::FaultOptions fault_options;
      // Per-connection seeds keep the chaos schedules independent while
      // the whole run stays replayable from --fault-seed.
      fault_options.seed = fault_seed + static_cast<std::uint64_t>(c);
      fault_options.fault_rate = fault_rate;
      server::RetryOptions ropts = retry_options;
      ropts.jitter_seed = fault_seed + 1000 + static_cast<std::uint64_t>(c);
      server::ResilientClient client(endpoint, ropts, fault_options);
      std::string error;
      if (!client.connect(&error)) {
        const std::lock_guard<std::mutex> lock(io_mu);
        std::cerr << "krsp_loadgen: " << error << "\n";
        connect_failed = true;
        return;
      }
      // Request r goes to connection r % connections; arrival r/rate.
      for (int r = c; r < requests; r += connections) {
        Clock::time_point arrival = start;
        if (open_loop) {
          arrival += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(static_cast<double>(r) / rate));
          std::this_thread::sleep_until(arrival);
        } else {
          arrival = Clock::now();
        }
        const std::size_t pool_index =
            static_cast<std::size_t>(r) % pool.size();
        RequestSample sample;
        sample.request = r;
        sample.connection = c;
        sample.pool_index = pool_index;
        const auto note_sample = [&](const char* outcome) {
          if (latency_out.empty()) return;
          // Open-loop latency counts from the scheduled arrival for every
          // outcome, failures (retry exhaustion) included.
          sample.outcome = outcome;
          sample.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        arrival)
                  .count();
          rep.samples.push_back(sample);
        };
        std::string response_line;
        if (!client.request(pool[pool_index].request_line,
                            pool[pool_index].id, idempotent, &response_line,
                            &error)) {
          ++rep.failed;
          note_sample("failed");
          const std::lock_guard<std::mutex> lock(io_mu);
          std::cerr << "krsp_loadgen: request " << r << " failed: " << error
                    << "\n";
          continue;
        }
        // Open-loop latency is measured from the scheduled arrival, so a
        // backed-up server (late send) is charged for the wait.
        const double latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - arrival)
                .count();
        const auto response = wire::parse(response_line);
        if (!response.has_value() || !response->get_bool("ok", false)) {
          ++rep.failed;
          note_sample("failed");
          continue;
        }
        if (!response->get_bool("served", false)) {
          ++rep.rejected;
          note_sample("rejected");
          continue;
        }
        ++rep.served;
        rep.latency_ms.push_back(latency_ms);
        if (response->get_bool("cache_hit", false)) ++rep.cache_hits;
        if (response->get_bool("degraded", false)) ++rep.degraded;
        sample.cache_hit = response->get_bool("cache_hit", false);
        sample.degraded = response->get_bool("degraded", false);
        sample.shard = response->get_string("served_by");
        note_sample("served");
        if (check && deadline <= 0.0 &&
            !response->get_bool("degraded", false)) {
          const api::SolveResult& ref = pool[pool_index].reference;
          const bool same =
              response->get_string("status") == api::status_name(ref.status) &&
              response->get_int("cost", -1) ==
                  (ref.has_paths() ? ref.cost : -1) &&
              response->get_int("delay", -1) ==
                  (ref.has_paths() ? ref.delay : -1) &&
              paths_match(*response, ref.paths);
          if (!same) {
            ++rep.mismatches;
            const std::lock_guard<std::mutex> lock(io_mu);
            std::cerr << "krsp_loadgen: MISMATCH on pool entry " << pool_index
                      << ": served " << response_line
                      << " expected status="
                      << api::status_name(ref.status) << " cost=" << ref.cost
                      << " delay=" << ref.delay << "\n";
          }
        }
      }
      rep.client = client.counters();
    });
  }
  for (auto& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  WorkerReport total;
  util::Stats latency;
  for (const auto& rep : reports) {
    total.served += rep.served;
    total.rejected += rep.rejected;
    total.degraded += rep.degraded;
    total.cache_hits += rep.cache_hits;
    total.mismatches += rep.mismatches;
    total.failed += rep.failed;
    total.client.attempts += rep.client.attempts;
    total.client.retries += rep.client.retries;
    total.client.reconnects += rep.client.reconnects;
    total.client.timeouts += rep.client.timeouts;
    total.client.skipped_lines += rep.client.skipped_lines;
    total.client.give_ups += rep.client.give_ups;
    total.client.faults.injected += rep.client.faults.injected;
    for (const double x : rep.latency_ms) latency.add(x);
  }

  if (!latency_out.empty()) {
    std::vector<RequestSample> all;
    for (const auto& rep : reports)
      all.insert(all.end(), rep.samples.begin(), rep.samples.end());
    std::sort(all.begin(), all.end(),
              [](const RequestSample& a, const RequestSample& b) {
                return a.request < b.request;
              });
    std::ofstream os(latency_out);
    if (!os.good()) {
      std::cerr << "krsp_loadgen: cannot open --latency-out file: "
                << latency_out << "\n";
      return 1;
    }
    os << "request,connection,pool,outcome,latency_ms,cache_hit,degraded,"
          "shard\n";
    for (const auto& s : all)
      os << s.request << ',' << s.connection << ',' << s.pool_index << ','
         << s.outcome << ',' << s.latency_ms << ',' << (s.cache_hit ? 1 : 0)
         << ',' << (s.degraded ? 1 : 0) << ',' << s.shard << '\n';
    if (!quiet)
      std::cout << "krsp_loadgen: wrote " << all.size()
                << " latency sample(s) to " << latency_out << "\n";
  }

  if (!quiet) {
    std::cout << "krsp_loadgen: " << requests << " request(s), "
              << connections << " connection(s), class=" << sla_class
              << (open_loop ? ", open-loop @ " + std::to_string(rate) + "/s"
                            : ", closed-loop")
              << "\n  served=" << total.served
              << " rejected=" << total.rejected
              << " degraded=" << total.degraded
              << " cache_hits=" << total.cache_hits
              << " failed=" << total.failed
              << "\n  attempts=" << total.client.attempts
              << " retries=" << total.client.retries
              << " reconnects=" << total.client.reconnects
              << " timeouts=" << total.client.timeouts
              << " skipped_lines=" << total.client.skipped_lines
              << " faults_injected=" << total.client.faults.injected
              << "\n  wall=" << wall << " s, throughput="
              << static_cast<double>(total.served + total.rejected) / wall
              << " req/s\n";
    if (latency.count() > 0)
      std::cout << "  latency_ms p50=" << latency.percentile(50.0)
                << " p95=" << latency.percentile(95.0)
                << " p99=" << latency.percentile(99.0)
                << " mean=" << latency.mean() << "\n";
  }

  // Control ops ride a clean (fault-free) connection: chaos on the
  // shutdown frame would only test the harness, not the server.
  server::ResilientClient control(endpoint);
  std::string error;
  if ((want_stats || want_shutdown) && !control.connect(&error)) {
    std::cerr << "krsp_loadgen: control connection: " << error << "\n";
    return 1;
  }
  if (want_stats) {
    std::string line;
    if (control.request("{\"op\":\"stats\"}", "", true, &line, &error))
      std::cout << "server stats: " << line << "\n";
  }
  if (want_shutdown) {
    std::string line;
    if (!control.request("{\"op\":\"shutdown\"}", "", false, &line, &error)) {
      std::cerr << "krsp_loadgen: shutdown: " << error << "\n";
      return 1;
    }
    if (!quiet) std::cout << "server acknowledged shutdown: " << line << "\n";
  }

  if (connect_failed || total.failed > 0) {
    std::cerr << "krsp_loadgen: FAIL: " << total.failed
              << " request(s) never got a response\n";
    return 1;
  }
  if (check && total.mismatches > 0) {
    std::cerr << "krsp_loadgen: FAIL: " << total.mismatches
              << " served response(s) diverged from direct solve\n";
    return 1;
  }
  if (check && !quiet)
    std::cout << "all served responses bit-identical to direct solve\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
