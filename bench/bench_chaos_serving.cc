// Experiment E15 — chaos serving: goodput, tail latency, and eventual
// success of the full socket serving stack (SocketServer + SolveService)
// under injected transport faults, driven through the resilient client
// (server/client.h) exactly as a production caller would be.
//
// Usage: bench_chaos_serving [--requests=120] [--pool=6] [--n=12]
//                            [--seed=23] [--threads=0] [--clients=4]
//                            [--retries=16] [--out=BENCH_chaos_serving.json]
//                            [--smoke]
//
// Sweep: fault rates {0, 10%, 30%} of sends drawing a seeded fault
// (garbage frame, mid-frame stall, truncate+close, reset, slow read).
// Each rate runs the same closed-loop request mix against a fresh server;
// clients retry idempotent requests with exponential backoff and
// reconnect after poisoned streams. Measured per rate: goodput (requests
// eventually served per second), end-to-end p99 latency (retries
// included), and the eventual-success fraction.
//
// Every served response is checked bit-identical to a direct
// api::Solver::solve — a retried, reconnected, cache-replayed response
// must carry exactly the same paths as a fault-free one.
//
// Gates (host-independent, checked by scripts/check_bench.py against the
// committed BENCH_chaos_serving.json):
//   * success_frac_10 / success_frac_30 — every idempotent request must
//     eventually succeed under faults (absolute floor 1.0);
//   * goodput_ratio_10 — goodput at 10% faults over goodput at 0%,
//     saturated at 0.5: past that the ratio only measures solve-time
//     noise against fixed fault delays, while the 0.2 floor still
//     catches a retry storm or reconnect livelock collapsing throughput.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "server/client.h"
#include "server/transport.h"
#include "server/wire.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace krsp;
namespace wire = krsp::server::wire;
using Clock = std::chrono::steady_clock;

struct PoolEntry {
  std::string id;
  std::string request_line;
  api::SolveResult reference;
};

std::vector<PoolEntry> build_pool(int pool_size, int n, std::uint64_t seed) {
  std::vector<PoolEntry> pool;
  pool.reserve(pool_size);
  util::Rng rng(seed);
  api::SolveWorkspace ws;
  while (static_cast<int>(pool.size()) < pool_size) {
    api::RandomInstanceOptions io;
    io.k = 2;
    io.delay_slack = 0.25;
    auto inst = api::random_er_instance(rng, n, 0.35, io);
    if (!inst) continue;
    api::SolveRequest req;
    req.instance = *inst;
    req.mode = api::Mode::kExactWeights;

    PoolEntry entry;
    entry.id = "pool-" + std::to_string(pool.size());
    std::ostringstream kri;
    api::write_instance(kri, *inst);
    entry.request_line = wire::ObjectWriter()
                             .field("op", "solve")
                             .field("id", entry.id)
                             .field("instance", kri.str())
                             .field("mode", "exact")
                             .done();
    entry.reference = api::Solver::solve(req, ws);
    pool.push_back(std::move(entry));
  }
  return pool;
}

bool response_matches(const wire::Value& response,
                      const api::SolveResult& ref) {
  if (response.get_string("status") != api::status_name(ref.status))
    return false;
  if (response.get_int("cost", -1) != (ref.has_paths() ? ref.cost : -1))
    return false;
  if (response.get_int("delay", -1) != (ref.has_paths() ? ref.delay : -1))
    return false;
  const wire::Value* paths = response.find("paths");
  if (paths == nullptr || paths->type != wire::Value::Type::kArray)
    return ref.paths.paths().empty();
  const auto& expected = ref.paths.paths();
  if (paths->items.size() != expected.size()) return false;
  for (std::size_t p = 0; p < expected.size(); ++p) {
    if (paths->items[p].items.size() != expected[p].size()) return false;
    for (std::size_t e = 0; e < expected[p].size(); ++e)
      if (paths->items[p].items[e].integer != expected[p][e]) return false;
  }
  return true;
}

struct PhaseReport {
  double fault_rate = 0.0;
  util::Stats latency_ms;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  server::ClientCounters client;
  double wall_seconds = 0.0;

  [[nodiscard]] double success_frac() const {
    const auto total = succeeded + failed;
    return total == 0 ? 0.0
                      : static_cast<double>(succeeded) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double goodput() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(succeeded) / wall_seconds;
  }
};

PhaseReport run_phase(const std::string& socket_path,
                      const std::vector<PoolEntry>& pool, int requests,
                      int clients, int retries, double fault_rate,
                      std::uint64_t fault_seed) {
  struct WorkerReport {
    std::vector<double> latency_ms;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    server::ClientCounters client;
  };
  std::vector<WorkerReport> reports(clients);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      WorkerReport& rep = reports[c];
      server::RetryOptions retry;
      retry.max_retries = retries;
      retry.base_backoff_ms = 1.0;
      retry.max_backoff_ms = 50.0;
      retry.request_timeout_ms = 5000.0;
      retry.jitter_seed = fault_seed + 500 + static_cast<std::uint64_t>(c);
      server::FaultOptions faults;
      faults.seed = fault_seed + static_cast<std::uint64_t>(c);
      faults.fault_rate = fault_rate;
      faults.stall_ms = 5;  // keep wall time bounded; the *ratio* gates
      server::ResilientClient client(socket_path, retry, faults);
      for (int r = c; r < requests; r += clients) {
        const std::size_t i = static_cast<std::size_t>(r) % pool.size();
        const auto sent = Clock::now();
        std::string response_line;
        std::string error;
        if (!client.request(pool[i].request_line, pool[i].id,
                            /*idempotent=*/true, &response_line, &error)) {
          ++rep.failed;
          continue;
        }
        rep.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                     Clock::now() - sent)
                                     .count());
        const auto response = wire::parse(response_line);
        if (!response.has_value() || !response->get_bool("served", false)) {
          ++rep.failed;
          continue;
        }
        ++rep.succeeded;
        if (!response_matches(*response, pool[i].reference))
          ++rep.mismatches;
      }
      rep.client = client.counters();
    });
  }
  for (auto& t : threads) t.join();

  PhaseReport total;
  total.fault_rate = fault_rate;
  total.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& rep : reports) {
    total.succeeded += rep.succeeded;
    total.failed += rep.failed;
    total.mismatches += rep.mismatches;
    total.client.attempts += rep.client.attempts;
    total.client.retries += rep.client.retries;
    total.client.reconnects += rep.client.reconnects;
    total.client.timeouts += rep.client.timeouts;
    total.client.skipped_lines += rep.client.skipped_lines;
    total.client.give_ups += rep.client.give_ups;
    total.client.faults.injected += rep.client.faults.injected;
    for (const double x : rep.latency_ms) total.latency_ms.add(x);
  }
  return total;
}

void write_json(const std::string& path, int requests, int pool, int n,
                int clients, int retries, bool identical,
                const std::vector<PhaseReport>& sweep) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  const PhaseReport& clean = sweep[0];
  const PhaseReport& faults10 = sweep[1];
  const PhaseReport& faults30 = sweep[2];
  const double goodput_ratio_10 =
      clean.goodput() <= 0.0 ? 0.0 : faults10.goodput() / clean.goodput();
  out << "{\n";
  out << "  \"experiment\": \"E15\",\n";
  out << "  \"config\": {\"requests\": " << requests << ", \"pool\": " << pool
      << ", \"n\": " << n << ", \"clients\": " << clients
      << ", \"retries\": " << retries << "},\n";
  out << "  \"identical\": " << (identical ? "true" : "false") << ",\n";
  out << "  \"sweep\": {\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PhaseReport& ph = sweep[i];
    out << "    \"rate_" << static_cast<int>(ph.fault_rate * 100 + 0.5)
        << "\": {\"goodput_per_sec\": " << ph.goodput()
        << ", \"p99_ms\": " << ph.latency_ms.percentile(99.0)
        << ", \"retries\": " << ph.client.retries
        << ", \"reconnects\": " << ph.client.reconnects
        << ", \"faults_injected\": " << ph.client.faults.injected << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"gate\": {\n";
  out << "    \"success_frac_10\": {\"value\": " << faults10.success_frac()
      << ", \"direction\": \"higher\", \"min\": 1.0},\n";
  out << "    \"success_frac_30\": {\"value\": " << faults30.success_frac()
      << ", \"direction\": \"higher\", \"min\": 1.0},\n";
  // Saturated at 0.5 (see file comment): the floor is the real bar, the
  // saturation keeps baseline drift checks from flapping on solve noise.
  out << "    \"goodput_ratio_10\": {\"value\": "
      << std::min(goodput_ratio_10, 0.5)
      << ", \"direction\": \"higher\", \"min\": 0.2}\n";
  out << "  }\n";
  out << "}\n";
  std::cout << "wrote " << path << "\n";
}

constexpr char kUsage[] =
    "usage: bench_chaos_serving [--requests=120] [--pool=6] [--n=12] "
    "[--seed=23] [--threads=0] [--clients=4] [--retries=16] "
    "[--out=BENCH_chaos_serving.json] [--smoke]";

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const int requests =
      static_cast<int>(cli.get_int("requests", smoke ? 48 : 120));
  const int pool_size = static_cast<int>(cli.get_int("pool", smoke ? 4 : 6));
  const int n = static_cast<int>(cli.get_int("n", smoke ? 10 : 12));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 23));
  const int threads = static_cast<int>(cli.get_int("threads", 0));
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int retries = static_cast<int>(cli.get_int("retries", 16));
  const std::string out_path = cli.get_string("out", "");
  cli.reject_unknown();

  const auto pool = build_pool(pool_size, n, seed);
  std::cout << "E15: chaos serving over a pool of " << pool.size()
            << " ER n=" << n << " instances, " << requests
            << " requests per fault rate, " << clients
            << " resilient client(s), up to " << retries
            << " retries (hardware " << std::thread::hardware_concurrency()
            << " core(s))\n\n";

  const std::vector<double> rates = {0.0, 0.10, 0.30};
  std::vector<PhaseReport> sweep;
  bool all_identical = true;
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    // Fresh server per rate so fault handling in one phase cannot warm or
    // wedge the next; the cache is on, as in production serving.
    api::ServerOptions options;
    options.num_threads = threads;
    server::SolveService service(options);
    const std::string socket_path =
        "/tmp/krsp_e15_" + std::to_string(::getpid()) + "_" +
        std::to_string(ri) + ".sock";
    server::SocketServer socket_server(service, socket_path);
    std::string error;
    if (!socket_server.start(&error)) {
      std::cerr << "E15: " << error << "\n";
      return 1;
    }
    std::thread accept_thread([&] { socket_server.serve_forever(); });

    sweep.push_back(run_phase(socket_path, pool, requests, clients, retries,
                              rates[ri], seed * 1000 + ri));
    socket_server.request_stop();
    accept_thread.join();
    service.drain();
    all_identical = all_identical && sweep.back().mismatches == 0;
  }

  util::Table table({"fault rate", "succeeded", "failed", "goodput/s",
                     "p99 ms", "retries", "reconnects", "faults"});
  for (const auto& ph : sweep) {
    table.row()
        .cell_fp(ph.fault_rate, 2)
        .cell(static_cast<std::int64_t>(ph.succeeded))
        .cell(static_cast<std::int64_t>(ph.failed))
        .cell_fp(ph.goodput(), 1)
        .cell_fp(ph.latency_ms.percentile(99.0), 2)
        .cell(static_cast<std::int64_t>(ph.client.retries))
        .cell(static_cast<std::int64_t>(ph.client.reconnects))
        .cell(static_cast<std::int64_t>(ph.client.faults.injected));
  }
  table.print();
  std::cout << "\nNote: on a single-core host absolute goodput is one "
               "worker's solve rate; the gated quantities (success "
               "fractions, goodput ratio) are host-independent.\n";

  if (out_path.empty() && smoke)
    std::cout << "(smoke run: pass --out=... to emit the gate JSON)\n";
  if (!out_path.empty())
    write_json(out_path, requests, pool_size, n, clients, retries,
               all_identical, sweep);

  int rc = 0;
  for (const auto& ph : sweep) {
    if (ph.failed > 0) {
      std::cerr << "FAIL: " << ph.failed << " request(s) never succeeded at "
                << "fault rate " << ph.fault_rate << "\n";
      rc = 1;
    }
    if (ph.fault_rate > 0.0 && ph.client.faults.injected == 0) {
      std::cerr << "FAIL: fault rate " << ph.fault_rate
                << " injected nothing — the chaos schedule is inert\n";
      rc = 1;
    }
  }
  if (!all_identical) {
    std::cerr << "FAIL: served results diverged from direct solves under "
                 "faults\n";
    rc = 1;
  }
  if (rc == 0)
    std::cout << "all " << rates.size() * static_cast<std::size_t>(requests)
              << " requests eventually served bit-identical under every "
                 "fault rate\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
