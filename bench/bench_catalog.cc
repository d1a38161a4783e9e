// Experiment E16 — what the zero-copy topology catalog buys at the wire:
// bytes per request and steady-state requests/sec for the same solve
// stream issued as protocol v1 (inline .kri instance in every request)
// versus protocol v2 (catalog topology id). The workload is the
// committed corpus under data/corpus/ — the graphs are 16k-edge scale,
// so the v1 tax (serialize + ship + reparse + rehash the graph on every
// request) is the dominant cost and the catalog's O(1) reference path is
// the payoff being measured.
//
// Usage: bench_catalog --corpus=data/corpus [--requests=300]
//                      [--mode=phase1] [--out=BENCH_catalog.json] [--smoke]
//
// Phases:
//   identity   — every topology is solved once through each protocol
//                form on fresh services; the response lines must be
//                byte-identical after dropping the timing fields. This
//                is the v1/v2 contract, and it gates the perf numbers.
//   wire       — request-line sizes for both forms, per topology.
//   throughput — `requests` round-robin solves per form against a
//                cache-enabled service (steady-state serving: after the
//                first round everything is a cache hit, so the measured
//                difference is exactly the per-request graph tax).
//
// Gate metrics (host-independent ratios, checked by check_bench.py):
//   wire_bytes_ratio    — mean v1 request bytes / mean v2 request bytes.
//   catalog_rps_speedup — v2 requests/sec / v1 requests/sec.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/krsp.h"
#include "core/io.h"
#include "server/service.h"
#include "server/transport.h"
#include "server/wire.h"
#include "store/catalog.h"
#include "util/check.h"
#include "util/cli.h"

namespace {

using namespace krsp;
using Clock = std::chrono::steady_clock;

std::string inline_line(const core::Instance& inst, const std::string& id,
                        const std::string& mode) {
  std::ostringstream kri;
  core::write_instance(kri, inst);
  return server::wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("instance", kri.str())
      .field("mode", mode)
      .done();
}

std::string topology_line(const std::string& topology, const std::string& id,
                          const std::string& mode) {
  return server::wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("topology", topology)
      .field("mode", mode)
      .done();
}

/// Drops the per-request timing fields — the only legitimately
/// nondeterministic response bytes — so lines can be compared directly.
std::string strip_timing(std::string line) {
  for (const char* key : {"\"queue_ms\":", "\"total_ms\":"}) {
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    const std::size_t end = line.find_first_of(",}", pos + std::strlen(key));
    KRSP_CHECK(end != std::string::npos && pos > 0 && line[pos - 1] == ',');
    line.erase(pos - 1, end - (pos - 1));
  }
  return line;
}

/// Serves `lines[r % lines.size()]` for r in [0, requests) on a fresh
/// cache-enabled single-thread service; returns requests/sec. One
/// untimed warmup round populates the cache first, so the measurement is
/// pure steady state and does not depend on how many requests amortize
/// the cold solves (which would make the ratio drift with --requests).
double run_form(const std::vector<std::string>& lines, int requests,
                const store::TopologyCatalog* catalog) {
  server::SolveService service(api::ServerOptions{.num_threads = 1});
  server::LocalTransport transport(service, catalog);
  for (const auto& line : lines) (void)transport.request(line);
  const auto start = Clock::now();
  for (int r = 0; r < requests; ++r) {
    const std::string resp =
        transport.request(lines[static_cast<std::size_t>(r) % lines.size()]);
    KRSP_CHECK_MSG(resp.find("\"served\":true") != std::string::npos,
                   "request not served: " << resp.substr(0, 200));
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(requests) / seconds;
}

constexpr char kUsage[] =
    "usage: bench_catalog --corpus=data/corpus [--requests=300] "
    "[--mode=phase1] [--out=BENCH_catalog.json] [--smoke]";

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const std::string corpus = cli.get_string("corpus", "data/corpus");
  const int requests =
      static_cast<int>(cli.get_int("requests", smoke ? 60 : 300));
  const std::string mode = cli.get_string("mode", "phase1");
  const std::string out_path = cli.get_string("out", "");
  cli.reject_unknown();

  const store::TopologyCatalog catalog = store::TopologyCatalog::load(corpus);
  KRSP_CHECK_MSG(!catalog.empty(), "no .krspb topologies in " << corpus);
  std::cout << "E16: " << catalog.size() << " corpus topolog"
            << (catalog.size() == 1 ? "y" : "ies") << " from " << corpus
            << ", " << requests << " requests per protocol form, mode="
            << mode << "\n\n";

  // Build both request forms for every topology, with identical ids so
  // the response lines can be compared byte for byte.
  std::vector<std::string> v1_lines, v2_lines;
  double v1_bytes = 0.0, v2_bytes = 0.0;
  std::cout << "  topology              n      m   v1 bytes  v2 bytes\n";
  for (const auto& info : catalog.list()) {
    const auto ref = catalog.find(info.id);
    const std::string rid = "req-" + info.id;
    v1_lines.push_back(inline_line(*ref->instance, rid, mode));
    v2_lines.push_back(topology_line(info.id, rid, mode));
    v1_bytes += static_cast<double>(v1_lines.back().size());
    v2_bytes += static_cast<double>(v2_lines.back().size());
    std::printf("  %-18s %6lld %6lld %10zu %9zu\n", info.id.c_str(),
                static_cast<long long>(info.num_vertices),
                static_cast<long long>(info.num_edges),
                v1_lines.back().size(), v2_lines.back().size());
  }
  const double count = static_cast<double>(v1_lines.size());
  const double wire_ratio = v1_bytes / v2_bytes;
  std::cout << "\n  mean request bytes: v1 " << v1_bytes / count << ", v2 "
            << v2_bytes / count << "  (ratio " << wire_ratio << "x)\n";

  // --- identity: cold solve of every topology through each form.
  bool identical = true;
  for (std::size_t i = 0; i < v1_lines.size(); ++i) {
    server::SolveService v1_service(api::ServerOptions{.num_threads = 1});
    server::SolveService v2_service(api::ServerOptions{.num_threads = 1});
    server::LocalTransport v1(v1_service);
    server::LocalTransport v2(v2_service, &catalog);
    const std::string a = strip_timing(v1.request(v1_lines[i]));
    const std::string b = strip_timing(v2.request(v2_lines[i]));
    if (a != b) {
      identical = false;
      std::cout << "  MISMATCH on request " << i << ":\n    v1: " << a
                << "\n    v2: " << b << "\n";
    }
  }
  std::cout << "  identity: v1 and v2 responses "
            << (identical ? "byte-identical" : "DIVERGED") << "\n\n";

  // --- throughput: steady-state serving of the same stream per form.
  const double v1_rps = run_form(v1_lines, requests, nullptr);
  const double v2_rps = run_form(v2_lines, requests, &catalog);
  const double speedup = v2_rps / v1_rps;
  std::cout << "  throughput: v1 " << v1_rps << " req/s, v2 " << v2_rps
            << " req/s  (speedup " << speedup << "x)\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << "{\n";
    out << "  \"experiment\": \"E16\",\n";
    out << "  \"config\": {\"topologies\": " << catalog.size()
        << ", \"requests\": " << requests << ", \"mode\": \"" << mode
        << "\"},\n";
    out << "  \"identical\": " << (identical ? "true" : "false") << ",\n";
    out << "  \"wire_bytes\": {\"v1_mean\": " << v1_bytes / count
        << ", \"v2_mean\": " << v2_bytes / count << "},\n";
    out << "  \"requests_per_sec\": {\"v1\": " << v1_rps
        << ", \"v2\": " << v2_rps << "},\n";
    out << "  \"gate\": {\n";
    // The corpus graphs are ~16k edges, so inline requests are ~400KB
    // against ~100B for a topology reference; 10x is the acceptance
    // floor, the measured ratio is ~3 orders of magnitude.
    out << "    \"wire_bytes_ratio\": {\"value\": " << wire_ratio
        << ", \"direction\": \"higher\", \"min\": 10.0},\n";
    // Saturate like E14's cache_speedup: past ~50x the ratio measures
    // v1-side parse noise, not the catalog path. 2x is the bar.
    out << "    \"catalog_rps_speedup\": {\"value\": "
        << std::min(speedup, 50.0)
        << ", \"direction\": \"higher\", \"min\": 2.0}\n";
    out << "  }\n";
    out << "}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
