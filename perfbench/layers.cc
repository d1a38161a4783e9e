// In-process layer timings for the traced benchmark run.
//
//   perfbench_layers --catalog=DIR --pool=FILE --sequence=FILE
//                    --solve=FILE --budget=SECONDS
//
// Times calls into each layer's public functions with the benchmark's own
// spans (steady_clock around each call) and prints one JSON object of raw
// samples on stdout; run.py turns them into percentiles.
//
//   store.catalog_load   store::TopologyCatalog::load, five times
//   wire.parse           wire::parse + server::parse_solve_request, per
//                        line of the stream (in stream order)
//   fingerprint          api::request_fingerprints on the parsed request
//   materialize          SolveRequest::materialized_instance, for requests
//                        carrying a query override
//   solve                api::Solver::solve with one reused SolveWorkspace,
//                        once per distinct query listed in --solve, until
//                        --budget seconds are spent
//   phase1               core::phase1_lagrangian on the same query with one
//                        reused McfWorkspace
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/fingerprint.h"
#include "api/krsp.h"
#include "core/phase1.h"
#include "flow/min_cost_flow.h"
#include "server/request_parse.h"
#include "server/wire.h"
#include "store/catalog.h"

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(xs[i]);
  }
  return out + "]";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool parse_line(const std::string& line,
                const krsp::store::TopologyCatalog& catalog,
                krsp::api::SolveRequest* out) {
  std::string error;
  const auto value = krsp::server::wire::parse(line, &error);
  bool timing = false;
  return value.has_value() &&
         krsp::server::parse_solve_request(*value, &catalog, out, &timing,
                                           &error);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace krsp;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::cerr << "layers: bad argument " << a << "\n";
      return 2;
    }
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  for (const char* required :
       {"catalog", "pool", "sequence", "solve", "budget"})
    if (args.count(required) == 0) {
      std::cerr << "layers: missing --" << required << "\n";
      return 2;
    }

  std::vector<double> load_ms;
  store::TopologyCatalog catalog;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    catalog = store::TopologyCatalog::load(args["catalog"]);
    load_ms.push_back(us_since(t0) / 1e3);
  }

  const std::vector<std::string> pool = read_lines(args["pool"]);
  std::vector<std::size_t> sequence;
  {
    std::ifstream in(args["sequence"]);
    std::size_t index = 0, gap = 0;
    while (in >> index >> gap)
      if (index < pool.size()) sequence.push_back(index);
  }

  // Per-line layers, in stream order. The fingerprints are folded into a
  // sink so the calls cannot be dropped as dead code.
  std::vector<double> parse_us, fingerprint_us, materialize_us;
  std::uint64_t sink = 0;
  int parse_failures = 0;
  for (const std::size_t index : sequence) {
    api::SolveRequest request;
    auto t0 = Clock::now();
    if (!parse_line(pool[index], catalog, &request)) {
      ++parse_failures;
      continue;
    }
    parse_us.push_back(us_since(t0));
    t0 = Clock::now();
    const api::FingerprintPair fp = api::request_fingerprints(request);
    fingerprint_us.push_back(us_since(t0));
    sink ^= fp.key ^ fp.verify;
    if (request.topology != nullptr && request.query_override) {
      t0 = Clock::now();
      const api::Instance inst = request.materialized_instance();
      materialize_us.push_back(us_since(t0));
      sink ^= static_cast<std::uint64_t>(inst.graph.num_edges());
    }
  }

  // Solver layers, once per distinct query, within the time budget.
  std::vector<double> solve_ms, phase1_ms, cancel_ms, guess_attempts,
      mcmf_calls, rounds, anchors_scanned, anchors_pruned, budgets_tried,
      peak_dp_bytes, reached;
  int solve_failures = 0;
  api::SolveWorkspace solve_ws;
  flow::McfWorkspace mcf_ws;
  const double budget_us = std::stod(args["budget"]) * 1e6;
  const auto budget_start = Clock::now();
  for (const std::string& entry : read_lines(args["solve"])) {
    if (us_since(budget_start) > budget_us) break;
    const std::size_t index = std::stoul(entry);
    api::SolveRequest request;
    if (index >= pool.size() || !parse_line(pool[index], catalog, &request)) {
      ++parse_failures;
      continue;
    }
    auto t0 = Clock::now();
    const api::SolveResult result = api::Solver::solve(request, solve_ws);
    const double solve = us_since(t0) / 1e3;
    if (result.status == api::SolveStatus::kFailed) ++solve_failures;
    const api::Instance inst = request.materialized_instance();
    t0 = Clock::now();
    const core::Phase1Result p1 = core::phase1_lagrangian(inst, {}, &mcf_ws);
    const double phase1 = us_since(t0) / 1e3;
    sink ^= static_cast<std::uint64_t>(p1.cost);

    const api::SolveTelemetry& tel = result.telemetry;
    const core::BicameralStats& fs = tel.cancel.finder_stats;
    solve_ms.push_back(solve);
    phase1_ms.push_back(phase1);
    cancel_ms.push_back(solve > phase1 ? solve - phase1 : 0.0);
    guess_attempts.push_back(tel.guess_attempts);
    mcmf_calls.push_back(p1.mcmf_calls);
    reached.push_back(tel.guess_attempts > 0 ? 1.0 : 0.0);
    rounds.push_back(static_cast<double>(tel.cancel.iterations));
    anchors_scanned.push_back(static_cast<double>(fs.anchors_scanned));
    anchors_pruned.push_back(static_cast<double>(fs.anchors_pruned));
    budgets_tried.push_back(static_cast<double>(fs.budgets_tried));
    peak_dp_bytes.push_back(static_cast<double>(fs.peak_dp_bytes));
  }

  std::cout << "{\"catalog_load_ms\":" << json_array(load_ms)
            << ",\"parse_us\":" << json_array(parse_us)
            << ",\"fingerprint_us\":" << json_array(fingerprint_us)
            << ",\"materialize_us\":" << json_array(materialize_us)
            << ",\"solve_ms\":" << json_array(solve_ms)
            << ",\"phase1_ms\":" << json_array(phase1_ms)
            << ",\"cancel_ms\":" << json_array(cancel_ms)
            << ",\"guess_attempts\":" << json_array(guess_attempts)
            << ",\"mcmf_calls\":" << json_array(mcmf_calls)
            << ",\"reached\":" << json_array(reached)
            << ",\"rounds\":" << json_array(rounds)
            << ",\"anchors_scanned\":" << json_array(anchors_scanned)
            << ",\"anchors_pruned\":" << json_array(anchors_pruned)
            << ",\"budgets_tried\":" << json_array(budgets_tried)
            << ",\"peak_dp_bytes\":" << json_array(peak_dp_bytes)
            << ",\"parse_failures\":" << parse_failures
            << ",\"solve_failures\":" << solve_failures
            << ",\"sink\":" << (sink & 0xffff) << "}\n";
  return std::cout.good() ? 0 : 1;
}
