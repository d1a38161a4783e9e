// Experiment E12 — batch engine throughput (solves/sec) vs thread count,
// against a sequential single-workspace baseline. Every engine run is
// checked bit-identical to the sequential baseline, so the numbers cannot
// come from cut corners.
//
// Usage: bench_throughput [--requests=64] [--n=16] [--seed=12]
//                         [--threads=1,2,4,8] [--smoke]
//
// --smoke shrinks everything for CI: a small batch at 1 and 2 threads,
// still asserting bit-identity.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace krsp;
using Clock = std::chrono::steady_clock;

std::vector<int> parse_thread_list(const std::string& csv) {
  std::vector<int> out;
  std::istringstream is(csv);
  std::string part;
  while (std::getline(is, part, ','))
    if (!part.empty()) out.push_back(std::stoi(part));
  return out;
}

std::vector<api::SolveRequest> build_batch(int requests, int n,
                                           std::uint64_t seed) {
  std::vector<api::SolveRequest> batch;
  batch.reserve(requests);
  util::Rng rng(seed);
  while (static_cast<int>(batch.size()) < requests) {
    api::RandomInstanceOptions io;
    io.k = 2 + static_cast<int>(batch.size() % 2);
    io.delay_slack = 0.2;
    auto inst = api::random_er_instance(rng, n, 0.35, io);
    if (!inst) continue;
    api::SolveRequest req;
    req.instance = std::move(*inst);
    req.mode = batch.size() % 2 == 0 ? api::Mode::kExactWeights
                                     : api::Mode::kScaled;
    req.tag = "req-" + std::to_string(batch.size());
    batch.push_back(std::move(req));
  }
  return batch;
}

bool identical(const std::vector<api::SolveResult>& a,
               const std::vector<api::SolveResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].status != b[i].status || a[i].cost != b[i].cost ||
        a[i].delay != b[i].delay ||
        a[i].paths.paths() != b[i].paths.paths() ||
        a[i].telemetry.cost_guess_used != b[i].telemetry.cost_guess_used)
      return false;
  }
  return true;
}

constexpr char kUsage[] =
    "usage: bench_throughput [--requests=64] [--n=16] [--seed=12] "
    "[--threads=1,2,4,8] [--smoke]";

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const int requests =
      static_cast<int>(cli.get_int("requests", smoke ? 12 : 64));
  const int n = static_cast<int>(cli.get_int("n", smoke ? 12 : 16));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 12));
  const std::vector<int> thread_counts = parse_thread_list(
      cli.get_string("threads", smoke ? "1,2" : "1,2,4,8"));
  cli.reject_unknown();

  const auto batch = build_batch(requests, n, seed);
  std::cout << "E12: batch engine throughput, " << batch.size()
            << " mixed exact/scaled requests on ER n=" << n << " (hardware "
            << std::thread::hardware_concurrency() << " core(s))\n\n";

  // Sequential baseline: one thread of straight Solver::solve calls with a
  // single reused workspace — no pool, no locks. This is the honest "what
  // you had before the engine" number.
  api::SolveWorkspace baseline_ws;
  std::vector<api::SolveResult> baseline;
  baseline.reserve(batch.size());
  const auto t0 = Clock::now();
  for (const auto& req : batch)
    baseline.push_back(api::Solver::solve(req, baseline_ws));
  const double base_wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double base_rate = static_cast<double>(batch.size()) / base_wall;

  util::Table table({"config", "threads", "solves/sec", "speedup vs seq",
                     "identical"});
  table.row()
      .cell("sequential baseline")
      .cell(1)
      .cell_fp(base_rate, 1)
      .cell_fp(1.0, 2)
      .cell("ref");

  bool all_identical = true;
  for (const int threads : thread_counts) {
    api::Engine engine(api::EngineOptions{.num_threads = threads});
    // Warm-up pass populates per-worker workspaces; timed pass measures the
    // steady state a long-lived service would see.
    (void)engine.solve_batch(batch);
    const auto start = Clock::now();
    const auto results = engine.solve_batch(batch);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    const bool same = identical(results, baseline);
    all_identical = all_identical && same;
    const double rate = static_cast<double>(batch.size()) / wall;
    table.row()
        .cell("engine")
        .cell(threads)
        .cell_fp(rate, 1)
        .cell_fp(rate / base_rate, 2)
        .cell(same ? "yes" : "NO");
  }

  table.print();
  std::cout << "\nNote: speedup is bounded by physical cores; on a "
               "single-core host all configs are expected near 1.0x and the "
               "run only validates determinism.\n";

  if (!all_identical) {
    std::cerr << "FAIL: engine results diverged from sequential baseline\n";
    return 1;
  }
  std::cout << "all engine runs bit-identical to sequential baseline\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
