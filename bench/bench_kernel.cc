// Experiment E13 — bicameral kernel (seed-anchor/SCC pruning, flat DP
// tables, walk-length deepening), measured end-to-end through
// cancel_cycles on Erdős–Rényi instances. Every instance runs twice — the
// serial workspace scan and the (possibly OpenMP) parallel scan — and the
// two results must be bit-identical.
//
// Usage: bench_kernel [--n=256] [--instances=4] [--k=3] [--reps=3]
//                     [--seed=13] [--out=BENCH_kernel.json] [--smoke]
//
// --smoke shrinks the suite for CI; scripts/check_bench.py compares the
// emitted JSON against the committed BENCH_kernel.json baseline and fails
// on regression. Gate metrics are deterministic work and memory counts
// (pruned-anchor fraction, relaxation rounds per find, peak DP bytes), not
// times, so the comparison is host-independent; wall times are reported
// only.
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/krsp.h"
#include "flow/disjoint.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace krsp;
using Clock = std::chrono::steady_clock;

// Relaxation rounds per find of the full-bound scan that preceded the
// walk-length deepening, on the --smoke suite: the gate's ceiling there.
constexpr double kSmokeFullScanDpRoundsPerFind = 819.625;

struct Workload {
  core::Instance instance;
  core::PathSet start;        // min-cost k disjoint paths (delay-infeasible)
  graph::Cost guess = 0;      // cost of a delay-feasible alternative (>= C_OPT)
};

// Builds instances whose min-cost start violates the delay bound, so
// cancel_cycles has real work, with a cost guess that Lemma 11 guarantees
// succeeds (the min-delay path set is delay-feasible and costs `guess`).
std::vector<Workload> build_suite(int instances, int n, int k,
                                  std::uint64_t seed) {
  std::vector<Workload> suite;
  util::Rng rng(seed);
  int attempts = 0;
  while (static_cast<int>(suite.size()) < instances && attempts < 200) {
    ++attempts;
    core::RandomInstanceOptions io;
    io.k = k;
    io.delay_slack = 0.15;
    auto inst = core::random_er_instance(rng, n, 6.0 / n, io);
    if (!inst) continue;
    const auto start = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 1, 0);
    if (!start) continue;
    if (start->total_delay <= inst->delay_bound) continue;  // nothing to do
    const auto feasible = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 0, 1);
    if (!feasible) continue;
    Workload w;
    w.instance = std::move(*inst);
    w.start = core::PathSet(start->paths);
    w.guess = core::PathSet(feasible->paths).total_cost(w.instance.graph);
    suite.push_back(std::move(w));
  }
  return suite;
}

struct ConfigRun {
  core::CycleCancelResult result;
  double wall_ms = 0;  // best of reps
};

ConfigRun run_config(const Workload& w, bool serial_ws, int reps) {
  ConfigRun out;
  out.wall_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::optional<core::BicameralWorkspace> ws;
    if (serial_ws) ws.emplace();
    const auto t0 = Clock::now();
    auto r = core::cancel_cycles(w.instance, w.start, w.guess, {},
                                 ws ? &*ws : nullptr);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    out.wall_ms = std::min(out.wall_ms, ms);
    out.result = std::move(r);
  }
  return out;
}

bool identical(const core::CycleCancelResult& a,
               const core::CycleCancelResult& b) {
  return a.status == b.status && a.cost == b.cost && a.delay == b.delay &&
         a.paths.paths() == b.paths.paths();
}

struct Totals {
  double serial_ms = 0;
  double parallel_ms = 0;
  std::int64_t finds = 0;
  core::BicameralStats stats;  // summed counters, max peak_dp_bytes
};

void write_json(const std::string& path, int n, int instances, int k,
                int reps, std::uint64_t seed, bool smoke, bool all_identical,
                const Totals& t, double pruned_frac,
                double dp_rounds_per_find) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"experiment\": \"E13\",\n";
  out << "  \"config\": {\"n\": " << n << ", \"instances\": " << instances
      << ", \"k\": " << k << ", \"reps\": " << reps << ", \"seed\": " << seed
      << ", \"smoke\": " << (smoke ? "true" : "false") << "},\n";
  out << "  \"identical\": " << (all_identical ? "true" : "false") << ",\n";
  out << "  \"wall_ms\": {\"serial\": " << t.serial_ms
      << ", \"parallel\": " << t.parallel_ms << "},\n";
  out << "  \"telemetry\": {\"finds\": " << t.finds
      << ", \"dp_rounds\": " << t.stats.dp_rounds
      << ", \"anchors_scanned\": " << t.stats.anchors_scanned
      << ", \"budgets_tried\": " << t.stats.budgets_tried
      << ", \"sccs_skipped\": " << t.stats.sccs_skipped << "},\n";
  // Gate metrics are deterministic counts. "min"/"max" are absolute bars
  // enforced by check_bench.py on top of the 25% relative-regression rule.
  out << "  \"gate\": {\n";
  out << "    \"anchors_pruned_frac\": {\"value\": " << pruned_frac
      << ", \"direction\": \"higher\", \"min\": 0.5},\n";
  out << "    \"dp_rounds_per_find\": {\"value\": " << dp_rounds_per_find
      << ", \"direction\": \"lower\"";
  if (smoke) out << ", \"max\": " << kSmokeFullScanDpRoundsPerFind;
  out << "},\n";
  out << "    \"peak_dp_bytes\": {\"value\": " << t.stats.peak_dp_bytes
      << ", \"direction\": \"lower\"}\n";
  out << "  }\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const int n = static_cast<int>(cli.get_int("n", smoke ? 64 : 256));
  const int instances =
      static_cast<int>(cli.get_int("instances", smoke ? 2 : 4));
  const int k = static_cast<int>(cli.get_int("k", 3));
  const int reps = static_cast<int>(cli.get_int("reps", smoke ? 2 : 3));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 13));
  const std::string out_path = cli.get_string("out", "");
  cli.reject_unknown();

  const auto suite = build_suite(instances, n, k, seed);
  if (static_cast<int>(suite.size()) < instances) {
    std::cerr << "FAIL: only " << suite.size() << "/" << instances
              << " delay-infeasible-start instances found\n";
    return 1;
  }
  std::cout << "E13: bicameral kernel through cancel_cycles, " << suite.size()
            << " ER instance(s), n=" << n << ", k=" << k << ", best of "
            << reps << " rep(s)\n\n";

  util::Table table({"instance", "serial ms", "parallel ms", "rounds",
                     "dp rounds/find", "peak DP MB", "identical"});
  Totals totals;
  bool all_identical = true;

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& w = suite[i];
    const auto serial = run_config(w, true, reps);
    const auto parallel = run_config(w, false, reps);
    const bool same = identical(serial.result, parallel.result);
    all_identical = all_identical && same;
    if (serial.result.status != core::CancelStatus::kSuccess) {
      std::cerr << "FAIL: instance " << i
                << " did not cancel to feasibility (guess should certify "
                   "success)\n";
      return 1;
    }

    // One find per cancellation round: every round found a cycle.
    const std::int64_t finds = serial.result.telemetry.iterations;
    const auto& fs = serial.result.telemetry.finder_stats;
    totals.serial_ms += serial.wall_ms;
    totals.parallel_ms += parallel.wall_ms;
    totals.finds += finds;
    totals.stats.dp_rounds += fs.dp_rounds;
    totals.stats.anchors_scanned += fs.anchors_scanned;
    totals.stats.anchors_pruned += fs.anchors_pruned;
    totals.stats.budgets_tried += fs.budgets_tried;
    totals.stats.sccs_skipped += fs.sccs_skipped;
    totals.stats.peak_dp_bytes =
        std::max(totals.stats.peak_dp_bytes, fs.peak_dp_bytes);

    table.row()
        .cell(static_cast<std::int64_t>(i))
        .cell_fp(serial.wall_ms, 2)
        .cell_fp(parallel.wall_ms, 2)
        .cell(finds)
        .cell_fp(static_cast<double>(fs.dp_rounds) /
                     static_cast<double>(std::max<std::int64_t>(1, finds)),
                 0)
        .cell_fp(static_cast<double>(fs.peak_dp_bytes) / (1 << 20), 2)
        .cell(same ? "yes" : "NO");
  }
  table.print();

  const double pruned_frac =
      static_cast<double>(totals.stats.anchors_pruned) /
      static_cast<double>(totals.stats.anchors_pruned +
                          totals.stats.anchors_scanned);
  const double dp_rounds_per_find =
      static_cast<double>(totals.stats.dp_rounds) /
      static_cast<double>(std::max<std::int64_t>(1, totals.finds));
  std::cout << "\ntotals: serial " << totals.serial_ms << " ms, parallel "
            << totals.parallel_ms << " ms over " << totals.finds
            << " finds\n";
  std::cout << "anchors pruned: " << 100.0 * pruned_frac
            << "%, dp rounds/find: " << dp_rounds_per_find
            << ", SCCs skipped: " << totals.stats.sccs_skipped
            << ", peak DP bytes: " << totals.stats.peak_dp_bytes << "\n";

  if (!out_path.empty()) {
    write_json(out_path, n, static_cast<int>(suite.size()), k, reps, seed,
               smoke, all_identical, totals, pruned_frac, dp_rounds_per_find);
    std::cout << "wrote " << out_path << "\n";
  }

  if (!all_identical) {
    std::cerr << "FAIL: serial and parallel results diverged\n";
    return 1;
  }
  std::cout << "serial and parallel results bit-identical\n";
  return 0;
}
