// Experiment E6 — runtime scaling (Lemma 13 / Theorem 17 vs Theorem 4).
//
// Two sweeps:
//   (a) wall time vs n at fixed density, both modes;
//   (b) wall time vs weight magnitude at fixed n — the pseudo-polynomial
//       exact-weights core degrades with the cost range while the scaled
//       solver stays flat (its state space depends on k*n/eps only).
//
// Usage: bench_scaling [--trials=5] [--seed=6]
#include <iostream>

#include "core/solver.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace krsp;

util::Stats run_mode(core::SolverOptions::Mode mode,
                     const std::vector<core::Instance>& instances) {
  core::SolverOptions opt;
  opt.mode = mode;
  opt.eps1 = opt.eps2 = 0.5;
  const core::KrspSolver solver(opt);
  util::Stats ms;
  for (const auto& inst : instances) {
    const auto s = solver.solve(inst);
    KRSP_CHECK(s.has_paths() || s.status == core::SolveStatus::kInfeasible);
    ms.add(s.telemetry.wall_seconds * 1e3);
  }
  return ms;
}

constexpr char kUsage[] = "usage: bench_scaling [--trials=5] [--seed=6]";

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int trials = static_cast<int>(cli.get_int("trials", 5));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 6)));
  cli.reject_unknown();

  std::cout << "E6(a): wall time vs n (ER graphs, ~4n edges, weights <= 12, "
            << trials << " instances per row)\n\n";
  util::Table ta({"n", "exact-weights mean ms", "scaled mean ms"});
  for (const int n : {8, 12, 16, 24, 32}) {
    gen::WeightRange w;
    w.cost_max = 12;
    w.delay_max = 12;
    std::vector<core::Instance> instances;
    while (static_cast<int>(instances.size()) < trials) {
      core::RandomInstanceOptions io;
      io.k = 2;
      io.delay_slack = 0.25;
      auto inst = core::random_er_instance(
          rng, n, std::min(0.9, 4.0 / n), io, w);
      if (inst) instances.push_back(std::move(*inst));
    }
    ta.row()
        .cell(n)
        .cell_fp(run_mode(core::SolverOptions::Mode::kExactWeights, instances)
                     .mean(),
                 2)
        .cell_fp(run_mode(core::SolverOptions::Mode::kScaled, instances)
                     .mean(),
                 2);
  }
  ta.print();

  std::cout << "\nE6(b): wall time vs weight magnitude (n = 12, cost/delay "
               "in [1, W])\n\n";
  util::Table tb({"W", "exact-weights mean ms", "scaled mean ms"});
  for (const int W : {8, 32, 128, 512}) {
    gen::WeightRange w;
    w.cost_max = W;
    w.delay_max = W;
    std::vector<core::Instance> instances;
    while (static_cast<int>(instances.size()) < trials) {
      core::RandomInstanceOptions io;
      io.k = 2;
      io.delay_slack = 0.25;
      auto inst = core::random_er_instance(rng, 12, 0.35, io, w);
      if (inst) instances.push_back(std::move(*inst));
    }
    tb.row()
        .cell(W)
        .cell_fp(run_mode(core::SolverOptions::Mode::kExactWeights, instances)
                     .mean(),
                 2)
        .cell_fp(run_mode(core::SolverOptions::Mode::kScaled, instances)
                     .mean(),
                 2);
  }
  tb.print();
  std::cout << "\nExpected shape: both modes grow with n; the exact-weights "
               "mode grows with W (pseudo-polynomial budget dimension) "
               "while the scaled mode flattens once scaling engages.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
