// Experiment E2 — algorithm comparison table.
//
// The paper's algorithm (both modes) against the prior art and naive
// baselines on Waxman and grid workloads: cost (normalized to the best
// feasible cost found), delay feasibility, wall time.
//
// Usage: bench_compare [--trials=20] [--seed=2]
#include <iostream>

#include "baselines/flow_only.h"
#include "baselines/larac_k.h"
#include "baselines/os_cycle_cancel.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace krsp;

struct Algo {
  const char* name;
  std::function<core::Solution(const core::Instance&)> run;
};

std::vector<Algo> algorithms() {
  std::vector<Algo> algos;
  algos.push_back({"kRSP exact-weights (paper, Lemma 3)",
                   [](const core::Instance& inst) {
                     core::SolverOptions o;
                     o.mode = core::SolverOptions::Mode::kExactWeights;
                     return core::KrspSolver(o).solve(inst);
                   }});
  algos.push_back({"kRSP scaled eps=0.5 (paper, Thm 4)",
                   [](const core::Instance& inst) {
                     core::SolverOptions o;
                     o.mode = core::SolverOptions::Mode::kScaled;
                     o.eps1 = o.eps2 = 0.5;
                     return core::KrspSolver(o).solve(inst);
                   }});
  algos.push_back({"phase-1 only (Lemma 5 / [9])",
                   [](const core::Instance& inst) {
                     core::SolverOptions o;
                     o.mode = core::SolverOptions::Mode::kPhase1Only;
                     return core::KrspSolver(o).solve(inst);
                   }});
  algos.push_back({"LARAC-k (Lagrangian heuristic)", baselines::larac_k});
  algos.push_back({"OS-style cycle cancel [18]",
                   [](const core::Instance& inst) {
                     return baselines::os_cycle_cancel(inst);
                   }});
  algos.push_back({"min-cost flow (delay-blind)",
                   baselines::min_cost_flow_baseline});
  algos.push_back({"min-delay flow (cost-blind)",
                   baselines::min_delay_flow_baseline});
  return algos;
}

constexpr char kUsage[] = "usage: bench_compare [--trials=20] [--seed=2]";

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int trials = static_cast<int>(cli.get_int("trials", 20));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 2)));
  cli.reject_unknown();

  struct Workload {
    const char* name;
    int k;
    graph::VertexId s, t;  // kInvalidVertex = generator defaults
    std::function<graph::Digraph(util::Rng&)> draw;
  };
  const std::vector<Workload> workloads = {
      {"waxman n=20 k=2", 2, graph::kInvalidVertex, graph::kInvalidVertex,
       [](util::Rng& r) {
         gen::WaxmanParams p;
         p.beta = 0.7;
         p.delay_scale = 12;
         p.cost_max = 12;
         return gen::waxman(r, 20, p);
       }},
      {"grid 5x4 k=2", 2, graph::kInvalidVertex, graph::kInvalidVertex,
       [](util::Rng& r) { return gen::grid(r, 5, 4); }},
      // Grid corners have degree 2; use mid-edge terminals for k = 3.
      {"grid 5x4 k=3 (mid-edge terminals)", 3, 10, 14,
       [](util::Rng& r) { return gen::grid(r, 5, 4); }},
  };

  std::cout << "E2: algorithm comparison (" << trials
            << " instances per workload; cost normalized to the best "
               "delay-feasible cost seen on each instance)\n";

  for (const auto& workload : workloads) {
    // Pre-draw instances so all algorithms see identical inputs.
    std::vector<core::Instance> instances;
    int draw_attempts = 0;
    while (static_cast<int>(instances.size()) < trials &&
           draw_attempts++ < trials * 8) {
      core::RandomInstanceOptions ropt;
      ropt.k = workload.k;
      ropt.delay_slack = 0.3;
      ropt.s = workload.s;
      ropt.t = workload.t;
      auto inst = core::make_random_instance(rng, ropt, workload.draw);
      if (inst) instances.push_back(std::move(*inst));
    }
    if (instances.empty()) {
      std::cout << "\n== workload: " << workload.name
                << " == (no feasible instances drawn, skipped)\n";
      continue;
    }

    // Collect all runs, then normalize per instance.
    const auto algos = algorithms();
    std::vector<std::vector<core::Solution>> runs(algos.size());
    for (std::size_t a = 0; a < algos.size(); ++a)
      for (const auto& inst : instances) runs[a].push_back(algos[a].run(inst));

    std::vector<double> best_cost(instances.size(), 1e100);
    for (std::size_t i = 0; i < instances.size(); ++i)
      for (std::size_t a = 0; a < algos.size(); ++a) {
        const auto& s = runs[a][i];
        if (s.has_paths() && s.delay <= instances[i].delay_bound)
          best_cost[i] =
              std::min(best_cost[i], static_cast<double>(s.cost));
      }

    std::cout << "\n== workload: " << workload.name << " ==\n";
    util::Table table({"algorithm", "cost/best (mean)", "cost/best (max)",
                       "delay<=D %", "mean delay/D", "mean ms"});
    for (std::size_t a = 0; a < algos.size(); ++a) {
      util::Stats ratio, dd, ms;
      int feasible = 0, counted = 0;
      for (std::size_t i = 0; i < instances.size(); ++i) {
        const auto& s = runs[a][i];
        if (!s.has_paths()) continue;
        ++counted;
        if (s.delay <= instances[i].delay_bound) {
          ++feasible;
          if (best_cost[i] >= 1.0)
            ratio.add(static_cast<double>(s.cost) / best_cost[i]);
        }
        dd.add(static_cast<double>(s.delay) /
               std::max(1.0, static_cast<double>(instances[i].delay_bound)));
        ms.add(s.telemetry.wall_seconds * 1e3);
      }
      table.row()
          .cell(algos[a].name)
          .cell_fp(ratio.count() ? ratio.mean() : 0.0)
          .cell_fp(ratio.count() ? ratio.max() : 0.0)
          .cell_fp(counted ? 100.0 * feasible / counted : 0.0, 1)
          .cell_fp(dd.count() ? dd.mean() : 0.0)
          .cell_fp(ms.count() ? ms.mean() : 0.0, 2);
    }
    table.print();
  }
  std::cout << "\nExpected shape: the paper's algorithm matches or beats "
               "LARAC-k / OS-CC on cost while staying delay-feasible; "
               "min-cost flow violates the bound, min-delay flow overpays.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
