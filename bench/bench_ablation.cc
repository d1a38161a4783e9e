// Experiment E9 — ablations of the solver's design knobs (DESIGN.md §3).
//
//   (a) cap guess strategy: binary search (certified 2(C_OPT+1)) vs
//       doubling (faster, cap within 2x);
//   (b) finder initial budget: the doubling schedule's starting point;
//   (c) bounded DP rounds: max_rounds below n voids the witness guarantee —
//       measures how often the finder then misses (falls back to F_hi).
//
// Usage: bench_ablation [--trials=25] [--n=12] [--seed=9]
#include <iostream>

#include "core/solver.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace krsp;

struct Config {
  const char* name;
  core::SolverOptions options;
};

constexpr char kUsage[] =
    "usage: bench_ablation [--trials=25] [--n=12] [--seed=9]";

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int trials = static_cast<int>(cli.get_int("trials", 25));
  const int n = static_cast<int>(cli.get_int("n", 12));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 9)));
  cli.reject_unknown();

  // Cancellation-engaging instances only (the knobs are no-ops otherwise).
  std::vector<core::Instance> instances;
  {
    const core::KrspSolver probe{[&] {
      core::SolverOptions o;
      o.mode = core::SolverOptions::Mode::kExactWeights;
      return o;
    }()};
    int attempts = 0;
    while (static_cast<int>(instances.size()) < trials &&
           attempts++ < trials * 100) {
      core::RandomInstanceOptions io;
      io.k = 2;
      io.delay_slack = 0.15;
      auto inst = core::random_er_instance(rng, n, 0.35, io);
      if (!inst) continue;
      const auto s = probe.solve(*inst);
      if (!s.has_paths() || s.telemetry.guess_attempts == 0) continue;
      instances.push_back(std::move(*inst));
    }
  }
  std::cout << "E9: design-knob ablations on " << instances.size()
            << " cancellation-engaging ER instances (n = " << n << ")\n\n";

  std::vector<Config> configs;
  {
    core::SolverOptions base;
    base.mode = core::SolverOptions::Mode::kExactWeights;
    Config c{"baseline (binary search, budget 8, rounds n)", base};
    configs.push_back(c);

    core::SolverOptions doubling = base;
    doubling.guess = core::SolverOptions::GuessStrategy::kDoubling;
    configs.push_back({"doubling cap guesses", doubling});

    core::SolverOptions b1 = base;
    b1.cancel.finder.initial_budget = 1;
    configs.push_back({"initial budget 1", b1});

    core::SolverOptions b64 = base;
    b64.cancel.finder.initial_budget = 64;
    configs.push_back({"initial budget 64", b64});

    core::SolverOptions r4 = base;
    r4.cancel.finder.max_rounds = 4;
    configs.push_back({"DP rounds capped at 4 (unsound)", r4});

    core::SolverOptions r2 = base;
    r2.cancel.finder.max_rounds = 2;
    configs.push_back({"DP rounds capped at 2 (unsound)", r2});
  }

  util::Table table({"configuration", "mean cost", "max cost/baseline",
                     "mean ms", "mean guesses", "fallback used %"});
  std::vector<graph::Cost> baseline_cost;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const core::KrspSolver solver(configs[c].options);
    util::Stats cost, ms, guesses, ratio;
    int fallbacks = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto s = solver.solve(instances[i]);
      KRSP_CHECK(s.has_paths());
      if (c == 0) baseline_cost.push_back(s.cost);
      cost.add(static_cast<double>(s.cost));
      ratio.add(static_cast<double>(s.cost) /
                std::max(1.0, static_cast<double>(baseline_cost[i])));
      ms.add(s.telemetry.wall_seconds * 1e3);
      guesses.add(static_cast<double>(s.telemetry.guess_attempts));
      if (s.telemetry.used_feasible_fallback) ++fallbacks;
    }
    table.row()
        .cell(configs[c].name)
        .cell_fp(cost.mean(), 1)
        .cell_fp(ratio.max())
        .cell_fp(ms.mean(), 2)
        .cell_fp(guesses.mean(), 1)
        .cell_fp(instances.empty()
                     ? 0.0
                     : 100.0 * fallbacks / static_cast<double>(
                                               instances.size()),
                 1);
  }
  table.print();
  std::cout << "\nExpected shape: doubling trades a slightly worse cap for "
               "fewer guesses; initial budget only shifts constant factors; "
               "capping DP rounds below n forces phase-1 fallbacks (the "
               "witness guarantee needs up to n rounds) while never "
               "violating validity.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
