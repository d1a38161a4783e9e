// Experiment E1 — approximation quality against the exact optimum.
//
// Small random instances (brute-force oracle feasible), both solver modes.
// Reports the distribution of cost/C_OPT and delay/D — the paper's Lemma 3
// bounds these by 2 and 1 (Theorem 4: 2+eps2 and 1+eps1).
//
// Usage: bench_quality [--trials=60] [--n=10] [--seed=1]
#include <iostream>

#include "baselines/brute_force.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

constexpr char kUsage[] =
    "usage: bench_quality [--trials=60] [--n=10] [--seed=1]";

int run(int argc, char** argv) {
  using namespace krsp;
  const util::Cli cli(argc, argv);
  const int trials = static_cast<int>(cli.get_int("trials", 60));
  const int n = static_cast<int>(cli.get_int("n", 10));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  cli.reject_unknown();

  std::cout << "E1: solution quality vs brute-force optimum (n = " << n
            << ", " << trials << " feasible instances per row)\n\n";

  struct Config {
    const char* name;
    core::SolverOptions::Mode mode;
    const char* generator;
    int k;
  };
  const std::vector<Config> configs = {
      {"exact-weights", core::SolverOptions::Mode::kExactWeights, "er", 2},
      {"exact-weights", core::SolverOptions::Mode::kExactWeights, "waxman", 2},
      {"scaled eps=.5", core::SolverOptions::Mode::kScaled, "er", 2},
      {"scaled eps=.5", core::SolverOptions::Mode::kScaled, "waxman", 2},
      {"exact-weights", core::SolverOptions::Mode::kExactWeights, "er", 3},
      {"scaled eps=.5", core::SolverOptions::Mode::kScaled, "er", 3},
      {"exact-weights", core::SolverOptions::Mode::kExactWeights,
       "scale-free", 2},
      {"scaled eps=.5", core::SolverOptions::Mode::kScaled, "scale-free", 2},
  };

  util::Table table({"algorithm", "graphs", "k", "mean c/OPT", "p95 c/OPT",
                     "max c/OPT", "mean d/D", "max d/D", "optimal found"});
  for (const auto& config : configs) {
    core::SolverOptions opt;
    opt.mode = config.mode;
    opt.eps1 = opt.eps2 = 0.5;
    const core::KrspSolver solver(opt);

    util::Stats cost_ratio, delay_ratio;
    int optimal = 0, done = 0;
    while (done < trials) {
      core::RandomInstanceOptions ropt;
      ropt.k = config.k;
      ropt.delay_slack = 0.25;
      auto inst = core::make_random_instance(rng, ropt, [&](util::Rng& r) {
        if (std::string(config.generator) == "waxman") {
          gen::WaxmanParams p;
          p.beta = 0.8;
          p.delay_scale = 15;
          return gen::waxman(r, n, p);
        }
        if (std::string(config.generator) == "scale-free")
          return gen::barabasi_albert(r, n, 2);
        return gen::erdos_renyi(r, n, 0.35);
      });
      if (!inst) continue;
      const auto best = baselines::brute_force_krsp(*inst);
      if (!best) continue;
      const auto s = solver.solve(*inst);
      if (!s.has_paths()) continue;
      ++done;
      cost_ratio.add(static_cast<double>(s.cost) /
                     std::max(1.0, static_cast<double>(best->cost)));
      delay_ratio.add(static_cast<double>(s.delay) /
                      std::max(1.0, static_cast<double>(inst->delay_bound)));
      if (s.cost == best->cost) ++optimal;
    }
    table.row()
        .cell(config.name)
        .cell(config.generator)
        .cell(config.k)
        .cell_fp(cost_ratio.mean())
        .cell_fp(cost_ratio.percentile(95))
        .cell_fp(cost_ratio.max())
        .cell_fp(delay_ratio.mean())
        .cell_fp(delay_ratio.max())
        .cell_fp(100.0 * optimal / trials, 1);
  }
  table.print();
  std::cout << "\nExpected shape: max c/OPT <= 2 (exact) / 2+eps (scaled); "
               "max d/D <= 1 (exact) / 1+eps (scaled); most instances "
               "solved to optimality.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
