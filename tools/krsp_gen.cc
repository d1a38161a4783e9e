// Command-line instance generator: writes a kRSP instance drawn from any
// of the library's workload families, as text (.kri, core/io.h) or as a
// zero-copy binary container (.krspb, store/format.h) chosen by the
// --out suffix.
//
//   $ krsp_gen --family=waxman --n=30 --k=2 --slack=0.3 --seed=7
//              --out=instance.kri
//   $ krsp_gen --family=ba --n=4000 --attach=2 --k=2 --out=scalefree.krspb
//
// Families: er, waxman, grid, layered, isp, ba, chains.
//   --attach        (ba)  preferential-attachment arcs per new vertex
//   --core, --regions, --region-size  (isp)  topology sizing
#include <cmath>
#include <iostream>

#include "core/io.h"
#include "graph/generators.h"
#include "store/container.h"
#include "util/cli.h"

namespace {

constexpr char kUsage[] =
    "usage: krsp_gen [--family=er|waxman|grid|layered|isp|ba|chains] "
    "[--n=20] [--k=2] [--slack=0.3] [--seed=1] [--attach=2] [--core=8] "
    "[--regions=4] [--region-size=5] [--out=instance.kri|.krspb]";

int run(int argc, char** argv) {
  using namespace krsp;
  const util::Cli cli(argc, argv);
  const std::string family = cli.get_string("family", "er");
  const int n = static_cast<int>(cli.get_int("n", 20));
  const int k = static_cast<int>(cli.get_int("k", 2));
  const double slack = cli.get_double("slack", 0.3);
  const int attach = static_cast<int>(cli.get_int("attach", 2));
  const int core = static_cast<int>(cli.get_int("core", 8));
  const int regions = static_cast<int>(cli.get_int("regions", 4));
  const int region_size = static_cast<int>(cli.get_int("region-size", 5));
  const std::string out = cli.get_string("out", "instance.kri");
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  cli.reject_unknown();

  core::RandomInstanceOptions opt;
  opt.k = k;
  opt.delay_slack = slack;
  opt.max_attempts = 256;

  const auto draw = [&](util::Rng& r) -> graph::Digraph {
    if (family == "er") return gen::erdos_renyi(r, n, std::min(0.9, 5.0 / n));
    if (family == "waxman") {
      gen::WaxmanParams p;
      p.beta = 0.7;
      return gen::waxman(r, n, p);
    }
    if (family == "grid") {
      const int side = std::max(2, static_cast<int>(std::sqrt(n)));
      return gen::grid(r, side, side);
    }
    if (family == "layered")
      return gen::layered_dag(r, std::max(2, n / 6), 5, 0.4, k);
    if (family == "isp") {
      gen::IspParams p;
      p.core_size = core;
      p.region_count = regions;
      p.region_size = region_size;
      return gen::isp_like(r, p);
    }
    if (family == "ba") return gen::barabasi_albert(r, n, attach);
    if (family == "chains") return gen::tradeoff_chains(r, k, 4, 8, 6);
    KRSP_CHECK_MSG(false, "unknown family: " << family);
  };

  const auto inst = core::make_random_instance(rng, opt, draw);
  if (!inst) {
    std::cerr << "could not draw a feasible instance (family=" << family
              << ", n=" << n << ", k=" << k << ")\n";
    return 1;
  }
  const bool binary = out.size() >= 6 && out.ends_with(".krspb");
  if (binary) {
    store::CsrContainer::write_file(out, *inst);
  } else {
    core::write_instance_file(out, *inst);
  }
  std::cout << "wrote " << out << (binary ? " (container)" : "") << ": "
            << inst->summary() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
