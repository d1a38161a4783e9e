// Command-line kRSP solver: reads an instance file (api re-export of the
// core/io.h format), solves it through the krsp::api facade, prints a
// human-readable summary, and optionally writes the path set.
//
//   $ krsp_solve --instance=instance.kri [--mode=scaled|exact|phase1]
//                [--eps1=0.25] [--eps2=0.25] [--deadline=0.5]
//                [--guess=binary|doubling] [--out=solution.krp]
//                [--trace-out=trace.json] [--verbose]
//
// --eps remains as a back-compat alias that sets both eps1 and eps2;
// explicit --eps1/--eps2 win over it. --trace-out enables the obs tracer
// and writes the solve's span timeline (phase1, mcmf, cycle_cancel_round,
// residual_rebuild, bicameral_find, budget_pass) as Chrome trace-event
// JSON for chrome://tracing / ui.perfetto.dev.
#include <fstream>
#include <iostream>
#include <optional>

#include "api/krsp.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/cli.h"

namespace {

constexpr char kUsage[] =
    "usage: krsp_solve --instance=<file> [--mode=scaled|exact|phase1] "
    "[--eps1=0.25] [--eps2=0.25] [--eps=0.25] [--deadline=<seconds>] "
    "[--guess=binary|doubling] [--out=<file>] [--trace-out=<file>] "
    "[--verbose]";

int run(int argc, char** argv) {
  using namespace krsp;
  const util::Cli cli(argc, argv);
  const std::string path = cli.get_string("instance", "");
  const std::string mode = cli.get_string("mode", "scaled");
  const double eps = cli.get_positive("eps", 0.25);  // back-compat alias
  const double eps1 = cli.get_positive("eps1", eps);
  const double eps2 = cli.get_positive("eps2", eps);
  const double deadline = cli.get_double("deadline", 0.0);
  const std::string guess = cli.get_string("guess", "binary");
  const std::string out = cli.get_string("out", "");
  const std::string trace_out = cli.get_string("trace-out", "");
  const bool verbose = cli.get_bool("verbose", false);
  cli.reject_unknown();

  if (path.empty()) {
    std::cerr << kUsage << "\n";
    return 2;
  }
  if (!trace_out.empty()) obs::Tracer::global().enable();

  api::SolveRequest request;
  request.instance = api::read_instance_file(path);
  std::cout << "instance: " << request.instance.summary() << "\n";

  const std::optional<api::Mode> api_mode = api::parse_mode(mode);
  if (!api_mode) {
    std::cerr << "unknown --mode: " << mode << "\n";
    return 2;
  }
  request.mode = *api_mode;
  request.eps1 = eps1;
  request.eps2 = eps2;
  request.deadline_seconds = deadline;
  const std::optional<api::GuessStrategy> api_guess = api::parse_guess(guess);
  if (!api_guess) {
    std::cerr << "unknown --guess: " << guess << "\n";
    return 2;
  }
  request.guess = *api_guess;

  const auto result = api::Solver::solve(request);
  switch (result.status) {
    case api::SolveStatus::kOptimal:
      std::cout << "status: optimal\n";
      break;
    case api::SolveStatus::kApprox:
      std::cout << "status: approx (guarantee of mode '" << mode << "')\n";
      break;
    case api::SolveStatus::kApproxDelayOver:
      std::cout << "status: approx, delay over budget (phase-1 mode)\n";
      break;
    case api::SolveStatus::kInfeasible:
      std::cout << "status: infeasible (no k disjoint paths meet D)\n";
      return 1;
    case api::SolveStatus::kNoKDisjointPaths:
      std::cout << "status: fewer than k disjoint s-t paths exist\n";
      return 1;
    case api::SolveStatus::kFailed:
      std::cout << "status: failed (" << result.error << ")\n";
      return 1;
  }
  if (result.degradation() != api::DegradationStep::kNone)
    std::cout << "degradation: "
              << core::degradation_step_name(result.degradation())
              << " (deadline " << deadline << "s expired)\n";

  const auto& inst = request.instance;
  std::cout << "cost: " << result.cost << "\ndelay: " << result.delay
            << " (budget " << inst.delay_bound << ")\n";
  for (std::size_t i = 0; i < result.paths.paths().size(); ++i) {
    const auto& p = result.paths.paths()[i];
    std::cout << "path " << i + 1 << " (cost "
              << graph::path_cost(inst.graph, p) << ", delay "
              << graph::path_delay(inst.graph, p) << "): " << inst.s;
    for (const graph::EdgeId e : p) std::cout << "->" << inst.graph.edge(e).to;
    std::cout << "\n";
  }
  if (verbose) {
    std::cout << "telemetry: wall " << result.telemetry.wall_seconds * 1e3
              << " ms, mcmf calls " << result.telemetry.phase1_mcmf_calls
              << ", lambda* " << result.telemetry.lambda << ", C_LP "
              << result.telemetry.cost_lower_bound << ", cap guess "
              << result.telemetry.cost_guess_used << ", cancellation iters "
              << result.telemetry.cancel.iterations << "\n";
  }
  if (!out.empty()) {
    std::ofstream os(out);
    KRSP_CHECK_MSG(os.good(), "cannot open for write: " << out);
    api::write_paths(os, result.paths);
    std::cout << "wrote " << out << "\n";
  }
  if (!trace_out.empty()) {
    std::string trace_error;
    if (!obs::write_chrome_trace_file(trace_out, &trace_error)) {
      std::cerr << "krsp_solve: --trace-out: " << trace_error << "\n";
      return 1;
    }
    std::cout << "wrote trace " << trace_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
