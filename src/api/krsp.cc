#include "api/krsp.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/deadline.h"

namespace krsp::api {

core::SolverOptions to_solver_options(const SolveRequest& request) {
  core::SolverOptions options;
  options.mode = request.mode;
  options.eps1 = request.eps1;
  options.eps2 = request.eps2;
  options.guess = request.guess;
  options.deadline_seconds = request.deadline_seconds;
  return options;
}

std::optional<Mode> parse_mode(std::string_view name) {
  if (name == "scaled") return Mode::kScaled;
  if (name == "exact") return Mode::kExactWeights;
  if (name == "phase1") return Mode::kPhase1Only;
  return std::nullopt;
}

std::optional<GuessStrategy> parse_guess(std::string_view name) {
  if (name == "binary") return GuessStrategy::kBinarySearch;
  if (name == "doubling") return GuessStrategy::kDoubling;
  return std::nullopt;
}

std::optional<SlaClass> parse_sla_class(std::string_view name) {
  if (name == "interactive") return SlaClass::kInteractive;
  if (name == "batch") return SlaClass::kBatch;
  return std::nullopt;
}

const char* sla_class_name(SlaClass cls) {
  switch (cls) {
    case SlaClass::kInteractive:
      return "interactive";
    case SlaClass::kBatch:
      return "batch";
  }
  return "unknown";
}

const char* status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kApprox:
      return "approx";
    case SolveStatus::kApproxDelayOver:
      return "approx-delay-over";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kNoKDisjointPaths:
      return "no-k-disjoint-paths";
    case SolveStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

core::Instance SolveRequest::materialized_instance() const {
  core::Instance inst = instance_view();  // shares the graph's storage
  if (topology != nullptr && query_override) {
    inst.s = query_override->s;
    inst.t = query_override->t;
    inst.k = query_override->k;
    inst.delay_bound = query_override->delay_bound;
    inst.validate_query();
  }
  return inst;
}

namespace {

// Resolved once per mode: the registry lookup is get-or-create under a
// mutex, too heavy for the per-solve path.
obs::Histogram& solve_wall_histogram(Mode mode) {
  static obs::Histogram* per_mode[] = {
      &obs::Registry::global().histogram("krsp_solve_wall_ns",
                                         "mode=\"scaled\""),
      &obs::Registry::global().histogram("krsp_solve_wall_ns",
                                         "mode=\"exact\""),
      &obs::Registry::global().histogram("krsp_solve_wall_ns",
                                         "mode=\"phase1\""),
  };
  return *per_mode[static_cast<int>(mode)];
}

SolveResult solve_request(const SolveRequest& request,
                          const util::Deadline& deadline,
                          core::SolveWorkspace* ws) {
  KRSP_OBS_SPAN("solve");
  SolveResult out;
  out.tag = request.tag;
  try {
    const core::KrspSolver solver(to_solver_options(request));
    // The concrete instance is built here, the only point that needs it:
    // an O(1) copy sharing the graph's storage, with a pending override's
    // query applied. Cache hits and routing decisions upstream key on the
    // override symbolically and never materialize it. A bad override, or
    // any instance phase 1's full check refuses, throws and lands in the
    // catch below.
    core::Solution sol =
        solver.solve(request.materialized_instance(), deadline, ws);
    out.status = sol.status;
    out.paths = std::move(sol.paths);
    out.cost = sol.cost;
    out.delay = sol.delay;
    out.telemetry = sol.telemetry;
  } catch (const std::exception& e) {
    out.status = SolveStatus::kFailed;
    out.error = e.what();
  }
  solve_wall_histogram(request.mode)
      .record(static_cast<std::uint64_t>(
          std::max(0.0, out.telemetry.wall_seconds) * 1e9));
  return out;
}

/// The request deadline anchors here — at execution start, not enqueue.
util::Deadline anchored(const SolveRequest& request) {
  return util::Deadline::after_seconds(request.deadline_seconds);
}

}  // namespace

SolveResult Solver::solve(const SolveRequest& request) {
  return solve_request(request, anchored(request), nullptr);
}

SolveResult Solver::solve(const SolveRequest& request,
                          SolveWorkspace& workspace) {
  return solve_request(request, anchored(request), &workspace);
}

SolveResult Solver::solve(const SolveRequest& request,
                          const util::Deadline& deadline,
                          SolveWorkspace& workspace) {
  return solve_request(request, deadline, &workspace);
}

}  // namespace krsp::api
