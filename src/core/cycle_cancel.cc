#include "core/cycle_cancel.h"

#include <algorithm>

#include "flow/decompose.h"
#include "obs/trace.h"

namespace krsp::core {

CycleCancelResult cancel_cycles(const Instance& inst, const PathSet& start,
                                graph::Cost cost_guess,
                                const CycleCancelOptions& options,
                                BicameralWorkspace* finder_ws) {
  inst.validate();
  std::string why;
  KRSP_CHECK_MSG(start.is_valid(inst, &why), "cancel_cycles start: " << why);

  CycleCancelResult out;
  out.paths = start;
  out.cost = start.total_cost(inst.graph);
  out.delay = start.total_delay(inst.graph);

  std::int64_t max_iterations = options.max_iterations;
  if (max_iterations <= 0) {
    // Lemma 13 bound |D|·Σc·Σd is astronomically loose; in practice the
    // iteration count is small (bench_iterations measures it). Cap the
    // safety valve generously.
    max_iterations = 100000;
  }

  const BicameralCycleFinder finder(options.finder);
  // One residual graph rebuilt in place per round: the digraph's adjacency
  // storage survives across iterations (same shape every time).
  std::optional<ResidualGraph> residual;
  while (out.delay > inst.delay_bound) {
    KRSP_OBS_SPAN("cycle_cancel_round");
    if (out.telemetry.iterations >= max_iterations) {
      out.status = CancelStatus::kIterationLimit;
      return out;
    }
    if (options.deadline.expired()) {
      out.status = CancelStatus::kDeadlineExpired;
      return out;
    }

    BicameralQuery query;
    query.cap = cost_guess;
    query.enforce_cap = !options.unsafe_no_cap;
    if (options.unsafe_no_cap) {
      // Ratio 0 admits every delay-reducing cycle; selection then favors
      // the best ratio — exactly the uncapped greedy of Figure 1.
      query.ratio = util::Rational(0);
    } else {
      const graph::Delay delta_d = inst.delay_bound - out.delay;  // < 0
      const graph::Cost delta_c = cost_guess - out.cost;
      if (delta_c <= 0) {
        // Cap exhausted: by Lemma 11's invariant this means Ĉ < C_OPT (the
        // caller's guess is too small) or the instance is infeasible.
        out.status = CancelStatus::kNoBicameralCycle;
        return out;
      }
      query.ratio = util::Rational(delta_d, delta_c);
      out.telemetry.ratio_trace.push_back(query.ratio);
      const auto k = out.telemetry.ratio_trace.size();
      if (k >= 2 &&
          out.telemetry.ratio_trace[k - 1] < out.telemetry.ratio_trace[k - 2])
        out.telemetry.ratio_monotone = false;
    }

    if (!residual) {
      residual.emplace(inst.graph, out.paths.all_edges());
    } else {
      residual->rebuild(out.paths.all_edges());
    }
    // Each round delegates the restricted (cost-capped) negative-cycle
    // search to the bicameral walk DP over the residual graph.
    const auto cycle = [&] {
      KRSP_OBS_SPAN("bicameral_find");
      return finder.find(*residual, query, &out.telemetry.finder_stats,
                         finder_ws);
    }();
    if (!cycle) {
      out.status = CancelStatus::kNoBicameralCycle;
      return out;
    }
    ++out.telemetry.type_counts[static_cast<int>(cycle->type)];
    ++out.telemetry.iterations;

    const auto new_edges = residual->apply_cycle(cycle->edges);
    auto decomposition =
        flow::decompose_unit_flow(inst.graph, new_edges, inst.s, inst.t,
                                  inst.k);
    // Leftover cycles carry non-negative cost and delay (original weights);
    // dropping them never hurts either bound.
    out.paths = PathSet(std::move(decomposition.paths));
    out.cost = out.paths.total_cost(inst.graph);
    out.delay = out.paths.total_delay(inst.graph);
  }
  out.status = CancelStatus::kSuccess;
  return out;
}

}  // namespace krsp::core
