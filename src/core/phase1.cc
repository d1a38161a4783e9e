#include "core/phase1.h"

#include <optional>
#include <utility>

#include "flow/disjoint.h"
#include "obs/trace.h"
#include "paths/dijkstra.h"

namespace krsp::core {

namespace {

using flow::DisjointPaths;
using util::Rational;

struct Candidate {
  DisjointPaths flow;
  graph::Cost cost() const { return flow.total_cost; }
  graph::Delay delay() const { return flow.total_delay; }
};

}  // namespace

Phase1Result phase1_lagrangian(const Instance& inst,
                               const util::Deadline& deadline,
                               flow::McfWorkspace* ws) {
  KRSP_OBS_SPAN("phase1");
  inst.validate();
  Phase1Result out;

  // Σcost and Σdelay are checked (they throw on overflow) and bound every
  // path's cost and delay, so no search below can overflow.
  const graph::Cost cost_sum = inst.graph.total_cost();
  const graph::Delay delay_sum = inst.graph.total_delay();

  // Once per run: each vertex's cost and delay distance to t, which make
  // every MCMF search an A* toward t.
  const flow::SinkDistances sink{
      paths::dijkstra_to(inst.graph, inst.t, paths::EdgeWeight::cost()),
      paths::dijkstra_to(inst.graph, inst.t, paths::EdgeWeight::delay())};

  std::optional<flow::McfWorkspace> local;
  if (ws == nullptr) ws = &local.emplace();
  const auto kflow = [&](std::int64_t w_cost,
                         std::int64_t w_delay) -> std::optional<Candidate> {
    ++out.mcmf_calls;
    auto f = flow::min_weight_disjoint_paths(inst.graph, inst.s, inst.t,
                                             inst.k, w_cost, w_delay, ws,
                                             &sink);
    out.vertices_settled += ws->vertices_settled();
    if (!f) return std::nullopt;
    return Candidate{std::move(*f)};
  };

  // Min-cost flow, ignoring delay. Among min-cost flows prefer low delay
  // (lexicographic tie-break) so loose budgets are recognized as optimal.
  auto f_cost = kflow(util::checked_add(delay_sum, 1, "Σdelay + 1"), 1);
  if (!f_cost) {
    out.status = Phase1Status::kNoKDisjointPaths;
    return out;
  }
  if (f_cost->delay() <= inst.delay_bound) {
    out.status = Phase1Status::kOptimal;
    out.paths = PathSet(std::move(f_cost->flow.paths));
    out.cost = f_cost->cost();
    out.delay = f_cost->delay();
    out.cost_lower_bound = Rational(out.cost);
    out.lambda = Rational(0);
    out.feasible_alternative = out.paths;
    return out;
  }

  // Min-delay flow (cost as tie-break). Infeasible if even this misses D.
  auto f_delay = kflow(1, util::checked_add(cost_sum, 1, "Σcost + 1"));
  KRSP_CHECK(f_delay.has_value());
  if (f_delay->delay() > inst.delay_bound) {
    out.status = Phase1Status::kInfeasible;
    return out;
  }

  // LARAC on λ: F_lo is the infeasible low-cost side, F_hi the feasible
  // higher-cost side. λ is the (exact, rational) slope between them.
  Candidate f_lo = std::move(*f_cost);
  Candidate f_hi = std::move(*f_delay);
  Rational lambda(0);
  constexpr int kMaxIterations = 500;
  for (int iter = 0;; ++iter) {
    KRSP_CHECK_MSG(iter < kMaxIterations, "LARAC failed to converge");
    if (deadline.expired()) {
      out.deadline_hit = true;
      break;
    }
    KRSP_CHECK(f_lo.delay() > f_hi.delay());
    lambda = Rational(f_hi.cost() - f_lo.cost(), f_lo.delay() - f_hi.delay());
    KRSP_CHECK(lambda >= Rational(0));
    const std::int64_t q = lambda.den();
    const std::int64_t p = lambda.num();
    auto f = kflow(q, p);
    KRSP_CHECK(f.has_value());
    const auto combined = [&](const Candidate& c) {
      return util::checked_add(util::checked_mul(q, c.cost(), "LARAC weight"),
                               util::checked_mul(p, c.delay(), "LARAC weight"),
                               "LARAC weight");
    };
    if (combined(*f) >= combined(f_lo)) break;  // λ* found (line supported)
    if (f->delay() > inst.delay_bound) {
      f_lo = std::move(*f);
    } else {
      f_hi = std::move(*f);
    }
  }

  // Dual value at λ*: the certified LP lower bound on C_OPT.
  const Rational lb = Rational(f_lo.cost()) +
                      lambda * Rational(f_lo.delay() - inst.delay_bound);
  KRSP_CHECK(lb >= Rational(0));

  // Select the candidate minimizing d/D + c/LB (Lemma 5 score). With D > 0
  // and LB > 0 compare exactly via rationals; degenerate cases fall back to
  // the feasible candidate, which is then provably optimal or trivially the
  // right answer (see header).
  const Candidate* chosen = &f_hi;
  if (inst.delay_bound > 0 && !lb.is_zero()) {
    const auto score = [&](const Candidate& c) {
      return Rational(c.delay(), inst.delay_bound) + Rational(c.cost()) / lb;
    };
    if (score(f_lo) < score(f_hi)) chosen = &f_lo;
  }

  out.status = Phase1Status::kApprox;
  out.cost = chosen->cost();
  out.delay = chosen->delay();
  out.cost_lower_bound = lb;
  out.lambda = lambda;
  out.feasible_alternative = PathSet(f_hi.flow.paths);
  // Note: `chosen` may alias f_hi; copy before any move.
  out.paths = PathSet(chosen->flow.paths);
  return out;
}

}  // namespace krsp::core
