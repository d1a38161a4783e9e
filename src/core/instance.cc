#include "core/instance.h"

#include <functional>
#include <limits>
#include <sstream>

#include "flow/dinic.h"
#include "flow/disjoint.h"

namespace krsp::core {

std::string query_error(std::int64_t n, std::int64_t s, std::int64_t t,
                        std::int64_t k, std::int64_t delay_bound) {
  if (s < 0 || s >= n) return "bad source " + std::to_string(s);
  if (t < 0 || t >= n) return "bad sink " + std::to_string(t);
  if (s == t) return "s == t";
  if (k < 1 || k > std::numeric_limits<int>::max())
    return "k = " + std::to_string(k);
  if (delay_bound < 0) return "D = " + std::to_string(delay_bound);
  return {};
}

void Instance::validate_query() const {
  const std::string why =
      query_error(graph.num_vertices(), s, t, k, delay_bound);
  KRSP_CHECK_MSG(why.empty(), "instance: " << why);
}

void Instance::validate() const {
  validate_query();
  for (const auto& e : graph.edges()) {
    KRSP_CHECK_MSG(e.cost >= 0, "instance: negative cost edge");
    KRSP_CHECK_MSG(e.delay >= 0, "instance: negative delay edge");
  }
}

std::string Instance::summary() const {
  std::ostringstream os;
  os << graph.summary() << " s=" << s << " t=" << t << " k=" << k
     << " D=" << delay_bound;
  return os.str();
}

bool has_k_disjoint_paths(const Instance& inst) {
  return flow::max_edge_disjoint_paths(inst.graph, inst.s, inst.t) >= inst.k;
}

std::optional<graph::Delay> min_possible_delay(const Instance& inst) {
  const auto best =
      flow::min_weight_disjoint_paths(inst.graph, inst.s, inst.t, inst.k,
                                      /*w_cost=*/0, /*w_delay=*/1);
  if (!best) return std::nullopt;
  return best->total_delay;
}

std::optional<Instance> make_random_instance(
    util::Rng& rng, const RandomInstanceOptions& options,
    const std::function<graph::Digraph(util::Rng&)>& draw) {
  KRSP_CHECK(options.k >= 1);
  KRSP_CHECK(options.delay_slack >= 0.0);
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    Instance inst;
    inst.graph = draw(rng);
    if (inst.graph.num_vertices() < 2) continue;
    inst.s = options.s != graph::kInvalidVertex ? options.s : 0;
    inst.t = options.t != graph::kInvalidVertex
                 ? options.t
                 : static_cast<graph::VertexId>(inst.graph.num_vertices() - 1);
    if (!inst.graph.is_vertex(inst.s) || !inst.graph.is_vertex(inst.t) ||
        inst.s == inst.t)
      continue;
    inst.k = options.k;
    const auto min_delay = min_possible_delay(inst);
    if (!min_delay) continue;
    // Least delay among min-cost k-flows: the natural "free" end of the
    // range. Priced lexicographically (phase 1's first call), so D is an
    // optimal value and not whichever min-cost flow the solver returns.
    const auto by_cost = flow::min_weight_disjoint_paths(
        inst.graph, inst.s, inst.t, inst.k,
        /*w_cost=*/inst.graph.total_delay() + 1, /*w_delay=*/1);
    KRSP_CHECK(by_cost.has_value());
    const auto spread =
        static_cast<double>(by_cost->total_delay - *min_delay);
    inst.delay_bound =
        *min_delay +
        static_cast<graph::Delay>(options.delay_slack * std::max(0.0, spread));
    inst.validate();
    return inst;
  }
  return std::nullopt;
}

std::optional<Instance> random_er_instance(util::Rng& rng, int n, double p,
                                           const RandomInstanceOptions& opt,
                                           const gen::WeightRange& w) {
  return make_random_instance(rng, opt, [&](util::Rng& r) {
    return gen::erdos_renyi(r, n, p, w);
  });
}

}  // namespace krsp::core
