#include "core/scaling.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "util/rational.h"

namespace krsp::core {

namespace {

constexpr double kTwo63 = 9223372036854775808.0;

/// An integral double as int64, clamped to the int64 range (NaN to the
/// top): the plain conversion is undefined past 2^63, which (1+ε)·D
/// reaches for a huge but finite ε.
std::int64_t saturate(double x) {
  if (!(x < kTwo63)) return std::numeric_limits<std::int64_t>::max();
  if (x < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(x);
}

/// S = ⌈kn/ε⌉ when S < bound, the only case in which scaling shrinks the
/// weights; nullopt otherwise. Decided in floating point first, because
/// for a tiny ε the quotient is past int64.
std::optional<std::int64_t> scale_below(double kn, double eps,
                                        std::int64_t bound) {
  const double s = std::ceil(kn / eps);
  if (!(s < kTwo63) || static_cast<std::int64_t>(s) >= bound)
    return std::nullopt;
  return static_cast<std::int64_t>(s);
}

/// ⌊w·num/den⌋ with the product in 128 bits: w·S can pass int64, the
/// quotient cannot, since S = num < den.
std::int64_t scale_weight(std::int64_t w, std::int64_t num,
                          std::int64_t den) {
  return static_cast<std::int64_t>(static_cast<util::Int128>(w) * num / den);
}

}  // namespace

graph::Delay scaled_delay_limit(double eps1, graph::Delay delay_bound) {
  return saturate(
      std::floor((1.0 + eps1) * static_cast<double>(delay_bound)));
}

graph::Cost scaled_cost_limit(double eps2, graph::Cost cost_guess) {
  return saturate(std::ceil((2.0 + eps2) * static_cast<double>(cost_guess)));
}

ScaledInstance scale_instance(const Instance& inst, double eps1, double eps2,
                              graph::Cost cost_guess) {
  KRSP_CHECK(eps1 > 0 && eps2 > 0);
  ScaledInstance out;
  out.scaled.s = inst.s;
  out.scaled.t = inst.t;
  out.scaled.k = inst.k;
  out.scaled.delay_bound = inst.delay_bound;

  const auto kn = static_cast<double>(inst.k) *
                  static_cast<double>(inst.graph.num_vertices());
  if (const auto s_d = scale_below(kn, eps1, inst.delay_bound)) {
    out.delay_scaled = true;
    out.delay_num = *s_d;
    out.delay_den = inst.delay_bound;
    out.scaled.delay_bound = *s_d;
  }
  if (const auto s_c = scale_below(kn, eps2, cost_guess)) {
    out.cost_scaled = true;
    out.cost_num = *s_c;
    out.cost_den = cost_guess;
  }

  out.scaled.graph.resize(inst.graph.num_vertices());
  for (const auto& e : inst.graph.edges()) {
    const graph::Delay d =
        out.delay_scaled ? scale_weight(e.delay, out.delay_num, out.delay_den)
                         : e.delay;
    const graph::Cost c =
        out.cost_scaled ? scale_weight(e.cost, out.cost_num, out.cost_den)
                        : e.cost;
    out.scaled.graph.add_edge(e.from, e.to, c, d);
  }
  return out;
}

}  // namespace krsp::core
