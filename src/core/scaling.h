// Weight scaling for Theorem 4: floor-scale delays against the budget D and
// costs against a guess Ĉ for C_OPT so the pseudo-polynomial core becomes
// polynomial, at the price of (1+ε1) delay / (+ε2 cost) slack.
//
// With S_d = ceil(k·n/ε1) and d'(e) = floor(d(e)·S_d / D), any k-path
// system feasible for (d, D) is feasible for (d', D' = S_d), and any system
// with Σd' <= S_d has Σd <= (1+ε1)·D (each path has < n edges, k paths lose
// < k·n·D/S_d <= ε1·D to flooring). Costs scale the same way against Ĉ.
#pragma once

#include "core/instance.h"

namespace krsp::core {

struct ScaledInstance {
  Instance scaled;  // identical topology and edge order, scaled weights
  bool delay_scaled = false;
  bool cost_scaled = false;
  /// d' = floor(d * delay_num / delay_den) when delay_scaled.
  std::int64_t delay_num = 1, delay_den = 1;
  /// c' = floor(c * cost_num / cost_den) when cost_scaled.
  std::int64_t cost_num = 1, cost_den = 1;
};

/// Scales `inst`. Scaling is skipped per-dimension when it would not shrink
/// the weights (S >= D or S >= cost_guess) — then the exact weights are
/// already polynomial-sized. cost_guess <= 0 disables cost scaling.
ScaledInstance scale_instance(const Instance& inst, double eps1, double eps2,
                              graph::Cost cost_guess);

/// ⌊(1+ε1)·D⌋, the delay a Theorem-4 solution may reach, and ⌈(2+ε2)·Ĉ⌉,
/// the cost one found under the guess Ĉ may reach. Both saturate at the
/// int64 range, so any finite ε > 0 is safe.
[[nodiscard]] graph::Delay scaled_delay_limit(double eps1,
                                              graph::Delay delay_bound);
[[nodiscard]] graph::Cost scaled_cost_limit(double eps2,
                                            graph::Cost cost_guess);

}  // namespace krsp::core
