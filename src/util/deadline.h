// Wall-clock deadline passed through the solver pipeline.
//
// A Deadline is an absolute point in time (steady clock), so it can be
// split across stages and handed to nested solvers without re-anchoring:
// the scaled-mode wrapper passes the same Deadline to its inner
// exact-weights solver, and the resilience controller passes one through
// repair into the full re-solve. Default-constructed deadlines are
// unbounded and cost one branch to test, so every loop can check
// unconditionally.
//
// Checks happen between pipeline iterations (MCMF calls, cancellation
// rounds, cap guesses), so expiry is honored within one iteration's
// latency — a typed degradation step, never a mid-iteration abort that
// could leave an invalid PathSet.
#pragma once

#include <chrono>
#include <limits>
#include <optional>

namespace krsp::util {

class Deadline {
 public:
  /// Unbounded: never expires.
  Deadline() = default;

  /// Expires `seconds` from now; non-positive values mean unbounded
  /// (matching SolverOptions::deadline_seconds <= 0 = disabled), and so do
  /// values past the clock's range, which could never expire.
  static Deadline after_seconds(double seconds) {
    Deadline d;
    if (seconds > 0.0) {
      const Clock::time_point now = Clock::now();
      // Half the headroom leaves room for rounding in the double-to-tick
      // conversion, which must not overflow.
      const double headroom =
          std::chrono::duration<double>(Clock::time_point::max() - now)
              .count();
      if (seconds < headroom / 2)
        d.at_ = now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    }
    return d;
  }

  [[nodiscard]] bool bounded() const { return at_.has_value(); }

  [[nodiscard]] bool expired() const {
    return at_.has_value() && Clock::now() >= *at_;
  }

  /// Seconds until expiry (<= 0 when expired); +inf when unbounded.
  [[nodiscard]] double remaining_seconds() const {
    if (!at_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(*at_ - Clock::now()).count();
  }

  /// The earlier of this deadline and one `seconds` from now — used to
  /// derive per-stage budgets from a whole-solve deadline.
  [[nodiscard]] Deadline clipped_after_seconds(double seconds) const {
    Deadline d = after_seconds(seconds);
    if (!d.at_) return *this;
    if (at_ && *at_ < *d.at_) return *this;
    return d;
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> at_;
};

}  // namespace krsp::util
