// Bicameral cycle computation (Definition 10 + Algorithm 3).
//
// The finder searches the residual graph G̃ for a cycle O that is
//   type-0:  d(O) < 0, c(O) <= 0   or   d(O) <= 0, c(O) < 0
//   type-1:  d(O) < 0, 0 < c(O) <= cap,   d(O)/c(O) <= r
//   type-2:  d(O) >= 0, -cap <= c(O) < 0, d(O)/c(O) > r
//            (strict, strengthening Definition 10's >=; see classify())
// where r = ΔD/ΔC < 0 is the live ratio of Definition 10 and cap plays the
// role of C_OPT (the solver passes its certified cost guess Ĉ >= C_OPT).
//
// Realization of Algorithms 2–3: instead of materializing H_v^±(B) and
// solving LP (6), the finder runs a Bellman–Ford DP over the implicit
// product states (vertex, cost-layer), bounded per anchor to |SCC(anchor)|
// rounds (the witness cycles of Theorem 16 — optimal ⊕ current — are
// simple and confined to one strongly connected component). Min-delay
// closed walks are decomposed into simple residual cycles and classified;
// type-0 hits return immediately, otherwise the best qualifying
// type-1/type-2 candidate of the first productive budget wins. Budgets B
// follow a doubling schedule up to 2·cap (the binary-search refinement the
// paper sketches in §4.2, with headroom for seed rotations). The LP-based
// reference finder (core/lp_cycle_finder.h) cross-validates this
// component in tests.
//
// Residual-structure pruning (DESIGN.md §3). Every qualifying cycle has
// negative total cost or negative total delay, so it contains at least one
// arc with cost < 0 or delay < 0, and — like any cycle — lives entirely
// inside one SCC of G̃. The finder therefore anchors its H⁺ scans only at
// the *heads* of negative arcs (the min-cost-prefix rotation of a
// qualifying cycle starts at one) and its H⁻ scans only at the *tails*
// (max-prefix rotation), skips every SCC with no internal negative arc,
// runs each anchor's DP on its own SCC with compacted vertex ids
// (|scc|·(budget+1) states instead of n·(budget+1)), and stores the DP in
// flat rolling arrays.
//
// Walk-length deepening. Capped finds run the budget schedule once per
// walk-length cap R = 16, 32, … up to the largest per-anchor bound
// min(max_rounds, |SCC|); each step clamps the budget ceiling to R·max|c|
// (exact: an R-edge walk cannot leave that range), skips anchors whose
// bound an earlier step already reached, and returns at the first step
// that yields a qualifying cycle. The last step is the full scan, so the
// finder still returns a qualifying cycle exactly when one exists; any one
// sustains Lemmas 11/12 (DESIGN.md §3's early-accept argument).
//
// Note on Algorithm 3 step 2-3 as printed: the brief announcement selects
// O2 by "minimum d/c with c < 0" and compares absolute ratios; consistent
// with Definition 10 and the proofs of Lemma 12 / Theorem 16, the correct
// extremal choice is *maximum* d/c for type-2 (and minimum for type-1), and
// qualification is checked against r directly. We implement the latter and
// document the discrepancy here and in DESIGN.md.
#pragma once

#include <memory>
#include <optional>

#include "core/residual.h"
#include "util/rational.h"

namespace krsp::core {

enum class CycleType { kType0, kType1, kType2 };

struct FoundCycle {
  std::vector<graph::EdgeId> edges;  // residual edge ids
  graph::Cost cost = 0;
  graph::Delay delay = 0;
  CycleType type = CycleType::kType0;
};

struct BicameralQuery {
  /// Definition 10 cost cap (C_OPT stand-in; the solver's guess Ĉ).
  graph::Cost cap = 0;
  /// r = ΔD/ΔC. Must be negative in Algorithm 1's loop (delay over budget,
  /// cost below cap).
  util::Rational ratio = 0;
  /// Ablation switch: false reproduces the Figure-1 pathology by selecting
  /// the best-ratio delay-reducing cycle with no cost cap.
  bool enforce_cap = true;
};

struct BicameralStats {
  std::int64_t anchors_scanned = 0;
  std::int64_t walks_examined = 0;
  std::int64_t cycles_classified = 0;
  std::int64_t budgets_tried = 0;
  /// Bellman–Ford relaxation rounds, summed over anchor scans — the
  /// kernel's host-independent work measure.
  std::int64_t dp_rounds = 0;
  /// Anchors NOT scanned relative to the classical all-vertices scan,
  /// summed over (budget, sign) passes: non-seed vertices plus seeds whose
  /// SCC has no internal negative arc.
  std::int64_t anchors_pruned = 0;
  /// SCCs containing at least one seed anchor but no internal negative arc
  /// — their anchors are provably barren and skipped (counted once per
  /// find() call).
  std::int64_t sccs_skipped = 0;
  /// High-water mark of the DP tables (dist rows + parent records) across
  /// all anchors, in bytes. Max-aggregated, never summed.
  std::int64_t peak_dp_bytes = 0;
};

/// Reusable scratch for BicameralCycleFinder::find: the layered Bellman–
/// Ford tables over the (vertex, cost-layer) product states, which dominate
/// the finder's allocations — flat rolling dist rows plus packed per-round
/// parent records, and the residual-structure analysis (SCC partition,
/// compacted per-SCC adjacency, seed anchor lists). Handing the same
/// workspace to successive find calls (the cancellation loop, repeat solves
/// in the batch engine) keeps the tables' storage alive across calls;
/// dimensions are re-checked and grown on demand, so any residual graph is
/// safe. A workspace also pins the scan to the serial anchor order (no
/// OpenMP team) — the batch engine parallelizes across solves, not inside
/// one, and the serial scan returns the same cycle as the parallel one by
/// the tracker-merge-order argument in bicameral.cc. Not thread-safe; use
/// one per thread.
class BicameralWorkspace {
 public:
  BicameralWorkspace();
  ~BicameralWorkspace();
  BicameralWorkspace(BicameralWorkspace&&) noexcept;
  BicameralWorkspace& operator=(BicameralWorkspace&&) noexcept;
  BicameralWorkspace(const BicameralWorkspace&) = delete;
  BicameralWorkspace& operator=(const BicameralWorkspace&) = delete;

  struct Impl;  // defined in bicameral.cc
  [[nodiscard]] Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

class BicameralCycleFinder {
 public:
  struct Options {
    /// First budget of the doubling schedule.
    graph::Cost initial_budget = 8;
    /// Hard bound on Bellman–Ford rounds per anchor; <= 0 means the size of
    /// the anchor's SCC (the witness-cycle length bound). The deepening
    /// schedule never exceeds it.
    int max_rounds = 0;
  };

  BicameralCycleFinder() : options_(Options{}) {}
  explicit BicameralCycleFinder(Options options) : options_(options) {}

  /// Finds a bicameral cycle in `residual` per `query`, or nullopt if none
  /// exists (at any budget up to the cap / total-cost bound). `ws`
  /// (optional) reuses the DP tables across calls and selects the serial
  /// scan — same result, no allocation churn, no nested parallelism under
  /// the batch engine.
  [[nodiscard]] std::optional<FoundCycle> find(
      const ResidualGraph& residual, const BicameralQuery& query,
      BicameralStats* stats = nullptr, BicameralWorkspace* ws = nullptr) const;

  /// Classification per Definition 10 (exposed for tests and the LP
  /// reference finder).
  static std::optional<CycleType> classify(graph::Cost c, graph::Delay d,
                                           graph::Cost cap,
                                           const util::Rational& ratio,
                                           bool enforce_cap);

 private:
  Options options_;
};

}  // namespace krsp::core
