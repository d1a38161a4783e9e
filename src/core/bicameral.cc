#include "core/bicameral.h"

#include <algorithm>
#include <limits>

#include "graph/algorithms.h"
#include "graph/cycles.h"
#include "obs/trace.h"

namespace krsp::core {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

// First walk-length cap of the deepening schedule (see find()).
constexpr int kFirstRoundCap = 16;

// ---------------------------------------------------------------------------
// Per-find structure analysis.
//
// Seed-anchor theorem (the basis of the pruning; proof sketch, full
// statement in DESIGN.md §3):
//   sign 0 (H⁺, start layer 0):  every qualifying cycle has a prefix-valid
//     rotation anchored at the head of one of its negative arcs. The
//     rotation starting at a vertex achieving the minimum cost prefix keeps
//     every prefix in [0, ascent] ⊆ [0, B], and some minimum-achieving
//     vertex is entered by an arc of cost < 0 (walk the cycle backwards
//     through cost-0 arcs from any min-achiever; if the cycle has no
//     negative-cost arc at all, every arc costs 0 — its qualification then
//     rests on a negative-*delay* arc, whose head is a seed and any
//     rotation stays at layer 0).
//   sign 1 (H⁻, start layer B):  the same with tails of negative arcs, by
//     the mirror argument on the maximum cost prefix: the max-achiever's
//     outgoing cycle arc has cost <= 0. Heads would NOT suffice here — in
//     the 2-cycle (a→b, cost +5), (b→a, cost −6) the only valid H⁻ anchor
//     is b, the tail of the negative arc.
// The guarantee holds across the budget SCHEDULE, not per pass: for a
// cycle of total cost T >= 0 the prefix window is rotation-dependent, and
// if the cheapest rotation fits budget B_min, the seed (min-prefix)
// rotation fits B_min + T yet may genuinely need more than B_min. Example:
// the cost-7 cycle (+5, +1, −6, +7) fits budget 7 anchored before the +5
// arc, while its seed rotation — at the −6 arc's head — peaks at 13. The
// capped budget ceiling therefore carries 2× headroom (see find()), after
// which the doubling schedule reaches every seed rotation.
//
// Per-anchor round bound: the witness cycles of Lemmas 11/12 (components of
// optimal ⊕ current) are simple and, like every cycle, confined to one SCC,
// so min(max_rounds, |SCC(anchor)|) rounds reach them all. An SCC with no
// internal negative arc holds no qualifying cycle, so its seeds are
// dropped, and every surviving anchor's DP runs on its own SCC with
// compacted vertex ids (|scc|·(B+1) states instead of n·(B+1)).
// ---------------------------------------------------------------------------
struct Structure {
  graph::SccPartition scc;
  // Per component: 1 = has an internal negative arc (scanned), 0 = barren,
  // 2 = barren and already counted in sccs_skipped.
  std::vector<char> comp_has_negative;
  // Compact intra-SCC adjacency for member position p (= scc.members[p]):
  // arcs[arc_first[p]..arc_first[p+1]) with .to holding the *local* id of
  // the target, in residual edge-id order per tail. Only populated for
  // scanned components.
  struct Arc {
    graph::VertexId to;
    graph::Cost cost;
    graph::Delay delay;
    graph::EdgeId id;
  };
  std::vector<int> arc_first;
  std::vector<Arc> arcs;
  // Seed anchors per sign (0: heads, 1: tails of negative arcs), ascending,
  // restricted to scanned components.
  std::vector<graph::VertexId> seeds[2];
  std::int64_t sccs_skipped = 0;  // barren components holding >= 1 seed
  std::vector<char> seed_mark[2];  // build-time scratch, kept for reuse

  void build(const ResidualGraph& residual) {
    const graph::Digraph& rg = residual.digraph();
    const int n = rg.num_vertices();
    scc = graph::scc_partition(rg);
    comp_has_negative.assign(scc.num_components, 0);
    seed_mark[0].assign(n, 0);
    seed_mark[1].assign(n, 0);
    for (const graph::EdgeId e : residual.negative_arcs()) {
      const auto& edge = rg.edge(e);
      seed_mark[0][edge.to] = 1;
      seed_mark[1][edge.from] = 1;
      if (scc.component[edge.from] == scc.component[edge.to])
        comp_has_negative[scc.component[edge.from]] = 1;
    }
    seeds[0].clear();
    seeds[1].clear();
    sccs_skipped = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      char& flag = comp_has_negative[scc.component[v]];
      for (int sign = 0; sign < 2; ++sign) {
        if (!seed_mark[sign][v]) continue;
        if (flag == 1) {
          seeds[sign].push_back(v);
        } else if (flag == 0) {
          flag = 2;
          ++sccs_skipped;
        }
      }
    }
    arc_first.assign(n + 1, 0);
    arcs.clear();
    for (int p = 0; p < n; ++p) {
      const graph::VertexId u = scc.members[p];
      const int c = scc.component[u];
      if (comp_has_negative[c] == 1) {
        for (const graph::EdgeId e : rg.out_edges(u)) {
          const auto& edge = rg.edge(e);
          if (scc.component[edge.to] != c) continue;
          arcs.push_back(Arc{scc.local_id[edge.to], edge.cost, edge.delay, e});
        }
      }
      arc_first[p + 1] = static_cast<int>(arcs.size());
    }
  }
};

// Flat DP tables: two rolling dist rows (the exactly-j-edges DP only ever
// reads row j−1 while writing row j) plus one packed parent record per
// (round, state). Parent entries are only read for states whose dist was
// written in the current scan, so they need no clearing; dist rows are
// cleared lazily, one row per round.
struct FlatScratch {
  struct ParentRec {
    std::int32_t state;
    graph::EdgeId edge;
  };
  static_assert(sizeof(ParentRec) == 8, "parent records should stay packed");

  std::vector<std::int64_t> dist;  // 2 rolling rows of num_states
  std::vector<ParentRec> parent;   // rounds rows of num_states
  std::vector<std::int64_t> best_seen;
  std::vector<graph::EdgeId> walk;

  void ensure(int rounds, int num_states) {
    const auto need_dist = 2 * static_cast<std::size_t>(num_states);
    if (dist.size() < need_dist) dist.resize(need_dist);
    const auto need_parent =
        static_cast<std::size_t>(rounds) * static_cast<std::size_t>(num_states);
    if (parent.size() < need_parent) parent.resize(need_parent);
  }

  [[nodiscard]] static std::int64_t bytes(int rounds, int num_states) {
    return static_cast<std::int64_t>(num_states) *
           (2 * static_cast<std::int64_t>(sizeof(std::int64_t)) +
            static_cast<std::int64_t>(rounds) * sizeof(ParentRec));
  }
};

struct AnchorStats {
  std::int64_t walks = 0;
  std::int64_t cycles = 0;
  std::int64_t dp_rounds = 0;
  std::int64_t dp_bytes = 0;  // table high-water mark for this scan
};

// Candidate tracker with deterministic preference: type-0 wins outright,
// then best (most useful) ratio per type. Merging trackers in a fixed
// order keeps the parallel scan's result identical to the serial one.
struct Tracker {
  std::optional<FoundCycle> type0;
  std::optional<FoundCycle> t1;
  util::Rational t1_ratio{0};
  std::optional<FoundCycle> t2;
  util::Rational t2_ratio{0};

  void consider(FoundCycle found) {
    switch (found.type) {
      case CycleType::kType0:
        if (!type0) type0 = std::move(found);
        break;
      case CycleType::kType1: {
        const util::Rational r(found.delay, found.cost);
        if (!t1 || r < t1_ratio) {
          t1_ratio = r;
          t1 = std::move(found);
        }
        break;
      }
      case CycleType::kType2: {
        const util::Rational r(found.delay, found.cost);
        if (!t2 || r > t2_ratio) {
          t2_ratio = r;
          t2 = std::move(found);
        }
        break;
      }
    }
  }

  void merge(Tracker&& other) {
    if (other.type0 && !type0) type0 = std::move(other.type0);
    if (other.t1) {
      if (!t1 || other.t1_ratio < t1_ratio) {
        t1 = std::move(other.t1);
        t1_ratio = other.t1_ratio;
      }
    }
    if (other.t2) {
      if (!t2 || other.t2_ratio > t2_ratio) {
        t2 = std::move(other.t2);
        t2_ratio = other.t2_ratio;
      }
    }
  }
};

// Decomposes the closed walk reconstructed into `walk` and feeds qualifying
// cycles into the tracker.
void classify_walk(const ResidualGraph& residual,
                   std::vector<graph::EdgeId>& walk,
                   const BicameralQuery& query, Tracker& tracker,
                   AnchorStats& stats) {
  for (auto& cycle : graph::decompose_closed_walk(residual.digraph(), walk)) {
    ++stats.cycles;
    const graph::Cost c = residual.cycle_cost(cycle);
    const graph::Delay d = residual.cycle_delay(cycle);
    const auto type = BicameralCycleFinder::classify(c, d, query.cap,
                                                     query.ratio,
                                                     query.enforce_cap);
    if (type) tracker.consider(FoundCycle{std::move(cycle), c, d, *type});
  }
}

// Anchored layered Bellman–Ford for one (anchor, sign) pair on the anchor's
// SCC with compacted vertex ids and flat rolling tables, for at most
// `rounds` rounds. Candidates are harvested after every round; in capped
// mode (any qualifying cycle suffices for Lemma 12) the DP stops as soon as
// this anchor has produced one. The per-anchor decision never depends on
// other anchors, so the parallel scan stays deterministic.
void scan_anchor(const ResidualGraph& residual, const Structure& st,
                 graph::Cost budget, graph::Cost max_abs_cost,
                 graph::VertexId anchor, graph::Cost start_layer, int rounds,
                 const BicameralQuery& query, FlatScratch& t, Tracker& tracker,
                 AnchorStats& stats) {
  const int c = st.scc.component[anchor];
  const int s = st.scc.component_size(c);
  const int base = st.scc.comp_first[c];
  const std::int64_t bp1 = static_cast<std::int64_t>(budget) + 1;
  const std::int64_t wide_states = static_cast<std::int64_t>(s) * bp1;
  KRSP_CHECK_MSG(wide_states <= std::numeric_limits<std::int32_t>::max(),
                 "bicameral DP state space exceeds 2^31 states");
  const int num_states = static_cast<int>(wide_states);
  t.ensure(rounds, num_states);
  stats.dp_bytes =
      std::max(stats.dp_bytes, FlatScratch::bytes(rounds, num_states));

  // Reachable-layer window after j rounds: every arc shifts the cost prefix
  // by at most max|c| and the DP clips layers to [0, budget], so round j
  // can only populate layers within j·max|c| of the start layer. States
  // outside the window provably hold dist = ∞, which lets the relax, clear
  // and harvest loops skip them without changing any result.
  const auto window_lo = [&](int j) -> graph::Cost {
    const util::Int128 reach = static_cast<util::Int128>(j) * max_abs_cost;
    if (reach >= start_layer) return 0;
    return start_layer - static_cast<graph::Cost>(reach);
  };
  const auto window_hi = [&](int j) -> graph::Cost {
    const util::Int128 reach = static_cast<util::Int128>(j) * max_abs_cost;
    if (reach >= budget - start_layer) return budget;
    return start_layer + static_cast<graph::Cost>(reach);
  };

  std::int64_t* prev = t.dist.data();
  std::int64_t* cur = t.dist.data() + num_states;
  // Round-0 window is the start column alone; only it needs clearing.
  for (int lu = 0; lu < s; ++lu) prev[lu * bp1 + start_layer] = kInf;
  const std::int64_t anchor_row = st.scc.local_id[anchor] * bp1;
  const int start = static_cast<int>(anchor_row + start_layer);
  prev[start] = 0;

  // Best walk delay seen per anchor layer (so each improvement is
  // reconstructed at most once).
  auto& best_seen = t.best_seen;
  best_seen.assign(budget + 1, kInf);

  const auto harvest = [&](int j, graph::Cost l) {
    ++stats.walks;
    auto& walk = t.walk;
    walk.clear();
    int state = static_cast<int>(anchor_row + l);
    for (int step = j; step > 0; --step) {
      const FlatScratch::ParentRec rec =
          t.parent[static_cast<std::size_t>(step - 1) * num_states + state];
      KRSP_CHECK(rec.edge != graph::kInvalidEdge);
      walk.push_back(rec.edge);
      state = rec.state;
    }
    KRSP_CHECK(state == start);
    std::reverse(walk.begin(), walk.end());
    classify_walk(residual, walk, query, tracker, stats);
  };

  for (int j = 1; j <= rounds; ++j) {
    ++stats.dp_rounds;
    bool any = false;
    const graph::Cost prev_lo = window_lo(j - 1), prev_hi = window_hi(j - 1);
    const graph::Cost cur_lo = window_lo(j), cur_hi = window_hi(j);
    for (int lu = 0; lu < s; ++lu) {
      std::int64_t* crow = cur + lu * bp1;
      std::fill(crow + cur_lo, crow + cur_hi + 1, kInf);
    }
    FlatScratch::ParentRec* par =
        t.parent.data() + static_cast<std::size_t>(j - 1) * num_states;
    for (int lu = 0; lu < s; ++lu) {
      const int arc_begin = st.arc_first[base + lu];
      const int arc_end = st.arc_first[base + lu + 1];
      if (arc_begin == arc_end) continue;
      const std::int64_t row = lu * bp1;
      for (graph::Cost l = prev_lo; l <= prev_hi; ++l) {
        const std::int64_t dist_u = prev[row + l];
        if (dist_u == kInf) continue;
        for (int a = arc_begin; a < arc_end; ++a) {
          const auto& arc = st.arcs[a];
          const graph::Cost l2 = l + arc.cost;
          if (l2 < 0 || l2 > budget) continue;
          const int to = static_cast<int>(arc.to * bp1 + l2);
          const std::int64_t nd = dist_u + arc.delay;
          if (nd < cur[to]) {
            cur[to] = nd;
            par[to] = FlatScratch::ParentRec{
                static_cast<std::int32_t>(row + l), arc.id};
            any = true;
          }
        }
      }
    }
    if (!any) break;
    // Harvest improved closed walks back at the anchor. Only walks that can
    // host a qualifying cycle are interesting: negative delay (type-0/1
    // material) or negative cost (type-0/2 material). Layers outside the
    // round-j window are still ∞ and can never pass the best_seen gate.
    for (graph::Cost l = cur_lo; l <= cur_hi; ++l) {
      const std::int64_t dj = cur[anchor_row + l];
      if (dj >= best_seen[l]) continue;
      best_seen[l] = dj;
      const graph::Cost walk_cost = l - start_layer;
      if (!(dj < 0 || walk_cost < 0)) continue;
      harvest(j, l);
    }
    if (tracker.type0 || (query.enforce_cap && (tracker.t1 || tracker.t2)))
      return;
    std::swap(prev, cur);
  }
}

}  // namespace

struct BicameralWorkspace::Impl {
  Structure structure;
  FlatScratch flat;
};

BicameralWorkspace::BicameralWorkspace() : impl_(std::make_unique<Impl>()) {}
BicameralWorkspace::~BicameralWorkspace() = default;
BicameralWorkspace::BicameralWorkspace(BicameralWorkspace&&) noexcept =
    default;
BicameralWorkspace& BicameralWorkspace::operator=(
    BicameralWorkspace&&) noexcept = default;

std::optional<CycleType> BicameralCycleFinder::classify(
    graph::Cost c, graph::Delay d, graph::Cost cap,
    const util::Rational& ratio, bool enforce_cap) {
  if ((d < 0 && c <= 0) || (d <= 0 && c < 0)) return CycleType::kType0;
  if (d < 0 && c > 0 && (!enforce_cap || c <= cap)) {
    if (util::Rational(d, c) <= ratio) return CycleType::kType1;
  }
  if (d >= 0 && c < 0 && (!enforce_cap || -c <= cap)) {
    // Strict inequality (vs. Definition 10's >=): an equality type-2 cycle
    // leaves r_i unchanged while *increasing* ΔD, so accepting it can
    // alternate with its own reverse forever. With strictness every
    // accepted cycle improves the (r_i, ΔD_i) potential lexicographically,
    // giving unconditional termination; existence still holds for every
    // guess Ĉ > C_OPT (see DESIGN.md §3).
    if (util::Rational(d, c) > ratio) return CycleType::kType2;
  }
  return std::nullopt;
}

std::optional<FoundCycle> BicameralCycleFinder::find(
    const ResidualGraph& residual, const BicameralQuery& query,
    BicameralStats* stats, BicameralWorkspace* ws) const {
  const graph::Digraph& rg = residual.digraph();
  const int n = rg.num_vertices();
  // No negative residual arc ⇒ no qualifying cycle at any budget (its
  // negative total cost or delay would need a negative term).
  if (residual.negative_arcs().empty()) return std::nullopt;

  Structure local_structure;
  Structure& st = ws != nullptr ? ws->impl().structure : local_structure;
  st.build(residual);
  if (stats != nullptr) stats->sccs_skipped += st.sccs_skipped;

  // Per-anchor round bound (the witness cycles of Lemmas 11/12 are simple
  // and SCC-confined), and its maximum over the seed anchors.
  const int rounds_cap =
      options_.max_rounds > 0 ? std::min(options_.max_rounds, n) : n;
  const auto full_rounds = [&](graph::VertexId a) {
    return std::min(rounds_cap, st.scc.component_size(st.scc.component[a]));
  };
  int deepest = 0;
  for (const auto& seeds : st.seeds)
    for (const graph::VertexId a : seeds)
      deepest = std::max(deepest, full_rounds(a));

  // Budget ceiling. Capped mode: 2·cap, NOT cap — the seed rotation of a
  // qualifying cycle (start at the minimum cost-prefix achiever) keeps its
  // prefixes within B_min + |cycle cost| <= cap + cap, where B_min <= cap
  // is the budget the cycle's cheapest rotation needs (see the cost-7
  // example above). Uncapped mode: Σ|c| already bounds every seed-rotation
  // prefix. Each deepening step further clamps it to R·max|c| — a walk of
  // <= R edges keeps every cost prefix within that bound, so higher layers
  // are unreachable and the clamp is exact. The clamp also keeps
  // near-INT64_MAX caps from overflowing the doubling schedule or
  // materializing absurd DP tables. 128-bit intermediates because both the
  // cap and the cost sum may sit near the int64 edge.
  const graph::Cost max_abs_cost = rg.max_abs_cost();
  util::Int128 cost_ceiling = 0;
  if (query.enforce_cap) {
    cost_ceiling =
        2 * static_cast<util::Int128>(std::max<graph::Cost>(query.cap, 0));
  } else {
    for (const auto& e : rg.edges())
      cost_ceiling += e.cost < 0 ? -static_cast<util::Int128>(e.cost) : e.cost;
  }
  const auto budget_ceiling = [&](int rounds) {
    const util::Int128 bound = std::min(
        {cost_ceiling,
         static_cast<util::Int128>(rounds) *
             static_cast<util::Int128>(max_abs_cost),
         static_cast<util::Int128>(std::numeric_limits<graph::Cost>::max())});
    return static_cast<graph::Cost>(bound);
  };

  // Deepening schedule. Step R caps every anchor's walk length at
  // min(R, its full bound) and runs the whole budget-doubling schedule
  // under the R·max|c| ceiling; R doubles from kFirstRoundCap until it
  // covers the deepest bound, so the last step is the full scan and the
  // finder still returns a qualifying cycle iff one exists. An anchor whose
  // full bound fit an earlier step was already scanned to that bound at
  // every budget it can use (higher layers are unreachable for it), so
  // later steps skip it. Uncapped mode keeps one full step: its best-ratio
  // semantics need every cycle, not the first.
  Tracker global;
  std::vector<Tracker> trackers;
  std::vector<AnchorStats> anchor_stats;
  std::vector<graph::VertexId> step_anchors[2];
  int prev_walk_cap = 0;
  int walk_cap =
      query.enforce_cap ? std::min(kFirstRoundCap, deepest) : deepest;
  while (true) {
    for (int sign = 0; sign < 2; ++sign) {
      step_anchors[sign].clear();
      for (const graph::VertexId a : st.seeds[sign])
        if (full_rounds(a) > prev_walk_cap) step_anchors[sign].push_back(a);
    }
    const graph::Cost budget_max = budget_ceiling(walk_cap);
    graph::Cost budget = std::min(
        std::max<graph::Cost>(options_.initial_budget, 0), budget_max);
    while (true) {
      if (stats != nullptr) ++stats->budgets_tried;
      // In the degenerate budget-0 case H+ and H- coincide; the
      // head-anchored scan is complete there (all arcs on a layer-0 cycle
      // cost 0, so any rotation works and the negative-delay arc's head is
      // a seed).
      const int num_signs = budget == 0 ? 1 : 2;
      for (int sign = 0; sign < num_signs; ++sign) {
        // One (budget, sign) pass over every anchor, timed from the driver
        // thread.
        KRSP_OBS_SPAN("budget_pass");
        const graph::Cost start_layer = sign == 0 ? 0 : budget;
        const std::vector<graph::VertexId>& anchors = step_anchors[sign];
        const int na = static_cast<int>(anchors.size());
        if (stats != nullptr) stats->anchors_pruned += n - na;
        trackers.assign(na, Tracker{});
        anchor_stats.assign(na, AnchorStats{});
        const auto scan = [&](int i, FlatScratch& scratch) {
          scan_anchor(residual, st, budget, max_abs_cost, anchors[i],
                      start_layer, std::min(walk_cap, full_rounds(anchors[i])),
                      query, scratch, trackers[i], anchor_stats[i]);
        };
        // Anchors are independent. A caller-supplied workspace selects the
        // serial scan (the batch engine parallelizes across solves) and
        // keeps the tables alive across find() calls; otherwise anchors
        // run under OpenMP with per-thread scratch. Either way the trackers
        // merge in anchor order, so both paths return the same cycle.
        if (ws != nullptr) {
          for (int i = 0; i < na; ++i) scan(i, ws->impl().flat);
        } else {
#pragma omp parallel if (na >= 16)
          {
            FlatScratch scratch;
#pragma omp for schedule(dynamic)
            for (int i = 0; i < na; ++i) scan(i, scratch);
          }
        }
        for (int i = 0; i < na; ++i) {
          global.merge(std::move(trackers[i]));
          if (stats != nullptr) {
            ++stats->anchors_scanned;
            stats->walks_examined += anchor_stats[i].walks;
            stats->cycles_classified += anchor_stats[i].cycles;
            stats->dp_rounds += anchor_stats[i].dp_rounds;
            stats->peak_dp_bytes =
                std::max(stats->peak_dp_bytes, anchor_stats[i].dp_bytes);
          }
        }
        if (global.type0) return global.type0;  // free improvement: take it
      }

      // Any qualifying cycle at this budget level suffices for the proofs;
      // prefer type-1 (direct delay progress). In the uncapped ablation the
      // semantics are "best ratio over ALL cycles", so keep scanning.
      if (query.enforce_cap) {
        if (global.t1) return global.t1;
        if (global.t2) return global.t2;
      }
      if (budget >= budget_max) break;
      // Overflow-safe doubling: saturate at budget_max instead of
      // computing budget * 2 when that product could exceed it (or wrap).
      budget = budget > budget_max / 2 ? budget_max
                                       : std::max<graph::Cost>(1, budget * 2);
    }
    if (walk_cap >= deepest) break;
    prev_walk_cap = walk_cap;
    walk_cap = walk_cap > deepest / 2 ? deepest : 2 * walk_cap;
  }
  if (global.t1) return global.t1;
  return global.t2;
}

}  // namespace krsp::core
