// Golden corpus outputs: fixed isp-backbone queries that reach cycle
// cancellation, solved through api::Solver with one reused workspace, must
// reproduce the (status, cost, delay) recorded in
// data/golden/isp-backbone-cancel.txt. The queries sit at D = the minimum
// 2-path delay with a min-cost routing that misses D, the corpus traffic
// on which the bicameral kernel decides the answer; a kernel change that
// picks different cycles shows up here as a changed cost or delay.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "api/krsp.h"
#include "core/instance.h"
#include "core/phase1.h"
#include "core/solver.h"
#include "flow/min_cost_flow.h"
#include "paths/dijkstra.h"
#include "store/container.h"
#include "util/rng.h"

namespace krsp {
namespace {

TEST(GoldenCorpus, IspBackboneCancellationMatchesRecordedOutputs) {
  const api::Instance base =
      store::CsrContainer::open(KRSP_DATA_DIR "/corpus/isp-backbone.krspb")
          .instance();
  std::ifstream in(KRSP_DATA_DIR "/golden/isp-backbone-cancel.txt");
  ASSERT_TRUE(in.good());

  api::SolveWorkspace ws;
  int queries = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    api::SolveRequest request;
    request.instance = base;
    std::string status;
    graph::Cost cost = 0;
    graph::Delay delay = 0;
    ASSERT_TRUE(fields >> request.instance.s >> request.instance.t >>
                request.instance.k >> request.instance.delay_bound >> status >>
                cost >> delay)
        << line;
    request.mode = api::Mode::kScaled;
    const api::SolveResult result = api::Solver::solve(request, ws);
    EXPECT_GT(result.telemetry.guess_attempts, 0) << line;
    EXPECT_EQ(api::status_name(result.status), status) << line;
    EXPECT_EQ(result.cost, cost) << line;
    EXPECT_EQ(result.delay, delay) << line;
    ++queries;
  }
  EXPECT_EQ(queries, 64);
}

// Golden phase-1 outputs on the big corpus topologies: 32 queries each on
// road-grid64 and scalefree-ba4000 with k = 2 and D as perfbench's
// grid-phase1 sets it, each one's min-cost 2-flow missing D so that LARAC
// runs, must reproduce the (status, cost, delay) recorded in
// data/golden/grid-phase1.txt, through one reused McfWorkspace and through
// none.
TEST(GoldenCorpus, BigTopologyPhase1MatchesRecordedOutputs) {
  std::ifstream in(KRSP_DATA_DIR "/golden/grid-phase1.txt");
  ASSERT_TRUE(in.good());
  std::map<std::string, api::Instance> bases;
  flow::McfWorkspace ws;
  int queries = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id;
    std::string status;
    api::Instance query;
    graph::Cost cost = 0;
    graph::Delay delay = 0;
    ASSERT_TRUE(fields >> id >> query.s >> query.t >> query.k >>
                query.delay_bound >> status >> cost >> delay)
        << line;
    auto it = bases.find(id);
    if (it == bases.end()) {
      const std::string path = std::string(KRSP_DATA_DIR) + "/corpus/" + id +
                               ".krspb";
      it = bases.emplace(id, store::CsrContainer::open(path).instance()).first;
    }
    query.graph = it->second.graph;
    for (flow::McfWorkspace* w : {&ws, static_cast<decltype(&ws)>(nullptr)}) {
      const core::Phase1Result p1 = core::phase1_lagrangian(query, {}, w);
      EXPECT_EQ(api::status_name(core::from_phase1(p1).status), status)
          << line;
      EXPECT_EQ(p1.cost, cost) << line;
      EXPECT_EQ(p1.delay, delay) << line;
    }
    ++queries;
  }
  EXPECT_EQ(queries, 64);
}

// (1+eps1)·D and (2+eps2)·Ĉ saturate instead of wrapping: past 2^63 the
// plain conversion is undefined, and in practice it turned the limits
// negative, so every cap guess failed and the phase-1 answer came back.
// eps1 = 1e16 already allows any delay on this query (cost 75, delay
// 140 against 77/137 at the default eps), so every larger eps1 must give
// the same answer, and likewise for eps2. At that eps1 every scaled delay
// floors to 0 and all min-cost flows tie, so the pinned delay is the
// search's tie-break among cost-75 answers.
TEST(GoldenCorpus, HugeEpsilonSaturatesInsteadOfWrapping) {
  api::SolveRequest request;
  request.instance =
      store::CsrContainer::open(KRSP_DATA_DIR "/corpus/isp-backbone.krspb")
          .instance();
  request.instance.s = 85;
  request.instance.t = 236;
  request.instance.k = 2;
  request.instance.delay_bound = 137;
  const auto solve = [&](double eps1, double eps2) {
    api::SolveRequest r = request;
    r.eps1 = eps1;
    r.eps2 = eps2;
    return api::Solver::solve(r);
  };
  const auto expect_same = [](const api::SolveResult& a,
                              const api::SolveResult& b, const char* what) {
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.cost, b.cost) << what;
    EXPECT_EQ(a.delay, b.delay) << what;
    EXPECT_EQ(a.paths.paths(), b.paths.paths()) << what;
    EXPECT_EQ(a.telemetry.cost_guess_used, b.telemetry.cost_guess_used)
        << what;
  };
  const api::SolveResult loose1 = solve(1e16, 0.25);
  EXPECT_EQ(loose1.cost, 75);
  EXPECT_EQ(loose1.delay, 140);
  expect_same(solve(1e17, 0.25), loose1, "eps1 = 1e17");
  expect_same(solve(1e300, 0.25), loose1, "eps1 = 1e300");
  expect_same(solve(0.25, 1e300), solve(0.25, 1e16), "eps2 = 1e300");
}

// Phase 1's searches run as A* toward t on the big corpus topologies: over
// fixed (s, t) pairs with k = 2 and D at the least 2-path delay, so the
// cheapest routing misses D and LARAC runs, they settle at most a quarter
// of the n vertices per search on average (searching every vertex up to t
// settles about 0.55 n on road-grid64 and 0.65 n on scalefree-ba4000).
// Answers stay correct if the searches silently lose their goal
// direction; this count is what notices.
TEST(GoldenCorpus, Phase1SearchesSettleAFractionOfBigTopologies) {
  for (const char* id : {"road-grid64", "scalefree-ba4000"}) {
    api::Instance inst = store::CsrContainer::open(std::string(KRSP_DATA_DIR) +
                                                   "/corpus/" + id + ".krspb")
                             .instance();
    const int n = inst.graph.num_vertices();
    inst.k = 2;
    util::Rng rng(2027);
    int queries = 0;
    std::int64_t settled = 0;
    std::int64_t searches = 0;
    for (int attempt = 0; attempt < 40 && queries < 10; ++attempt) {
      inst.s = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
      inst.t = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
      if (inst.s == inst.t) continue;
      const auto least_delay = core::min_possible_delay(inst);
      if (!least_delay) continue;
      inst.delay_bound = *least_delay;
      const core::Phase1Result p1 = core::phase1_lagrangian(inst);
      if (p1.status != core::Phase1Status::kApprox) continue;
      ++queries;
      settled += p1.vertices_settled;
      searches += std::int64_t{p1.mcmf_calls} * inst.k;
    }
    ASSERT_GE(queries, 8) << id;
    EXPECT_LE(4 * settled, searches * n)
        << id << ": " << settled << " vertices settled over " << searches
        << " searches";
  }
}

// Phase 1's two reverse searches toward t stop past s: on the big corpus
// topologies, over random (s, t) pairs, they settle the vertices no farther
// from t than s, at most three quarters of the n vertices per search on
// average (about 0.40 n on road-grid64 and 0.57 n on scalefree-ba4000;
// run to the end, a search settles all n), and s's own entry stays exact.
TEST(GoldenCorpus, Phase1SinkSearchesStopPastTheSource) {
  for (const char* id : {"road-grid64", "scalefree-ba4000"}) {
    const api::Instance inst =
        store::CsrContainer::open(std::string(KRSP_DATA_DIR) + "/corpus/" +
                                  id + ".krspb")
            .instance();
    const graph::Digraph& g = inst.graph;
    const graph::Digraph reversed = g.reversed();
    const int n = g.num_vertices();
    util::Rng rng(2029);
    std::int64_t settled = 0;
    std::int64_t searches = 0;
    for (int query = 0; query < 10; ++query) {
      const auto s = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
      const auto t = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
      for (const auto w : {paths::EdgeWeight::cost(),
                           paths::EdgeWeight::delay()}) {
        const auto h = paths::dijkstra_to(g, t, w, s);
        ASSERT_EQ(h[s], paths::dijkstra(reversed, t, w).dist[s]) << id;
        settled += std::count_if(h.begin(), h.end(),
                                 [&](std::int64_t d) { return d <= h[s]; });
        ++searches;
      }
    }
    EXPECT_LE(4 * settled, 3 * searches * n)
        << id << ": " << settled << " vertices settled over " << searches
        << " searches";
  }
}

}  // namespace
}  // namespace krsp
