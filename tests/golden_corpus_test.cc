// Golden corpus outputs: fixed isp-backbone queries that reach cycle
// cancellation, solved through api::Solver with one reused workspace, must
// reproduce the (status, cost, delay) recorded in
// data/golden/isp-backbone-cancel.txt. The queries sit at D = the minimum
// 2-path delay with a min-cost routing that misses D, the corpus traffic
// on which the bicameral kernel decides the answer; a kernel change that
// picks different cycles shows up here as a changed cost or delay.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "api/krsp.h"
#include "core/instance.h"
#include "core/phase1.h"
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

}  // namespace
}  // namespace krsp
