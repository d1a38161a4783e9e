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
#include "store/container.h"

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
// 142 against 77/137 at the default eps), so every larger eps1 must give
// the same answer, and likewise for eps2.
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
  EXPECT_EQ(loose1.delay, 142);
  expect_same(solve(1e17, 0.25), loose1, "eps1 = 1e17");
  expect_same(solve(1e300, 0.25), loose1, "eps1 = 1e300");
  expect_same(solve(0.25, 1e300), solve(0.25, 1e16), "eps2 = 1e300");
}

}  // namespace
}  // namespace krsp
