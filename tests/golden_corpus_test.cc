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

}  // namespace
}  // namespace krsp
