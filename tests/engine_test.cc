// Concurrency and workspace-reuse guarantees of the engine and the
// krsp::api facade:
//  * batches are bit-identical across pool sizes (1, 2, 8 threads), whose
//    workers reuse their workspaces along different histories —
//    scheduling is unobservable;
//  * a SolveWorkspace reused across 50 randomized instances matches a
//    fresh solve on every one;
//  * per-request failures surface as kFailed results, never exceptions,
//    and never disturb their batch neighbors;
//  * every class of instance outside the paper's model fails with the
//    same `instance: ...` reason through every entry point;
//  * deadline-bounded requests return structurally valid anytime results.
#include "api/krsp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cycle_cancel.h"
#include "core/phase1.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::api {
namespace {

/// Randomized ER instance with a tight-ish delay bound so a good share of
/// solves engage the cancellation machinery, not just phase 1.
Instance random_instance(std::uint64_t seed, int n = 14, int k = 2,
                         double slack = 0.25) {
  util::Rng rng(seed);
  RandomInstanceOptions opt;
  opt.k = k;
  opt.delay_slack = slack;
  const auto inst = random_er_instance(rng, n, 0.35, opt);
  KRSP_CHECK_MSG(inst.has_value(), "seed " << seed << " drew no instance");
  return *inst;
}

std::vector<SolveRequest> mixed_batch(int size) {
  std::vector<SolveRequest> batch;
  batch.reserve(size);
  for (int i = 0; i < size; ++i) {
    SolveRequest req;
    req.instance = random_instance(100 + i, 12 + i % 5, 2 + i % 2);
    req.mode = i % 3 == 0   ? Mode::kExactWeights
               : i % 3 == 1 ? Mode::kScaled
                            : Mode::kPhase1Only;
    req.eps1 = req.eps2 = i % 2 == 0 ? 0.25 : 0.5;
    req.guess =
        i % 4 == 0 ? GuessStrategy::kDoubling : GuessStrategy::kBinarySearch;
    req.tag = "req-" + std::to_string(i);
    batch.push_back(std::move(req));
  }
  return batch;
}

void expect_identical(const SolveResult& a, const SolveResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.tag, b.tag) << context;
  EXPECT_EQ(a.status, b.status) << context;
  EXPECT_EQ(a.cost, b.cost) << context;
  EXPECT_EQ(a.delay, b.delay) << context;
  EXPECT_EQ(a.paths.paths(), b.paths.paths()) << context;
  EXPECT_EQ(a.telemetry.guess_attempts, b.telemetry.guess_attempts) << context;
  EXPECT_EQ(a.telemetry.phase1_mcmf_calls, b.telemetry.phase1_mcmf_calls)
      << context;
  EXPECT_EQ(a.telemetry.cost_guess_used, b.telemetry.cost_guess_used)
      << context;
}

TEST(Engine, BatchBitIdenticalAcrossThreadCounts) {
  const auto batch = mixed_batch(18);
  std::vector<std::vector<SolveResult>> runs;
  for (const int threads : {1, 2, 8}) {
    Engine engine(EngineOptions{.num_threads = threads});
    ASSERT_EQ(engine.num_threads(), threads);
    runs.push_back(engine.solve_batch(batch));
    ASSERT_EQ(runs.back().size(), batch.size());
  }
  for (std::size_t r = 1; r < runs.size(); ++r)
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_identical(runs[0][i], runs[r][i],
                       "run " + std::to_string(r) + " request " +
                           std::to_string(i));
  // Sanity: the batch exercised real solves, not a wall of failures.
  int with_paths = 0;
  for (const auto& res : runs[0]) with_paths += res.has_paths() ? 1 : 0;
  EXPECT_GT(with_paths, static_cast<int>(batch.size()) / 2);
}

TEST(Engine, ReusedWorkspaceMatchesFreshOn50RandomInstances) {
  SolveWorkspace reused;
  int cancellation_engaged = 0;
  for (int trial = 0; trial < 50; ++trial) {
    SolveRequest req;
    req.instance = random_instance(3000 + trial, 12 + trial % 7, 2);
    req.mode = trial % 2 == 0 ? Mode::kExactWeights : Mode::kScaled;
    req.tag = "trial-" + std::to_string(trial);
    const auto with_ws = Solver::solve(req, reused);
    const auto without_ws = Solver::solve(req);
    expect_identical(with_ws, without_ws, "trial " + std::to_string(trial));
    if (with_ws.telemetry.cancel.iterations > 0) ++cancellation_engaged;
  }
  // The reuse claim is empty if no solve ever touched the finder tables.
  EXPECT_GT(cancellation_engaged, 0);
  EXPECT_GT(reused.mcmf.reuse_hits(), 0u);
}

TEST(Engine, PerRequestFailureIsIsolated) {
  auto batch = mixed_batch(4);
  SolveRequest bad;
  // s == t violates Instance::validate — must come back kFailed, not throw.
  bad.instance.graph.resize(2);
  bad.instance.graph.add_edge(0, 1, 1, 1);
  bad.instance.s = 0;
  bad.instance.t = 0;
  bad.instance.k = 1;
  bad.instance.delay_bound = 5;
  bad.tag = "bad";
  batch.insert(batch.begin() + 2, bad);

  Engine engine(EngineOptions{.num_threads = 2});
  const auto results = engine.solve_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(results[2].status, SolveStatus::kFailed);
  EXPECT_EQ(results[2].tag, "bad");
  EXPECT_FALSE(results[2].error.empty());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) continue;
    EXPECT_NE(results[i].status, SolveStatus::kFailed) << i;
    EXPECT_TRUE(results[i].error.empty()) << i;
  }
}

// An instance on the diamond 0→1→3, 0→2→3: its query, edge 0's weights,
// the reason core::query_error gives for the query ("" for a valid one)
// and the one every entry point fails with: the check's message after
// its "file:line — " prefix. The defaults are a valid instance.
struct InstanceCase {
  const char* name;
  std::int64_t s = 0, t = 3, k = 2, delay_bound = 6;
  graph::Cost cost0 = 1;    // edge 0's weights
  graph::Delay delay0 = 1;
  const char* query_reason;
  const char* reason;
};

// One row per class of instance outside the paper's model (Definition 2).
const InstanceCase kInvalidClasses[] = {
    {.name = "bad s", .s = 7, .query_reason = "bad source 7",
     .reason = "instance: bad source 7"},
    {.name = "bad t", .t = -1, .query_reason = "bad sink -1",
     .reason = "instance: bad sink -1"},
    {.name = "s = t", .t = 0, .query_reason = "s == t",
     .reason = "instance: s == t"},
    {.name = "k = 0", .k = 0, .query_reason = "k = 0",
     .reason = "instance: k = 0"},
    {.name = "k past int32", .k = (std::int64_t{1} << 32) + 2,
     .query_reason = "k = 4294967298", .reason = nullptr},
    {.name = "D < 0", .delay_bound = -3, .query_reason = "D = -3",
     .reason = "instance: D = -3"},
    {.name = "negative cost", .cost0 = -100, .query_reason = "",
     .reason = "instance: negative cost edge"},
    {.name = "negative delay", .delay0 = -1, .query_reason = "",
     .reason = "instance: negative delay edge"},
};

Instance diamond(const InstanceCase& row) {
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, row.cost0, row.delay0);
  inst.graph.add_edge(1, 3, 1, 1);
  inst.graph.add_edge(0, 2, 2, 2);
  inst.graph.add_edge(2, 3, 2, 2);
  inst.s = static_cast<graph::VertexId>(row.s);
  inst.t = static_cast<graph::VertexId>(row.t);
  inst.k = static_cast<int>(row.k);
  inst.delay_bound = row.delay_bound;
  return inst;
}

std::string reason_of(const std::string& message) {
  const std::string sep = " — ";
  const auto at = message.find(sep);
  return at == std::string::npos ? message : message.substr(at + sep.size());
}

std::shared_ptr<const TopologyRef> topology_of(Instance inst) {
  auto ref = std::make_shared<TopologyRef>();
  ref->id = "diamond";
  ref->instance = std::make_shared<const Instance>(std::move(inst));
  return ref;
}

TEST(InstanceRule, EveryEntryPointRefusesEachInvalidClass) {
  Engine engine(EngineOptions{.num_threads = 2});
  const InstanceCase valid{.name = "valid", .query_reason = "", .reason = ""};
  const auto good_topology = topology_of(diamond(valid));
  for (const InstanceCase& row : kInvalidClasses) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(core::query_error(4, row.s, row.t, row.k, row.delay_bound),
              row.query_reason);
    if (row.reason == nullptr) continue;  // Instance::k is an int
    const Instance bad = diamond(row);
    const auto expect_failed = [&](const SolveResult& r, const char* path) {
      EXPECT_EQ(r.status, SolveStatus::kFailed) << path;
      EXPECT_EQ(reason_of(r.error), row.reason) << path;
    };
    for (const Mode mode :
         {Mode::kScaled, Mode::kExactWeights, Mode::kPhase1Only}) {
      SolveRequest inline_request;
      inline_request.instance = bad;
      inline_request.mode = mode;
      expect_failed(Solver::solve(inline_request), "inline");
      expect_failed(engine.submit(inline_request).get(), "engine");

      SolveRequest by_ref;
      by_ref.topology = topology_of(bad);
      by_ref.mode = mode;
      expect_failed(Solver::solve(by_ref), "bad topology");

      if (*row.query_reason == '\0') continue;  // an override has no weights
      SolveRequest overridden;
      overridden.topology = good_topology;
      overridden.query_override = QueryOverride{
          bad.s, bad.t, bad.k, bad.delay_bound};
      overridden.mode = mode;
      expect_failed(Solver::solve(overridden), "bad override");
      EXPECT_THROW((void)overridden.materialized_instance(), util::CheckError);
    }
    EXPECT_THROW((void)core::phase1_lagrangian(bad), util::CheckError);
    EXPECT_THROW((void)core::cancel_cycles(bad, PathSet{}, 1, {}),
                 util::CheckError);
  }
}

TEST(Engine, DeadlineRequestsReturnValidAnytimeResults) {
  std::vector<SolveRequest> batch;
  for (int i = 0; i < 6; ++i) {
    SolveRequest req;
    req.instance = random_instance(7000 + i, 16, 2, 0.15);
    req.mode = Mode::kExactWeights;
    req.deadline_seconds = 1e-6;  // expires essentially immediately
    req.tag = "deadline-" + std::to_string(i);
    batch.push_back(std::move(req));
  }
  Engine engine(EngineOptions{.num_threads = 2});
  const auto results = engine.solve_batch(batch);
  for (const auto& res : results) {
    ASSERT_NE(res.status, SolveStatus::kFailed) << res.error;
    if (res.has_paths()) {
      // Anytime ladder: whatever step served it, the paths are structurally
      // valid and delay-feasible in exact mode.
      std::string why;
      const auto& req = batch[&res - results.data()];
      EXPECT_TRUE(res.paths.is_valid(req.instance, &why)) << why;
      EXPECT_LE(res.delay, req.instance.delay_bound);
    }
  }
}

TEST(Engine, EmptyBatchAndRepeatedBatches) {
  Engine engine(EngineOptions{.num_threads = 3});
  EXPECT_TRUE(engine.solve_batch({}).empty());
  const auto batch = mixed_batch(5);
  const auto first = engine.solve_batch(batch);
  const auto second = engine.solve_batch(batch);  // pool + workspaces reused
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    expect_identical(first[i], second[i], "repeat " + std::to_string(i));
}

TEST(Engine, ThreadCountEdgeCasesAreDefined) {
  // 0 = auto-detect: at least one worker, and an empty batch still works.
  Engine auto_engine(EngineOptions{.num_threads = 0});
  EXPECT_GE(auto_engine.num_threads(), 1);
  EXPECT_TRUE(auto_engine.solve_batch({}).empty());
  // Negative requests clamp to a single worker rather than UB or a throw.
  Engine negative(EngineOptions{.num_threads = -4});
  EXPECT_EQ(negative.num_threads(), 1);
  const auto batch = mixed_batch(3);
  const auto from_negative = negative.solve_batch(batch);
  const auto from_auto = auto_engine.solve_batch(batch);
  ASSERT_EQ(from_negative.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    expect_identical(from_negative[i], from_auto[i],
                     "clamped vs auto, request " + std::to_string(i));
}

TEST(Engine, SubmitMatchesSolveBatchBitForBit) {
  const auto batch = mixed_batch(12);
  Engine engine(EngineOptions{.num_threads = 4});
  const auto reference = engine.solve_batch(batch);

  std::vector<Ticket> tickets;
  tickets.reserve(batch.size());
  for (const auto& req : batch) tickets.push_back(engine.submit(req));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].valid());
    // Ticket ids are the submission sequence: the first solve_batch above
    // consumed ids [0, batch), so these continue from batch.size().
    EXPECT_EQ(tickets[i].id(), batch.size() + i);
    expect_identical(tickets[i].get(), reference[i],
                     "submit vs solve_batch, request " + std::to_string(i));
    EXPECT_FALSE(tickets[i].valid());  // get() consumes the ticket
  }
  EXPECT_EQ(engine.submitted(), 2 * batch.size());
  engine.drain();
  EXPECT_EQ(engine.completed(), 2 * batch.size());
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(Engine, BoundedQueueStreamsArbitrarilyLongSequences) {
  // Capacity 2 with one worker: submit() must block-and-release rather
  // than deadlock or drop, and results still arrive in ticket order.
  Engine engine(EngineOptions{.num_threads = 1, .queue_capacity = 2});
  const auto batch = mixed_batch(10);
  Engine reference_engine(EngineOptions{.num_threads = 1});
  const auto reference = reference_engine.solve_batch(batch);

  std::vector<Ticket> tickets;
  for (const auto& req : batch) {
    tickets.push_back(engine.submit(req));
    EXPECT_LE(engine.queue_depth(), 2u);
  }
  for (std::size_t i = 0; i < tickets.size(); ++i)
    expect_identical(tickets[i].get(), reference[i],
                     "bounded queue, request " + std::to_string(i));
}

TEST(Engine, ConcurrentSubmittersGetIndependentBitIdenticalResults) {
  // Several client threads race submit() on one engine; each must read
  // back exactly the results for its own requests. (TSan leg runs this.)
  const auto batch = mixed_batch(6);
  Engine reference_engine(EngineOptions{.num_threads = 2});
  const auto reference = reference_engine.solve_batch(batch);

  Engine engine(EngineOptions{.num_threads = 2, .queue_capacity = 4});
  constexpr int kClients = 4;
  std::vector<std::vector<SolveResult>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      std::vector<Ticket> tickets;
      for (const auto& req : batch) tickets.push_back(engine.submit(req));
      for (auto& t : tickets) got[c].push_back(t.get());
    });
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), batch.size()) << "client " << c;
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_identical(got[c][i], reference[i],
                       "client " + std::to_string(c) + " request " +
                           std::to_string(i));
  }
  EXPECT_EQ(engine.submitted(), kClients * batch.size());
}

TEST(Engine, CloseRejectsNewWorkAndDrainCompletesInFlight) {
  Engine engine(EngineOptions{.num_threads = 2});
  const auto batch = mixed_batch(4);
  std::vector<Ticket> tickets;
  for (const auto& req : batch) tickets.push_back(engine.submit(req));
  engine.close();
  engine.drain();
  // Everything accepted before close() completed normally...
  for (auto& t : tickets) EXPECT_NE(t.get().status, SolveStatus::kFailed);
  EXPECT_EQ(engine.completed(), batch.size());
  // ...and post-close submissions come back kFailed, never an exception.
  // Refused tickets carry the sentinel id, not a submission index: the
  // dense id sequence belongs to accepted requests only.
  Ticket rejected = engine.submit(batch.front());
  ASSERT_TRUE(rejected.valid());
  EXPECT_EQ(rejected.id(), Ticket::kRefusedId);
  EXPECT_EQ(engine.submitted(), batch.size());
  const SolveResult result = rejected.get();
  EXPECT_EQ(result.status, SolveStatus::kFailed);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace krsp::api
