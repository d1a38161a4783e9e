// The serving stack: wire format, result-cache correctness (fingerprint
// sensitivity + bit-identical hits), admission-control rules, the solve
// service end to end, and the newline-JSON protocol through Protocol.
// The concurrency tests double as the TSan leg's server coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "graph/generators.h"
#include "server/admission.h"
#include "server/result_cache.h"
#include "server/service.h"
#include "server/transport.h"
#include "server/wire.h"
#include "util/rng.h"

namespace krsp::server {
namespace {

api::Instance random_instance(std::uint64_t seed, int n = 12, int k = 2) {
  util::Rng rng(seed);
  api::RandomInstanceOptions opt;
  opt.k = k;
  opt.delay_slack = 0.25;
  const auto inst = api::random_er_instance(rng, n, 0.35, opt);
  KRSP_CHECK_MSG(inst.has_value(), "seed " << seed << " drew no instance");
  return *inst;
}

api::SolveRequest make_request(std::uint64_t seed) {
  api::SolveRequest req;
  req.instance = random_instance(seed);
  req.mode = api::Mode::kExactWeights;
  req.tag = "seed-" + std::to_string(seed);
  return req;
}

/// Rebuilds the instance graph with edge `e`'s cost shifted by `delta`
/// (the graph API intentionally has no cost setter).
api::SolveRequest with_cost_bumped(api::SolveRequest req, graph::EdgeId e,
                                   graph::Cost delta) {
  graph::Digraph rebuilt(req.instance.graph.num_vertices());
  for (graph::EdgeId id = 0; id < req.instance.graph.num_edges(); ++id) {
    const graph::Edge& edge = req.instance.graph.edge(id);
    rebuilt.add_edge(edge.from, edge.to,
                     edge.cost + (id == e ? delta : 0), edge.delay);
  }
  req.instance.graph = std::move(rebuilt);
  return req;
}

void expect_identical(const api::SolveResult& a, const api::SolveResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.status, b.status) << context;
  EXPECT_EQ(a.cost, b.cost) << context;
  EXPECT_EQ(a.delay, b.delay) << context;
  EXPECT_EQ(a.paths.paths(), b.paths.paths()) << context;
  EXPECT_EQ(a.telemetry.cost_guess_used, b.telemetry.cost_guess_used)
      << context;
}

// --------------------------------------------------------------- wire ---

TEST(ServerWire, ObjectRoundTripKeepsTypesExact) {
  const std::int64_t big = 9007199254740993;  // not representable in double
  const std::string line = wire::ObjectWriter()
                               .field("s", "he\"llo\n\t\\")
                               .field("b", true)
                               .field("i", big)
                               .field("neg", std::int64_t{-42})
                               .field("d", 0.25)
                               .raw("arr", "[[0,3],[2,5]]")
                               .done();
  const auto v = wire::parse(line);
  ASSERT_TRUE(v.has_value()) << line;
  EXPECT_EQ(v->get_string("s"), "he\"llo\n\t\\");
  EXPECT_TRUE(v->get_bool("b", false));
  ASSERT_TRUE(v->find("i")->is_integer);
  EXPECT_EQ(v->get_int("i", 0), big);
  EXPECT_EQ(v->get_int("neg", 0), -42);
  EXPECT_DOUBLE_EQ(v->get_number("d", 0.0), 0.25);
  const wire::Value* arr = v->find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->type, wire::Value::Type::kArray);
  ASSERT_EQ(arr->items.size(), 2u);
  EXPECT_EQ(arr->items[1].items[0].integer, 2);
}

TEST(ServerWire, GetIntReadsOnlyIntegerLiterals) {
  const auto v = wire::parse(
      R"({"a":1e300,"b":-1e300,"c":99999999999999999999,"d":85.9,"e":-7})");
  ASSERT_TRUE(v.has_value());
  // A double is never converted (past int64 that would be undefined), and
  // a fraction is not silently truncated: both are mistyped.
  EXPECT_EQ(v->get_int("a", 3), 3);
  EXPECT_EQ(v->get_int("b", 3), 3);
  EXPECT_EQ(v->get_int("c", 3), 3);
  EXPECT_EQ(v->get_int("d", 3), 3);
  EXPECT_EQ(v->get_int("e", 3), -7);
}

TEST(ServerWire, UnicodeEscapesDecodeToUtf8) {
  const auto v = wire::parse(R"({"u":"aé中😀b"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_string("u"), "a\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80"
                                "b");
}

TEST(ServerWire, MalformedInputFailsWithoutCrashing) {
  std::string error;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "nul",
        "\"unterminated", "{\"a\":1e}", "{\"dup\" 1}"}) {
    EXPECT_FALSE(wire::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Nesting depth is capped, not stack-overflowed.
  std::string deep(2000, '[');
  deep += std::string(2000, ']');
  EXPECT_FALSE(wire::parse(deep, &error).has_value());
}

// -------------------------------------------------------------- cache ---

TEST(ServerCache, FingerprintChangesWithAnyMutatedInput) {
  util::Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const auto base = make_request(600 + trial);
    const std::uint64_t fp = request_fingerprint(base);
    const std::uint64_t fp2 = request_fingerprint2(base);
    // A pure copy re-queries identically...
    EXPECT_EQ(request_fingerprint(base), fp);
    EXPECT_EQ(request_fingerprint2(base), fp2);
    // ...and the tag is echoed metadata, not an input.
    auto tagged = base;
    tagged.tag = "different-tag";
    EXPECT_EQ(request_fingerprint(tagged), fp);
    EXPECT_EQ(request_fingerprint2(tagged), fp2);

    // Any substantive mutation must change the fingerprint — both the
    // primary key and the independent verify hash.
    const auto e = static_cast<graph::EdgeId>(rng.uniform_int(
        0, base.instance.graph.num_edges() - 1));
    EXPECT_NE(request_fingerprint(with_cost_bumped(base, e, 1)), fp)
        << "cost of edge " << e;
    EXPECT_NE(request_fingerprint2(with_cost_bumped(base, e, 1)), fp2)
        << "cost of edge " << e << " (verify hash)";

    auto delay_mut = base;
    delay_mut.instance.graph.set_edge_delay(
        e, delay_mut.instance.graph.edge(e).delay + 1);
    EXPECT_NE(request_fingerprint(delay_mut), fp) << "delay of edge " << e;

    auto k_mut = base;
    k_mut.instance.k += 1;
    EXPECT_NE(request_fingerprint(k_mut), fp);

    auto bound_mut = base;
    bound_mut.instance.delay_bound += 1;
    EXPECT_NE(request_fingerprint(bound_mut), fp);

    auto eps_mut = base;
    eps_mut.eps1 += 1e-9;
    EXPECT_NE(request_fingerprint(eps_mut), fp);

    auto mode_mut = base;
    mode_mut.mode = api::Mode::kScaled;
    EXPECT_NE(request_fingerprint(mode_mut), fp);
  }
}

TEST(ServerCache, HitReturnsStoredResultAndLruEvicts) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  const auto req_a = make_request(1);
  const auto req_b = make_request(2);
  const auto req_c = make_request(3);
  const auto key_a = request_fingerprint(req_a);
  const auto key_b = request_fingerprint(req_b);
  const auto key_c = request_fingerprint(req_c);
  const auto ver_a = request_fingerprint2(req_a);
  const auto ver_b = request_fingerprint2(req_b);
  const auto ver_c = request_fingerprint2(req_c);

  EXPECT_FALSE(cache.lookup(key_a, ver_a).has_value());
  cache.insert(key_a, ver_a, api::Solver::solve(req_a));
  cache.insert(key_b, ver_b, api::Solver::solve(req_b));
  const auto hit = cache.lookup(key_a, ver_a);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, api::Solver::solve(req_a), "cached A");

  // A is now most-recent, so inserting C evicts B.
  cache.insert(key_c, ver_c, api::Solver::solve(req_c));
  EXPECT_TRUE(cache.lookup(key_a, ver_a).has_value());
  EXPECT_FALSE(cache.lookup(key_b, ver_b).has_value());
  EXPECT_TRUE(cache.lookup(key_c, ver_c).has_value());

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.hits, 3u);    // A pre-evict, then A and C post-evict
  EXPECT_EQ(s.misses, 2u);  // initial A probe, post-evict B probe
}

TEST(ServerCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  const auto req = make_request(9);
  cache.insert(request_fingerprint(req), request_fingerprint2(req),
               api::Solver::solve(req));
  EXPECT_FALSE(
      cache.lookup(request_fingerprint(req), request_fingerprint2(req))
          .has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ServerCache, PrimaryKeyCollisionIsAMissNotAWrongResult) {
  // Two distinct requests whose primary fingerprints collide must not
  // serve each other's results: the stored verify hash disagrees, so the
  // lookup reads as a miss (and the second hashes really do differ).
  ResultCache cache(/*capacity=*/4, /*shards=*/1);
  const auto req_a = make_request(11);
  const auto req_b = make_request(12);
  const auto key = request_fingerprint(req_a);  // forced collision
  const auto ver_a = request_fingerprint2(req_a);
  const auto ver_b = request_fingerprint2(req_b);
  ASSERT_NE(ver_a, ver_b);

  cache.insert(key, ver_a, api::Solver::solve(req_a));
  EXPECT_FALSE(cache.lookup(key, ver_b).has_value())
      << "collision served a wrong result";
  const auto hit = cache.lookup(key, ver_a);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, api::Solver::solve(req_a), "collision-checked A");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------- admission ---

TEST(ServerAdmission, QueueFullRuleIsExactAndReleases) {
  api::ServerOptions opt;
  opt.max_pending = 2;
  AdmissionController ctl(opt, /*workers=*/1);
  EXPECT_EQ(ctl.admit(0.0), AdmitDecision::kAdmit);
  EXPECT_EQ(ctl.admit(0.0), AdmitDecision::kAdmit);
  EXPECT_EQ(ctl.admit(0.0), AdmitDecision::kRejectQueueFull);
  ctl.on_complete(0.01);
  EXPECT_EQ(ctl.admit(0.0), AdmitDecision::kAdmit);

  const auto snap = ctl.snapshot();
  EXPECT_EQ(snap.admitted, 3u);
  EXPECT_EQ(snap.rejected_queue_full, 1u);
  EXPECT_EQ(snap.pending, 2u);
  EXPECT_EQ(snap.peak_pending, 2u);
}

TEST(ServerAdmission, DeadlineRuleUsesPredictedQueueWait) {
  api::ServerOptions opt;
  opt.max_pending = 100;
  AdmissionController ctl(opt, /*workers=*/1);
  // One completion seeds the EWMA at 1s, deterministic for the test.
  ASSERT_EQ(ctl.admit(0.0), AdmitDecision::kAdmit);
  ctl.on_complete(1.0);

  // Empty service: predicted wait 0, any deadline passes.
  EXPECT_EQ(ctl.admit(0.05), AdmitDecision::kAdmit);
  // One pending on one worker: the next request waits ~1 EWMA ≈ 1s.
  EXPECT_DOUBLE_EQ(ctl.predicted_wait_seconds(), 1.0);
  EXPECT_EQ(ctl.admit(0.5), AdmitDecision::kRejectDeadline);
  // Unbounded requests are exempt from the deadline rule.
  EXPECT_EQ(ctl.admit(0.0), AdmitDecision::kAdmit);
  // A roomy deadline clears the predicted wait (now 2 ahead ⇒ 2s).
  EXPECT_EQ(ctl.admit(10.0), AdmitDecision::kAdmit);

  const auto snap = ctl.snapshot();
  EXPECT_EQ(snap.admitted, 4u);  // the seeding admit, then three
  EXPECT_EQ(snap.rejected_deadline, 1u);
  EXPECT_DOUBLE_EQ(snap.ewma_service_seconds, 1.0);
}

TEST(ServerAdmission, ZeroPriorIsOptimisticUntilFirstSampleSeedsEwma) {
  // With no completion yet, the EWMA is 0: predicted wait is 0 no matter
  // the queue depth, so even microscopic deadlines admit.
  api::ServerOptions opt;
  opt.max_pending = 100;
  AdmissionController ctl(opt, /*workers=*/1);
  EXPECT_EQ(ctl.admit(1e-6), AdmitDecision::kAdmit);
  EXPECT_EQ(ctl.admit(1e-6), AdmitDecision::kAdmit);
  EXPECT_DOUBLE_EQ(ctl.predicted_wait_seconds(), 0.0);

  // The first observed completion SEEDS the EWMA (no alpha blend against
  // the empty 0, which would take ~1/alpha samples to mean anything).
  ctl.on_complete(2.0);
  EXPECT_DOUBLE_EQ(ctl.snapshot().ewma_service_seconds, 2.0);
  // One still pending on one worker: predicted wait is now a full EWMA.
  EXPECT_DOUBLE_EQ(ctl.predicted_wait_seconds(), 2.0);
  EXPECT_EQ(ctl.admit(1e-6), AdmitDecision::kRejectDeadline);
}

TEST(ServerAdmission, DeadlineExactlyEqualToPredictedWaitRejects) {
  // The rule is predicted >= deadline: a request whose whole budget would
  // burn in the queue has nothing left to solve with, so equality rejects.
  api::ServerOptions opt;
  opt.max_pending = 100;
  AdmissionController ctl(opt, /*workers=*/1);
  ASSERT_EQ(ctl.admit(0.0), AdmitDecision::kAdmit);
  ctl.on_complete(1.0);  // seeds the EWMA at 1s
  ASSERT_EQ(ctl.admit(0.0), AdmitDecision::kAdmit);
  ASSERT_DOUBLE_EQ(ctl.predicted_wait_seconds(), 1.0);
  EXPECT_EQ(ctl.admit(1.0), AdmitDecision::kRejectDeadline);
  EXPECT_EQ(ctl.admit(1.0 + 1e-9), AdmitDecision::kAdmit);
}

TEST(ServerAdmission, ConcurrentAdmitCompleteKeepsCountersConsistent) {
  // TSan-leg coverage: admits and completions race from many threads;
  // the counters must stay exact (every admit paired, pending back to 0,
  // per-class totals summing to the global total).
  api::ServerOptions opt;
  opt.max_pending = 0;  // no cap: every admit must succeed
  AdmissionController ctl(opt, /*workers=*/2);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const api::SlaClass cls =
          t % 2 == 0 ? api::SlaClass::kInteractive : api::SlaClass::kBatch;
      for (int i = 0; i < kPerThread; ++i) {
        const AdmitDecision d = ctl.admit(0.0, cls);
        ASSERT_TRUE(d == AdmitDecision::kAdmit ||
                    d == AdmitDecision::kAdmitDegraded);
        ctl.on_complete(1e-4, cls);
      }
    });
  for (auto& t : threads) t.join();

  const auto snap = ctl.snapshot();
  EXPECT_EQ(snap.admitted,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.interactive.admitted + snap.batch.admitted, snap.admitted);
  EXPECT_EQ(snap.interactive.admitted,
            static_cast<std::uint64_t>(kThreads / 2 * kPerThread));
  EXPECT_EQ(snap.pending, 0u);
  EXPECT_EQ(snap.interactive.pending, 0u);
  EXPECT_EQ(snap.batch.pending, 0u);
  EXPECT_LE(snap.peak_pending, static_cast<std::size_t>(kThreads));
  EXPECT_GE(snap.peak_pending, 1u);
  EXPECT_GT(snap.ewma_service_seconds, 0.0);
}

TEST(ServerAdmission, BatchBudgetShedsBatchWhileInteractiveAdmits) {
  api::ServerOptions opt;
  opt.max_pending = 4;
  opt.max_pending_batch = 2;
  AdmissionController ctl(opt, /*workers=*/1);
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kBatch), AdmitDecision::kAdmit);
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kBatch), AdmitDecision::kAdmit);
  // Batch budget exhausted: batch is shed...
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kBatch),
            AdmitDecision::kRejectQueueFull);
  // ...while interactive still admits up to the global bound.
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kInteractive),
            AdmitDecision::kAdmit);
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kInteractive),
            AdmitDecision::kAdmit);
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kInteractive),
            AdmitDecision::kRejectQueueFull);

  const auto snap = ctl.snapshot();
  EXPECT_EQ(snap.batch.admitted, 2u);
  EXPECT_EQ(snap.batch.rejected_queue_full, 1u);
  EXPECT_EQ(snap.interactive.admitted, 2u);
  EXPECT_EQ(snap.interactive.rejected_queue_full, 1u);
  // A batch completion frees batch budget again.
  ctl.on_complete(0.01, api::SlaClass::kBatch);
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kBatch), AdmitDecision::kAdmit);
}

TEST(ServerAdmission, InteractiveOverloadDegradesInsteadOfQueueing) {
  api::ServerOptions opt;
  opt.max_pending = 100;
  opt.degrade_wait_seconds = 0.5;
  AdmissionController ctl(opt, /*workers=*/1);
  // One batch completion seeds the EWMA at 1s.
  ASSERT_EQ(ctl.admit(0.0, api::SlaClass::kBatch), AdmitDecision::kAdmit);
  ctl.on_complete(1.0, api::SlaClass::kBatch);
  // Idle server: a full-accuracy interactive admit (its own wait is 0).
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kInteractive),
            AdmitDecision::kAdmit);
  // One ahead on one worker: this request would wait ~1 EWMA >= 0.5 s,
  // so it is admitted degraded (coarsened) instead of queued at full
  // accuracy — and batch requests never ride the ladder.
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kInteractive),
            AdmitDecision::kAdmitDegraded);
  EXPECT_EQ(ctl.admit(0.0, api::SlaClass::kBatch), AdmitDecision::kAdmit);

  const auto snap = ctl.snapshot();
  EXPECT_EQ(snap.interactive.admitted, 2u);
  EXPECT_EQ(snap.interactive.degraded, 1u);
  EXPECT_EQ(snap.batch.degraded, 0u);
  // Degraded admissions still count as pending and must pair with
  // on_complete like any other admit.
  ctl.on_complete(0.01, api::SlaClass::kInteractive);
  ctl.on_complete(0.01, api::SlaClass::kInteractive);
  ctl.on_complete(0.01, api::SlaClass::kBatch);
  EXPECT_EQ(ctl.snapshot().pending, 0u);
}

TEST(ServerAdmission, PerClassEwmaTracksItsOwnClass) {
  api::ServerOptions opt;
  opt.max_pending = 0;
  AdmissionController ctl(opt, /*workers=*/1);
  ASSERT_EQ(ctl.admit(0.0, api::SlaClass::kInteractive),
            AdmitDecision::kAdmit);
  ASSERT_EQ(ctl.admit(0.0, api::SlaClass::kBatch), AdmitDecision::kAdmit);
  ctl.on_complete(0.1, api::SlaClass::kInteractive);
  ctl.on_complete(10.0, api::SlaClass::kBatch);
  const auto snap = ctl.snapshot();
  // First sample per class seeds that class's EWMA exactly.
  EXPECT_DOUBLE_EQ(snap.interactive.ewma_service_seconds, 0.1);
  EXPECT_DOUBLE_EQ(snap.batch.ewma_service_seconds, 10.0);
  // The global EWMA blends: seeded by 0.1, then alpha-blended with 10.
  EXPECT_DOUBLE_EQ(AdmissionController::kEwmaAlpha, 0.15);
  EXPECT_DOUBLE_EQ(snap.ewma_service_seconds, 0.15 * 10.0 + 0.85 * 0.1);
}

// ------------------------------------------------------------ service ---

TEST(ServerService, CachedReplayIsBitIdenticalToDirectSolve) {
  api::ServerOptions opt;
  opt.num_threads = 2;
  opt.cache_capacity = 16;
  SolveService service(opt);

  for (int trial = 0; trial < 6; ++trial) {
    const auto req = make_request(800 + trial);
    const auto direct = api::Solver::solve(req);

    const ServeResponse first = service.serve(req);
    ASSERT_TRUE(first.served());
    EXPECT_FALSE(first.cache_hit);
    expect_identical(first.result, direct, "first serve");
    EXPECT_EQ(first.result.tag, req.tag);

    const ServeResponse replay = service.serve(req);
    ASSERT_TRUE(replay.served());
    EXPECT_TRUE(replay.cache_hit);
    expect_identical(replay.result, direct, "cached replay");
    EXPECT_EQ(replay.result.tag, req.tag);  // re-stamped on the hit

    // A one-unit cost bump is a different computation: must miss.
    const ServeResponse mutated =
        service.serve(with_cost_bumped(req, 0, 1));
    ASSERT_TRUE(mutated.served());
    EXPECT_FALSE(mutated.cache_hit);
  }
  const api::ServeStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 6u);
  EXPECT_EQ(stats.cache_misses, 12u);
  EXPECT_EQ(stats.served, 18u);
}

TEST(ServerService, DeadlineBoundedRequestsBypassTheCache) {
  api::ServerOptions opt;
  opt.num_threads = 1;
  opt.cache_capacity = 16;
  SolveService service(opt);
  auto req = make_request(42);
  req.deadline_seconds = 30.0;  // roomy: result is still the full solve
  const ServeResponse first = service.serve(req);
  const ServeResponse second = service.serve(req);
  ASSERT_TRUE(first.served());
  ASSERT_TRUE(second.served());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(service.stats().cache_insertions, 0u);
}

/// A seeded ER instance with weights up to 1000: heavy enough that scaled
/// mode really scales, so eps and the cap-search strategy move the result.
api::Instance heavy_instance(std::uint64_t seed, int n, double p,
                             double slack) {
  util::Rng rng(seed);
  api::RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = slack;
  gen::WeightRange w;
  w.cost_max = 1000;
  w.delay_max = 1000;
  const auto inst = api::random_er_instance(rng, n, p, opt, w);
  KRSP_CHECK_MSG(inst.has_value(), "seed " << seed << " drew no instance");
  return *inst;
}

TEST(ServerService, DegradedInteractiveAdmitSolvesTheCoarsenedRequest) {
  // One worker, the EWMA seeded by one completion and a tiny degrade
  // threshold: with the worker busy, an interactive request's predicted
  // wait crosses the threshold and the overload ladder serves it coarsened
  // (eps doubled, capped at 1; doubling cap search). On this instance each
  // of those three changes moves the answer.
  api::ServerOptions opt;
  opt.num_threads = 1;
  opt.cache_capacity = 0;
  opt.degrade_wait_seconds = 1e-9;
  SolveService service(opt);
  ASSERT_TRUE(service.serve(make_request(5)).served());

  api::SolveRequest req;
  req.instance = heavy_instance(365, 12, 0.35, 0.25);
  req.eps1 = 0.3;
  req.eps2 = 0.75;
  req.sla = api::SlaClass::kInteractive;
  api::SolveRequest coarse = req;
  coarse.eps1 = 0.6;
  coarse.eps2 = 1.0;
  coarse.guess = api::GuessStrategy::kDoubling;
  const api::SolveResult expected = api::Solver::solve(coarse);

  // Busy: a solve that runs until its deadline. The interactive request
  // goes in once the busy one is admitted; should the busy one finish
  // first anyway, the attempt is repeated.
  api::SolveRequest busy = req;
  busy.instance = heavy_instance(7, 40, 0.3, 0.1);
  busy.mode = api::Mode::kExactWeights;
  busy.sla = api::SlaClass::kBatch;
  busy.deadline_seconds = 0.25;
  bool degraded = false;
  for (int attempt = 0; attempt < 5 && !degraded; ++attempt) {
    std::atomic<bool> busy_done{false};
    std::thread worker([&] {
      (void)service.serve(busy);
      busy_done = true;
    });
    while (service.stats().pending == 0 && !busy_done)
      std::this_thread::yield();
    const ServeResponse resp = service.serve(req);
    worker.join();
    ASSERT_TRUE(resp.served());
    degraded = resp.degraded;
    if (!degraded) continue;
    expect_identical(resp.result, expected, "degraded admit");
    EXPECT_EQ(resp.result.telemetry.guess_attempts,
              expected.telemetry.guess_attempts);
  }
  EXPECT_TRUE(degraded);
  EXPECT_GE(service.stats().interactive.degraded, 1u);
}

TEST(ServerService, DrainStopsAdmissionsButAnswersInFlight) {
  api::ServerOptions opt;
  opt.num_threads = 2;
  SolveService service(opt);
  const auto req = make_request(77);
  ASSERT_TRUE(service.serve(req).served());
  service.drain();
  const ServeResponse after = service.serve(req);
  EXPECT_EQ(after.status, ServeStatus::kRejectedDraining);
  EXPECT_FALSE(after.served());
  EXPECT_EQ(service.stats().rejected_draining, 1u);
  service.drain();  // idempotent
}

TEST(ServerService, ConcurrentClientsAllGetBitIdenticalResults) {
  // The TSan-leg workhorse: many client threads hammer one service
  // (shared cache, admission, engine) with a small request pool.
  std::vector<api::SolveRequest> pool;
  std::vector<api::SolveResult> oracle;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(make_request(900 + i));
    oracle.push_back(api::Solver::solve(pool.back()));
  }
  api::ServerOptions opt;
  opt.num_threads = 2;
  opt.cache_capacity = 8;
  SolveService service(opt);

  constexpr int kClients = 6;
  constexpr int kPerClient = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t i = static_cast<std::size_t>(c + r) % pool.size();
        const ServeResponse resp = service.serve(pool[i]);
        if (!resp.served() || resp.result.status != oracle[i].status ||
            resp.result.cost != oracle[i].cost ||
            resp.result.delay != oracle[i].delay ||
            resp.result.paths.paths() != oracle[i].paths.paths())
          mismatches.fetch_add(1);
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const api::ServeStats stats = service.stats();
  EXPECT_EQ(stats.served, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(stats.cache_hits, 0u);
}

// ----------------------------------------------------------- protocol ---

std::string solve_line(const api::Instance& inst, const std::string& id,
                       const std::string& mode = "exact") {
  std::ostringstream kri;
  api::write_instance(kri, inst);
  return wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("instance", kri.str())
      .field("mode", mode)
      .done();
}

TEST(ServerProtocol, SolveRoundTripMatchesDirectSolve) {
  SolveService service(api::ServerOptions{.num_threads = 2});
  Protocol protocol(service);

  const auto inst = random_instance(55);
  api::SolveRequest req;
  req.instance = inst;
  req.mode = api::Mode::kExactWeights;
  const auto direct = api::Solver::solve(req);
  ASSERT_TRUE(direct.has_paths());

  const auto resp = wire::parse(protocol.handle_line(solve_line(inst, "rt-1")));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->get_string("id"), "rt-1");
  EXPECT_TRUE(resp->get_bool("ok", false));
  EXPECT_TRUE(resp->get_bool("served", false));
  EXPECT_EQ(resp->get_string("status"), api::status_name(direct.status));
  EXPECT_EQ(resp->get_int("cost", -1), direct.cost);
  EXPECT_EQ(resp->get_int("delay", -1), direct.delay);
  const wire::Value* paths = resp->find("paths");
  ASSERT_NE(paths, nullptr);
  ASSERT_EQ(paths->items.size(), direct.paths.paths().size());
  for (std::size_t p = 0; p < paths->items.size(); ++p) {
    ASSERT_EQ(paths->items[p].items.size(), direct.paths.paths()[p].size());
    for (std::size_t e = 0; e < paths->items[p].items.size(); ++e)
      EXPECT_EQ(paths->items[p].items[e].integer,
                direct.paths.paths()[p][e]);
  }
}

TEST(ServerProtocol, MalformedAndUnknownInputsGetErrorResponses) {
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service);
  for (const char* bad :
       {"not json", "[1,2,3]", "{\"op\":\"nope\"}",
        "{\"op\":\"solve\"}",  // missing instance
        "{\"op\":\"solve\",\"instance\":\"garbage text\"}"}) {
    const auto resp = wire::parse(protocol.handle_line(bad));
    ASSERT_TRUE(resp.has_value()) << bad;
    EXPECT_FALSE(resp->get_bool("ok", true)) << bad;
    EXPECT_FALSE(resp->get_string("error").empty()) << bad;
  }
  // Protocol errors must not count as served work.
  EXPECT_EQ(service.stats().received, 0u);
}

TEST(ServerProtocol, SlaClassIsParsedEchoedAndCounted) {
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service);
  const auto inst = random_instance(57);
  std::ostringstream kri;
  api::write_instance(kri, inst);

  const auto line = [&](const std::string& cls, const std::string& id) {
    return wire::ObjectWriter()
        .field("op", "solve")
        .field("id", id)
        .field("instance", kri.str())
        .field("mode", "exact")
        .field("class", cls)
        .done();
  };
  const auto inter =
      wire::parse(protocol.handle_line(line("interactive", "i")));
  ASSERT_TRUE(inter.has_value());
  EXPECT_TRUE(inter->get_bool("served", false));
  EXPECT_EQ(inter->get_string("sla"), "interactive");
  const auto batch = wire::parse(protocol.handle_line(line("batch", "b")));
  EXPECT_EQ(batch->get_string("sla"), "batch");
  // Absent class defaults to batch; a cache hit keeps the response's own
  // class (the hit re-serves cached bytes under this request's SLA).
  const auto dflt =
      wire::parse(protocol.handle_line(solve_line(inst, "d", "exact")));
  EXPECT_EQ(dflt->get_string("sla"), "batch");
  EXPECT_TRUE(dflt->get_bool("cache_hit", false));

  const auto bad = wire::parse(protocol.handle_line(line("premium", "x")));
  EXPECT_FALSE(bad->get_bool("ok", true));

  const auto stats = wire::parse(protocol.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.has_value());
  // Interactive solved once; the batch-class requests were one miss (the
  // explicit batch solve shares the interactive solve's fingerprint and
  // hits the cache — admission is bypassed on hits, so only true solves
  // count as admitted).
  EXPECT_EQ(stats->get_int("interactive_admitted", -1), 1);
  EXPECT_EQ(stats->get_int("interactive_degraded", -1), 0);
  EXPECT_EQ(stats->get_int("batch_rejected_queue_full", -1), 0);
  EXPECT_GE(stats->get_int("batch_admitted", -1), 0);
  EXPECT_EQ(stats->get_int("cache_hits", -1), 2);
}

TEST(ServerProtocol, StatsPingAndShutdownOps) {
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service);
  const auto inst = random_instance(56);
  ASSERT_TRUE(wire::parse(protocol.handle_line(solve_line(inst, "s-1")))
                  ->get_bool("served", false));

  const auto pong = wire::parse(protocol.handle_line(R"({"op":"ping"})"));
  EXPECT_TRUE(pong->get_bool("pong", false));

  const auto stats = wire::parse(protocol.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->get_bool("ok", false));
  EXPECT_EQ(stats->get_int("received", -1), 1);
  EXPECT_EQ(stats->get_int("served", -1), 1);
  EXPECT_EQ(stats->get_int("threads", -1), 1);

  EXPECT_FALSE(protocol.shutdown_requested());
  const auto bye = wire::parse(protocol.handle_line(R"({"op":"shutdown"})"));
  EXPECT_TRUE(bye->get_bool("draining", false));
  EXPECT_TRUE(protocol.shutdown_requested());
}

}  // namespace
}  // namespace krsp::server
