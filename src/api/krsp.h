// krsp::api — the stable public facade.
//
// This header is the supported entry point to the library: build an
// Instance, describe the solve as a SolveRequest, and hand it to
// Solver::solve (one-off), Engine::submit (streaming), or
// Engine::solve_batch (one-shot throughput). Everything underneath —
// core::KrspSolver, the phase-1/cancellation internals, the workspace
// machinery — is implementation detail and may change between releases;
// this surface will not. docs/API.md documents the full request/result
// contract, thread-safety guarantees, and the migration table from the
// legacy core:: call sites.
//
// Error contract: solve entry points do not throw for per-request problems.
// Invalid instances, internal invariant trips, anything that would abort a
// solve is captured as SolveStatus::kFailed with SolveResult::error set, so
// one bad request cannot take down a batch. An instance outside the
// paper's model fails with the reason Instance::validate gives
// ("instance: bad source 7", "instance: negative cost edge", ...):
// phase 1, the first stage of every mode, checks the whole instance once
// per solve, and materialized_instance() checks only an override's
// query, in O(1). docs/API.md lists which entry point checks what.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"
#include "core/io.h"
#include "core/kbcp.h"
#include "core/path_set.h"
#include "core/priority_routing.h"
#include "core/repair.h"
#include "core/solver.h"
#include "core/vertex_disjoint.h"
#include "core/workspace.h"
#include "util/deadline.h"

namespace krsp::api {

// Re-exported problem/solution vocabulary. These are the library's own
// types; the aliases pin them into the stable namespace.
using core::DegradationStep;
using core::Instance;
using core::PathSet;
using core::SolveStatus;
using core::SolveTelemetry;
using core::SolveWorkspace;

// Instance construction and persistence, so callers never need a core::
// include next to this header.
using core::has_k_disjoint_paths;
using core::make_random_instance;
using core::min_possible_delay;
using core::random_er_instance;
using core::RandomInstanceOptions;
using core::read_instance;
using core::read_instance_file;
using core::write_instance;
using core::write_instance_file;
using core::write_paths;

// Scenario extensions that ride on a solved PathSet or reuse the Instance
// vocabulary: urgency-based traffic assignment, vertex-disjoint and kBCP
// variants, and incremental repair after link failures. Re-exported so
// application code needs no core:: include next to this header.
using core::assign_by_urgency;
using core::KbcpInstance;
using core::KbcpStatus;
using core::repair_after_failures;
using core::RepairOutcome;
using core::solve_kbcp;
using core::solve_vertex_disjoint;
using core::TrafficClass;

/// Which of the paper's algorithms to run (see README "Solver modes"):
/// kScaled (Theorem 4: (1+eps1, 2+eps2), polynomial — the default),
/// kExactWeights (Lemma 3: (1, 2), pseudo-polynomial) or kPhase1Only
/// (Lemma 5: delay/D + cost/C_OPT <= 2, delay may exceed D).
using Mode = core::SolverOptions::Mode;

/// Ĉ search strategy for the cancellation cost cap: kBinarySearch
/// certifies the 2·(C_OPT+1) bound, kDoubling takes a cap up to 2× looser
/// in fewer cancellation runs.
using GuessStrategy = core::SolverOptions::GuessStrategy;

/// The wire and command-line spellings: "scaled", "exact", "phase1" and
/// "binary", "doubling". nullopt for any other name; callers word the
/// error.
[[nodiscard]] std::optional<Mode> parse_mode(std::string_view name);
[[nodiscard]] std::optional<GuessStrategy> parse_guess(std::string_view name);

/// Service class of a request for SLA-tiered admission (serving layer
/// only; a direct Solver::solve ignores it). Interactive requests are
/// latency-sensitive: under overload the service admits them into the
/// degraded (coarser-eps) ladder and sheds batch load first. Batch
/// requests accept queueing and are bounded by their own smaller budget.
enum class SlaClass { kInteractive, kBatch };

/// Short stable name ("interactive", "batch") for wire and logs.
[[nodiscard]] const char* sla_class_name(SlaClass cls);
/// The inverse of sla_class_name; nullopt for any other name.
[[nodiscard]] std::optional<SlaClass> parse_sla_class(std::string_view name);

/// A named, immutable topology shared across requests — the API face of
/// one catalog entry (store::TopologyCatalog materializes these from
/// mmap'd `.krspb` containers at startup). Requests that reference a
/// TopologyRef skip per-request graph shipping and parsing entirely, and
/// the precomputed fingerprint prefixes make cache keying O(1) instead
/// of O(m) (api/fingerprint.h explains why the values still match the
/// inline path exactly).
struct TopologyRef {
  /// Catalog id (the container's filename stem for catalog entries).
  std::string id;
  /// Content digest from the container header; 0 for ad-hoc refs.
  std::uint64_t digest = 0;
  /// FNV-1a / splitmix64 accumulator states after the graph words
  /// (api::graph_fingerprint_prefix of *instance).
  std::uint64_t fp_prefix = 0;
  std::uint64_t fp2_prefix = 0;
  /// The materialized instance: graph plus the topology's default query.
  /// Immutable and shared — every request referencing this topology reads
  /// the same object concurrently.
  std::shared_ptr<const Instance> instance;
};

/// A deferred query override for topology-referencing requests: the four
/// query fields to apply on top of `topology->instance`'s graph. Kept
/// symbolic so the serving hot path stays O(1) — fingerprints mix these
/// values directly after the stored graph prefix, and the instance is
/// built only when a solve actually runs (a cache hit or a routing
/// decision never pays for it). Even then the graph is not copied: the
/// built instance shares the catalog graph's storage (graph::Digraph
/// copies share).
struct QueryOverride {
  graph::VertexId s = 0;
  graph::VertexId t = 0;
  int k = 1;
  graph::Delay delay_bound = 0;
};

/// One solve, self-contained: the instance plus every knob that affects
/// the answer. Requests are value types — copy or move them freely; a
/// batch may repeat the same instance under different parameters.
///
/// Two ways to name the graph:
///   * inline — fill `instance` (the original v1 surface, still fully
///     supported; see docs/API.md for the deprecation note on shipping
///     large graphs inline through the serving layer);
///   * by reference — set `topology` to a shared TopologyRef; `instance`
///     is then ignored (leave it default-constructed to avoid carrying a
///     dead copy).
/// All consumers go through instance_view(), which picks the right one.
struct SolveRequest {
  Instance instance;
  /// When set, the solve runs against *topology->instance and `instance`
  /// above is ignored.
  std::shared_ptr<const TopologyRef> topology;
  /// Deferred query override; meaningful only with `topology` set. When
  /// present the effective query is these four fields, not the topology's
  /// defaults — instance_view() still returns the shared default instance
  /// (same graph), so consumers that need the query go through
  /// effective_query() or materialized_instance().
  std::optional<QueryOverride> query_override;
  Mode mode = Mode::kScaled;
  double eps1 = 0.25;  // delay slack (Theorem 4; kScaled only)
  double eps2 = 0.25;  // cost slack (Theorem 4; kScaled only)
  GuessStrategy guess = GuessStrategy::kBinarySearch;
  /// Wall-clock budget for this request; <= 0 = unbounded. The clock
  /// starts when the solve starts *executing* (queueing time in a batch is
  /// not charged). On expiry the solver returns the best result of the
  /// anytime degradation ladder; SolveResult::degradation() names the step.
  double deadline_seconds = 0.0;
  /// SLA tier for the serving layer's admission controller; does not
  /// affect the computation itself (and is excluded from the result-cache
  /// fingerprint — both tiers share cache entries).
  SlaClass sla = SlaClass::kBatch;
  /// Caller correlation id, echoed verbatim in the result.
  std::string tag;

  /// The instance this request actually solves: the referenced topology's
  /// when `topology` is set, the inline member otherwise. Note a pending
  /// query_override is NOT applied here — the view keeps the topology's
  /// default query fields; see effective_query()/materialized_instance().
  [[nodiscard]] const Instance& instance_view() const {
    return topology != nullptr ? *topology->instance : instance;
  }

  /// The query this request actually asks: the override when one is
  /// pending, the viewed instance's fields otherwise. O(1); this is what
  /// fingerprints and routing key on.
  [[nodiscard]] QueryOverride effective_query() const {
    if (topology != nullptr && query_override) return *query_override;
    const Instance& inst = instance_view();
    return QueryOverride{inst.s, inst.t, inst.k, inst.delay_bound};
  }

  /// The concrete Instance this request solves: instance_view() with a
  /// pending override's query applied. O(1): the instance shares the
  /// viewed graph's storage, and only the override's query is checked
  /// (Instance::validate_query), so a bad override throws
  /// util::CheckError here. The graph's weights are checked once per
  /// solve, by phase 1. Call only when the solve actually runs — cache
  /// hits and ring-key computation never need it.
  [[nodiscard]] Instance materialized_instance() const;
};

struct SolveResult {
  std::string tag;
  SolveStatus status = SolveStatus::kFailed;
  PathSet paths;
  graph::Cost cost = 0;
  graph::Delay delay = 0;
  /// Includes the bicameral kernel's pruning counters for the final
  /// cancellation run (telemetry.cancel.finder_stats): anchors scanned vs
  /// pruned, SCCs skipped outright, and the DP-table high-water mark
  /// peak_dp_bytes — see core::BicameralStats and docs/PERF.md.
  SolveTelemetry telemetry;
  /// Time the request sat in the engine queue before a worker claimed it
  /// (0 for direct Solver::solve calls). Observability only: not part of
  /// the computation, the cache payload comparison, or the fingerprint.
  double queue_wait_seconds = 0.0;
  /// Diagnostic for status == kFailed (invariant trip, invalid instance).
  std::string error;

  [[nodiscard]] bool has_paths() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kApprox ||
           status == SolveStatus::kApproxDelayOver;
  }
  /// Which anytime step served this result (kNone = full algorithm).
  [[nodiscard]] DegradationStep degradation() const {
    return telemetry.degradation;
  }
};

/// Stateless single-solve entry point. Thread-safe: concurrent solve()
/// calls are independent (hand each thread its own workspace, or none).
class Solver {
 public:
  [[nodiscard]] static SolveResult solve(const SolveRequest& request);

  /// Same, reusing per-thread scratch across calls (identical results,
  /// fewer allocations — see core/workspace.h).
  [[nodiscard]] static SolveResult solve(const SolveRequest& request,
                                         SolveWorkspace& workspace);

  /// Same, but the wall-clock budget is the given *absolute* deadline
  /// (anchored by the caller) instead of request.deadline_seconds anchored
  /// at execution start. This is how a serving layer charges queue wait
  /// against a request's end-to-end budget: anchor the deadline at
  /// admission and whatever is left when a worker picks the request up
  /// funds the anytime ladder.
  [[nodiscard]] static SolveResult solve(const SolveRequest& request,
                                         const util::Deadline& deadline,
                                         SolveWorkspace& workspace);
};

struct EngineOptions {
  /// Worker threads in the pool; 0 = std::thread::hardware_concurrency(),
  /// negative values clamp to 1.
  int num_threads = 0;
  /// Bound on requests waiting in the engine's work queue (excludes the
  /// ones already executing). submit() blocks — backpressure, never drops
  /// — while the queue is full; 0 = unbounded.
  std::size_t queue_capacity = 0;
};

/// Handle to one submitted request: a future for the result plus the
/// engine-assigned submission index. Ids increase in submit order, so a
/// caller that wants order-stable output can simply get() tickets in id
/// order. Move-only; get() may be called once.
class Ticket {
 public:
  /// Id carried by tickets refused at submission (engine closed). A
  /// refusal consumes no submission index — the dense 0-based sequence
  /// belongs to accepted requests only — so refused tickets all share
  /// this sentinel instead of aliasing the next accepted id.
  static constexpr std::uint64_t kRefusedId = ~std::uint64_t{0};

  Ticket() = default;
  Ticket(Ticket&&) = default;
  Ticket& operator=(Ticket&&) = default;

  [[nodiscard]] bool valid() const { return future_.valid(); }
  /// Submission index, 0-based and dense per engine for accepted
  /// requests; kRefusedId for tickets refused after close().
  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// True once the result is available (get() will not block).
  [[nodiscard]] bool ready() const {
    return future_.valid() && future_.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready;
  }
  /// Blocks for the result; consumes the ticket (valid() is false after).
  [[nodiscard]] SolveResult get() { return future_.get(); }

 private:
  friend class Engine;
  Ticket(std::uint64_t id, std::future<SolveResult> future)
      : id_(id), future_(std::move(future)) {}

  std::uint64_t id_ = 0;
  std::future<SolveResult> future_;
};

/// Fixed-size worker pool executing a continuous stream of solve requests.
///
/// submit() enqueues one request onto a bounded MPMC work queue drained by
/// the worker pool and returns a Ticket immediately; solve_batch() is the
/// one-shot convenience built on top of it. Both may be called from any
/// number of threads concurrently. Each worker keeps one SolveWorkspace
/// for its whole lifetime, so consecutive solves reuse the MCMF network,
/// the bicameral DP tables and the residual storage.
///
/// Determinism: each request is solved independently by exactly one worker
/// using the same serial algorithm regardless of pool size or scheduling,
/// so for requests without deadlines the results are bit-identical across
/// thread counts and across submit()/solve_batch() (engine_test asserts
/// this at 1/2/8 threads). Deadline-bounded requests are anytime by
/// design — their degradation step may legitimately differ run to run.
///
/// Shutdown: destruction drains — already-submitted requests run to
/// completion and their tickets are fulfilled before workers exit.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] int num_threads() const;

  /// Enqueues one request; blocks only when the queue is at capacity
  /// (EngineOptions::queue_capacity). After close(), returns an
  /// already-fulfilled kFailed ticket instead of enqueueing.
  ///
  /// Without `deadline`, request.deadline_seconds is anchored when a
  /// worker claims the request. With it, the solve is charged against
  /// that absolute deadline anchored by the caller (see the Solver::solve
  /// overload); the serving layer uses this to bill queue wait against
  /// the request's end-to-end budget.
  [[nodiscard]] Ticket submit(
      SolveRequest request,
      std::optional<util::Deadline> deadline = std::nullopt);

  /// Solves every request on the worker pool and returns results in
  /// request order. Blocks until the batch completes; per-request failures
  /// come back as status kFailed (never an exception). An empty request
  /// vector returns an empty result vector.
  [[nodiscard]] std::vector<SolveResult> solve_batch(
      const std::vector<SolveRequest>& requests);

  /// Stops accepting new submissions (queued work still runs). Idempotent.
  void close();
  /// Blocks until every submitted request has completed.
  void drain();

  /// Requests waiting in the queue right now (excludes executing ones).
  [[nodiscard]] std::size_t queue_depth() const;
  /// Total requests ever submitted / completed (telemetry).
  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t completed() const;

 private:
  struct Impl;  // engine/engine.cc: queue, workers, per-worker workspaces
  std::unique_ptr<Impl> impl_;
};

/// Configuration for the serving layer (server::SolveService and the
/// krsp_serve front-end). The service stacks three mechanisms in front of
/// the streaming Engine: a sharded LRU result cache, an admission
/// controller that rejects rather than queues-to-death (a deadline-bounded
/// request whose predicted queue wait, pending × EWMA service time /
/// workers, already exhausts its deadline_seconds is rejected up front:
/// an immediate, honest rejection instead of a guaranteed timeout), and
/// end-to-end deadline accounting (queue wait is charged against a
/// request's deadline_seconds; what remains at execution start funds the
/// anytime ladder).
struct ServerOptions {
  /// Worker threads of the underlying Engine; 0 = hardware concurrency.
  int num_threads = 0;

  /// Admission bound: maximum requests admitted but not yet completed
  /// (queued + executing), across both SLA classes. Beyond it, serve()
  /// rejects immediately with kRejectedQueueFull; 0 = unbounded.
  std::size_t max_pending = 256;
  /// Batch-class budget within max_pending; 0 = inherit max_pending
  /// (classless behavior). A smaller batch budget is how interactive
  /// traffic sheds batch load under overload: batch hits its budget and
  /// rejects while interactive keeps admitting up to the global bound.
  std::size_t max_pending_batch = 0;
  /// Interactive overload ladder: when the predicted queue wait for an
  /// arriving interactive request exceeds this many seconds, admit it in
  /// degraded mode — double eps1/eps2 up to 1 (kScaled) and switch the
  /// cap search to kDoubling — instead of queueing the full-accuracy
  /// solve. 0 disables the ladder. Degraded results are never cached.
  double degrade_wait_seconds = 0.0;

  /// Result-cache entry bound across all shards; 0 disables the cache.
  std::size_t cache_capacity = 1024;
  /// Shard count (each shard has its own lock and LRU list); clamped >= 1.
  int cache_shards = 8;
};

/// Per-SLA-class serving counters (monotonic except the pending gauge).
struct SlaClassStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  /// Admits that went through the overload ladder (coarsened eps).
  std::uint64_t degraded = 0;
  std::size_t pending = 0;            // gauge
  double ewma_service_seconds = 0.0;  // per-class service-time estimate
};

/// Serving-layer counters, all monotonic since service start except the
/// instantaneous depth/entry gauges. Snapshot via SolveService::stats().
struct ServeStats {
  std::uint64_t received = 0;  // serve() calls, any outcome
  std::uint64_t served = 0;    // completed through the engine
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_draining = 0;  // arrived during/after drain()
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;       // gauge
  /// Gauge: live entries per cache shard (index = shard). The spread
  /// shows whether the key partition balances; a hot shard caps hit rate.
  std::vector<std::size_t> cache_shard_entries;
  std::size_t pending = 0;             // gauge: admitted, not completed
  std::size_t peak_pending = 0;
  double ewma_service_seconds = 0.0;   // admission's service-time estimate
  /// Per-tier breakdowns of the admission counters above.
  SlaClassStats interactive;
  SlaClassStats batch;
};

/// Lowering of a request onto the internal solver configuration. Exposed
/// so tools migrating from core:: call sites can verify 1:1 parity.
[[nodiscard]] core::SolverOptions to_solver_options(
    const SolveRequest& request);

/// Short stable identifier for a status ("optimal", "approx", ...).
[[nodiscard]] const char* status_name(SolveStatus status);

}  // namespace krsp::api
