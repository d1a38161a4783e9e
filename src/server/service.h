// The solve service: the library's long-running front door.
//
// SolveService stacks the serving mechanisms in front of the streaming
// api::Engine, in the order a request meets them:
//
//   serve(request)
//     1. result cache  — fingerprint lookup; a hit returns the cached
//        result (bit-identical to a fresh solve) without touching the
//        queue;
//     2. admission     — reject immediately when saturated (queue-full)
//        or when the predicted queue wait already exhausts the request's
//        deadline (deadline-unmeetable), instead of timing out later;
//     3. engine.submit — the bounded MPMC queue + worker pool; the
//        request's deadline is anchored HERE (end-to-end: queue wait is
//        charged against it, and whatever remains at execution start
//        funds the solver's anytime degradation ladder);
//     4. cache insert  — deadline-free successful solves are stored for
//        future hits.
//
// serve() blocks its calling thread until the outcome; stream by calling
// it from many threads (the socket transport runs one thread per
// connection). Shutdown is graceful: drain() stops admissions, lets
// every in-flight request finish, and leaves the stats readable.
#pragma once

#include <atomic>
#include <memory>

#include "api/krsp.h"
#include "server/admission.h"
#include "server/result_cache.h"

namespace krsp::server {

enum class ServeStatus {
  kServed,             // result is valid (possibly SolveStatus::kFailed)
  kRejectedQueueFull,  // admission: saturation
  kRejectedDeadline,   // admission: deadline unmeetable in queue
  kRejectedDraining,   // service is shutting down
};

[[nodiscard]] const char* serve_status_name(ServeStatus status);

struct ServeResponse {
  ServeStatus status = ServeStatus::kServed;
  bool cache_hit = false;
  /// SLA class the request was admitted under (echoed from the request).
  api::SlaClass sla = api::SlaClass::kBatch;
  /// True when the overload ladder coarsened this request before solving
  /// (interactive class under pressure): eps multiplied by
  /// SolveService::kOverloadEpsFactor up to kOverloadEpsCap (kScaled) and
  /// the cap search switched to kDoubling. Degraded results are never
  /// cached.
  bool degraded = false;
  /// End-to-end time inside serve(), seconds.
  double total_seconds = 0.0;
  /// total minus the solver's own wall clock — queueing + dispatch
  /// overhead (0 for cache hits and rejections).
  double wait_seconds = 0.0;
  /// Per-request breakdown (always measured; the wire layer echoes it
  /// only when the request sets the "timing" flag). cache_lookup covers
  /// fingerprint + shard probe; admission the admit decision; the queue
  /// wait and solve wall live in result (queue_wait_seconds,
  /// telemetry.wall_seconds).
  double cache_lookup_seconds = 0.0;
  double admission_seconds = 0.0;
  /// Meaningful only when status == kServed.
  api::SolveResult result;

  [[nodiscard]] bool served() const { return status == ServeStatus::kServed; }
};

class SolveService {
 public:
  /// The overload ladder's coarsening of a kScaled request's eps1/eps2.
  static constexpr double kOverloadEpsFactor = 2.0;
  static constexpr double kOverloadEpsCap = 1.0;

  explicit SolveService(api::ServerOptions options = {});
  ~SolveService();  // drains
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Serves one request to completion (or rejection). Thread-safe and
  /// blocking; never throws for per-request problems (the Solver error
  /// contract extends to the service).
  [[nodiscard]] ServeResponse serve(api::SolveRequest request);

  /// Stops admitting, waits for all in-flight requests to complete.
  /// Idempotent; serve() afterwards returns kRejectedDraining.
  void drain();

  [[nodiscard]] api::ServeStats stats() const;
  [[nodiscard]] int num_threads() const { return engine_.num_threads(); }

 private:
  api::Engine engine_;
  AdmissionController admission_;
  ResultCache cache_;
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_draining_{0};
};

}  // namespace krsp::server
