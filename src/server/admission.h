// Admission control for the solve service: reject early, never queue to
// death.
//
// The controller tracks how many admitted requests are still unfinished
// (queued or executing) and an EWMA of observed per-request service time.
// Two rejection rules, both evaluated at arrival so a doomed request
// costs the client one round-trip instead of a timeout:
//
//   * queue-full — pending >= max_pending: the service is saturated and
//     adding depth only adds latency for everyone (the journal version of
//     the source paper motivates kRSP with online QoS provisioning, where
//     a fast "no" lets the caller fail over instead of waiting);
//   * deadline-unmeetable — the predicted queue wait,
//     max(0, pending + 1 - workers) x EWMA / workers, already exhausts
//     the request's deadline_seconds. The solver's anytime ladder can
//     degrade a *running* solve gracefully, but a request whose whole
//     budget burns in the queue would degrade to nothing — reject it
//     immediately instead (util/deadline.h charges the wait end-to-end).
//
// Requests carry an SLA class (api::SlaClass). Batch requests are bounded
// by their own budget (max_pending_batch <= max_pending), so under
// overload batch load is shed first while interactive traffic keeps
// admitting up to the global bound. Interactive requests additionally
// ride an overload ladder: when the predicted wait crosses
// degrade_wait_seconds the decision is kAdmitDegraded — the service
// coarsens the request (anytime ladder: larger eps, doubling cap search)
// instead of queueing a full-accuracy solve or rejecting outright.
// Per-class EWMAs and counters are kept for telemetry; the wait
// prediction uses the global EWMA (the worker pool is shared, so the
// queue drains at the blended rate). Every EWMA is seeded by its first
// completion and then blends each new one in with weight kEwmaAlpha; until
// the first completion the predicted wait is 0, so early requests admit.
//
// The settings come from api::ServerOptions (max_pending,
// max_pending_batch, degrade_wait_seconds). Thread-safe; one mutex, O(1)
// per call — negligible next to a solve.
#pragma once

#include <cstdint>
#include <mutex>

#include "api/krsp.h"

namespace krsp::server {

enum class AdmitDecision {
  kAdmit,
  /// Admitted, but the service should coarsen the request (overload
  /// ladder). Counts as admitted for pending/counter purposes.
  kAdmitDegraded,
  kRejectQueueFull,
  kRejectDeadline,
};

[[nodiscard]] const char* admit_decision_name(AdmitDecision decision);

class AdmissionController {
 public:
  /// Smoothing factor of the service-time EWMAs.
  static constexpr double kEwmaAlpha = 0.15;

  AdmissionController(const api::ServerOptions& options, int workers);

  /// Decides for one arriving request (deadline_seconds <= 0 = unbounded,
  /// exempt from the deadline rule). On kAdmit/kAdmitDegraded the request
  /// is registered as pending; the caller MUST pair it with on_complete()
  /// of the same class.
  [[nodiscard]] AdmitDecision admit(
      double deadline_seconds, api::SlaClass cls = api::SlaClass::kBatch);

  /// Marks one admitted request finished and feeds its observed service
  /// time (seconds of solve execution) into the global and per-class
  /// EWMAs.
  void on_complete(double service_seconds,
                   api::SlaClass cls = api::SlaClass::kBatch);

  struct Snapshot {
    std::uint64_t admitted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_deadline = 0;
    std::size_t pending = 0;
    std::size_t peak_pending = 0;
    double ewma_service_seconds = 0.0;
    api::SlaClassStats interactive;
    api::SlaClassStats batch;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Predicted queue wait for a request arriving now (seconds).
  [[nodiscard]] double predicted_wait_seconds() const;

 private:
  struct ClassState {
    api::SlaClassStats stats;
    bool have_sample = false;
  };

  [[nodiscard]] double predicted_wait_locked() const;
  [[nodiscard]] ClassState& state_for(api::SlaClass cls) {
    return cls == api::SlaClass::kInteractive ? interactive_ : batch_;
  }

  const api::ServerOptions options_;
  const int workers_;

  mutable std::mutex mu_;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  double ewma_seconds_ = 0.0;
  bool have_sample_ = false;
  ClassState interactive_;
  ClassState batch_;
};

}  // namespace krsp::server
