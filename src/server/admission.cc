#include "server/admission.h"

#include <algorithm>

#include "util/check.h"

namespace krsp::server {

const char* admit_decision_name(AdmitDecision decision) {
  switch (decision) {
    case AdmitDecision::kAdmit:
      return "admit";
    case AdmitDecision::kAdmitDegraded:
      return "admit-degraded";
    case AdmitDecision::kRejectQueueFull:
      return "queue-full";
    case AdmitDecision::kRejectDeadline:
      return "deadline-unmeetable";
  }
  return "unknown";
}

namespace {

/// Folds one observed service time into an EWMA; the first one seeds it
/// (blending against an empty 0 would take ~1/alpha samples to mean
/// anything).
void observe(double sample, double& ewma, bool& have_sample) {
  constexpr double kAlpha = AdmissionController::kEwmaAlpha;
  ewma = have_sample ? kAlpha * sample + (1.0 - kAlpha) * ewma : sample;
  have_sample = true;
}

}  // namespace

AdmissionController::AdmissionController(const api::ServerOptions& options,
                                         int workers)
    : options_(options), workers_(std::max(1, workers)) {
  KRSP_CHECK_MSG(options_.max_pending == 0 ||
                     options_.max_pending_batch <= options_.max_pending,
                 "max_pending_batch must not exceed max_pending");
}

double AdmissionController::predicted_wait_locked() const {
  if (pending_ + 1 <= static_cast<std::size_t>(workers_)) return 0.0;
  const double jobs_ahead =
      static_cast<double>(pending_ + 1 - static_cast<std::size_t>(workers_));
  return jobs_ahead * ewma_seconds_ / static_cast<double>(workers_);
}

AdmitDecision AdmissionController::admit(double deadline_seconds,
                                         api::SlaClass cls) {
  const std::lock_guard<std::mutex> lock(mu_);
  ClassState& state = state_for(cls);
  if (options_.max_pending > 0 && pending_ >= options_.max_pending) {
    ++state.stats.rejected_queue_full;
    return AdmitDecision::kRejectQueueFull;
  }
  // Batch budget: sheds batch load while interactive still admits. The
  // budget only binds when a cap exists at all (max_pending > 0).
  if (cls == api::SlaClass::kBatch && options_.max_pending > 0) {
    const std::size_t batch_budget = options_.max_pending_batch > 0
                                         ? options_.max_pending_batch
                                         : options_.max_pending;
    if (state.stats.pending >= batch_budget) {
      ++state.stats.rejected_queue_full;
      return AdmitDecision::kRejectQueueFull;
    }
  }
  // This request's own predicted wait (evaluated before it joins the
  // queue) drives both the deadline rule and the overload ladder.
  const double own_wait = predicted_wait_locked();
  if (deadline_seconds > 0.0 && own_wait >= deadline_seconds) {
    ++state.stats.rejected_deadline;
    return AdmitDecision::kRejectDeadline;
  }
  ++pending_;
  ++state.stats.pending;
  ++state.stats.admitted;
  peak_pending_ = std::max(peak_pending_, pending_);
  if (cls == api::SlaClass::kInteractive &&
      options_.degrade_wait_seconds > 0.0 &&
      own_wait >= options_.degrade_wait_seconds) {
    ++state.stats.degraded;
    return AdmitDecision::kAdmitDegraded;
  }
  return AdmitDecision::kAdmit;
}

void AdmissionController::on_complete(double service_seconds,
                                      api::SlaClass cls) {
  const std::lock_guard<std::mutex> lock(mu_);
  ClassState& state = state_for(cls);
  KRSP_CHECK_MSG(pending_ > 0, "on_complete without a matching admit");
  KRSP_CHECK_MSG(state.stats.pending > 0,
                 "on_complete(" << api::sla_class_name(cls)
                                << ") without a matching admit of that class");
  --pending_;
  --state.stats.pending;
  if (service_seconds >= 0.0) {
    observe(service_seconds, ewma_seconds_, have_sample_);
    observe(service_seconds, state.stats.ewma_service_seconds,
            state.have_sample);
  }
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.interactive = interactive_.stats;
  s.batch = batch_.stats;
  s.admitted = s.interactive.admitted + s.batch.admitted;
  s.rejected_queue_full =
      s.interactive.rejected_queue_full + s.batch.rejected_queue_full;
  s.rejected_deadline =
      s.interactive.rejected_deadline + s.batch.rejected_deadline;
  s.pending = pending_;
  s.peak_pending = peak_pending_;
  s.ewma_service_seconds = ewma_seconds_;
  return s;
}

double AdmissionController::predicted_wait_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return predicted_wait_locked();
}

}  // namespace krsp::server
