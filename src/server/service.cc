#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "api/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace krsp::server {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-SLA-class serve-latency histograms (ns, end-to-end inside
/// serve()); the `metrics` wire op renders their p50/p90/p99/p999.
/// Registry refs resolve once — recording is pure atomics.
obs::Histogram& serve_latency_histogram(api::SlaClass sla) {
  static obs::Histogram* per_class[] = {
      &obs::Registry::global().histogram("krsp_serve_latency_ns",
                                         "class=\"interactive\""),
      &obs::Registry::global().histogram("krsp_serve_latency_ns",
                                         "class=\"batch\""),
  };
  return *per_class[static_cast<int>(sla)];
}

/// Request-outcome counters per (class, ServeStatus), resolved once.
obs::Counter& serve_outcome_counter(api::SlaClass sla, ServeStatus status) {
  static const auto make = [](const char* cls, const char* outcome) {
    return &obs::Registry::global().counter(
        "krsp_serve_requests_total",
        std::string("class=\"") + cls + "\",outcome=\"" + outcome + '"');
  };
  // Indexed by [SlaClass][ServeStatus]; the enum orders are pinned by the
  // definitions in api/krsp.h and service.h.
  static obs::Counter* table[2][4] = {
      {make("interactive", "served"),
       make("interactive", "rejected-queue-full"),
       make("interactive", "rejected-deadline"),
       make("interactive", "rejected-draining")},
      {make("batch", "served"), make("batch", "rejected-queue-full"),
       make("batch", "rejected-deadline"),
       make("batch", "rejected-draining")},
  };
  return *table[static_cast<int>(sla)][static_cast<int>(status)];
}

/// Every serve() exit path funnels through here: end-to-end latency into
/// the per-class histogram, outcome into the per-(class, status) counter.
void note_outcome(const ServeResponse& resp) {
  serve_latency_histogram(resp.sla).record(static_cast<std::uint64_t>(
      std::max(0.0, resp.total_seconds) * 1e9));
  serve_outcome_counter(resp.sla, resp.status).inc();
}

}  // namespace

const char* serve_status_name(ServeStatus status) {
  switch (status) {
    case ServeStatus::kServed:
      return "served";
    case ServeStatus::kRejectedQueueFull:
      return "rejected-queue-full";
    case ServeStatus::kRejectedDeadline:
      return "rejected-deadline";
    case ServeStatus::kRejectedDraining:
      return "rejected-draining";
  }
  return "unknown";
}

// Admission bounds pending work; the engine queue itself stays unbounded
// (queue_capacity 0) so an admitted request can never block on
// backpressure.
SolveService::SolveService(api::ServerOptions options)
    : engine_(api::EngineOptions{.num_threads = options.num_threads,
                                 .queue_capacity = 0}),
      admission_(options, engine_.num_threads()),
      cache_(options.cache_capacity, options.cache_shards) {}

SolveService::~SolveService() { drain(); }

ServeResponse SolveService::serve(api::SolveRequest request) {
  const auto t0 = Clock::now();
  received_.fetch_add(1, std::memory_order_relaxed);
  ServeResponse resp;
  resp.sla = request.sla;  // echoed on every path, cache hits included

  // Draining rejects everything, cache hits included: a drained service
  // has one observable behavior, not a cache-dependent one.
  if (!accepting_.load(std::memory_order_acquire)) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    resp.status = ServeStatus::kRejectedDraining;
    resp.total_seconds = seconds_since(t0);
    note_outcome(resp);
    return resp;
  }

  // Deadline-bounded requests are anytime (results depend on wall clock),
  // so only deadline-free requests participate in the cache.
  const bool cacheable = request.deadline_seconds <= 0.0;
  std::uint64_t key = 0;
  std::uint64_t verify = 0;
  if (cacheable) {
    const auto lookup0 = Clock::now();
    std::optional<api::SolveResult> hit;
    {
      KRSP_OBS_SPAN("cache_lookup");
      // One pass computes both hashes; topology-referencing requests
      // resume from the catalog's precomputed prefixes, making this O(1)
      // instead of O(m) (api/fingerprint.h).
      const api::FingerprintPair fp = api::request_fingerprints(request);
      key = fp.key;
      verify = fp.verify;
      hit = cache_.lookup(key, verify);
    }
    resp.cache_lookup_seconds = seconds_since(lookup0);
    if (hit) {
      resp.result = std::move(*hit);
      resp.result.tag = request.tag;  // cached entries store no tag
      resp.cache_hit = true;
      served_.fetch_add(1, std::memory_order_relaxed);
      resp.total_seconds = seconds_since(t0);
      note_outcome(resp);
      return resp;
    }
  }

  const api::SlaClass sla = request.sla;
  const auto admit0 = Clock::now();
  const AdmitDecision decision = [&] {
    KRSP_OBS_SPAN("admission");
    return admission_.admit(request.deadline_seconds, sla);
  }();
  resp.admission_seconds = seconds_since(admit0);
  switch (decision) {
    case AdmitDecision::kAdmit:
      break;
    case AdmitDecision::kAdmitDegraded:
      // Overload ladder: trade accuracy for queue drain. Coarser eps makes
      // a kScaled solve cheaper; kDoubling spends fewer cancellation runs
      // on the cap search in every mode. The result is still structurally
      // valid — only the approximation factor loosens.
      resp.degraded = true;
      if (request.mode == api::Mode::kScaled) {
        request.eps1 = std::min(kOverloadEpsCap,
                                request.eps1 * kOverloadEpsFactor);
        request.eps2 = std::min(kOverloadEpsCap,
                                request.eps2 * kOverloadEpsFactor);
      }
      request.guess = api::GuessStrategy::kDoubling;
      break;
    case AdmitDecision::kRejectQueueFull:
      resp.status = ServeStatus::kRejectedQueueFull;
      resp.total_seconds = seconds_since(t0);
      note_outcome(resp);
      return resp;
    case AdmitDecision::kRejectDeadline:
      resp.status = ServeStatus::kRejectedDeadline;
      resp.total_seconds = seconds_since(t0);
      note_outcome(resp);
      return resp;
  }

  // End-to-end accounting: the budget is anchored now, so time spent in
  // the queue is charged against it and the worker sees only what's left.
  const util::Deadline deadline =
      util::Deadline::after_seconds(request.deadline_seconds);
  api::Ticket ticket = engine_.submit(std::move(request), deadline);
  resp.result = ticket.get();
  admission_.on_complete(resp.result.telemetry.wall_seconds, sla);
  served_.fetch_add(1, std::memory_order_relaxed);

  // A degraded solve answers a *coarsened* request, so caching it under
  // the original fingerprint would replay the wrong computation.
  if (cacheable && !resp.degraded &&
      resp.result.status != api::SolveStatus::kFailed) {
    api::SolveResult cached = resp.result;
    cached.tag.clear();  // cache contents are request-independent
    cache_.insert(key, verify, std::move(cached));
  }
  resp.total_seconds = seconds_since(t0);
  resp.wait_seconds =
      std::max(0.0, resp.total_seconds - resp.result.telemetry.wall_seconds);
  note_outcome(resp);
  return resp;
}

void SolveService::drain() {
  accepting_.store(false, std::memory_order_release);
  engine_.close();
  engine_.drain();
}

api::ServeStats SolveService::stats() const {
  api::ServeStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  const auto adm = admission_.snapshot();
  s.rejected_queue_full = adm.rejected_queue_full;
  s.rejected_deadline = adm.rejected_deadline;
  s.pending = adm.pending;
  s.peak_pending = adm.peak_pending;
  s.ewma_service_seconds = adm.ewma_service_seconds;
  s.interactive = adm.interactive;
  s.batch = adm.batch;
  const auto cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_insertions = cs.insertions;
  s.cache_evictions = cs.evictions;
  s.cache_entries = cs.entries;
  s.cache_shard_entries = cache_.shard_entries();
  return s;
}

}  // namespace krsp::server
