// One health-tracked backend in the router's fleet.
//
// A Shard owns a pool of ResilientClients to one krsp_serve endpoint
// (one client per concurrent forward — clients are single-threaded, the
// router's connection threads are not) and the health state machine the
// prober drives:
//
//             failures >= mark_down_after
//        kUp ────────────────────────────────▶ kDown
//         ▲                                      │
//         └──────────────────────────────────────┘
//             probe successes >= mark_up_after
//
// Failures are *consecutive* and come from two sources that feed one
// counter: the prober's stats-op probes (EWMA latency on success) and
// refused forwards (a dead shard is usually discovered by traffic before
// the next probe tick). Hysteresis on both edges keeps one dropped probe
// from flapping the ring.
//
// kDraining is entered by fence() and is one-way: the shard leaves the
// ring, in-flight forwards finish (drain_wait), and the router then
// sends the shard its shutdown op.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/client.h"

namespace krsp::router {

enum class ShardState { kUp, kDown, kDraining };

[[nodiscard]] const char* shard_state_name(ShardState s);

struct ShardOptions {
  /// Consecutive failures (probe or refused forward) before mark-down.
  int mark_down_after = 3;
  /// Consecutive probe successes before a down shard rejoins the ring.
  int mark_up_after = 2;
  /// Probe stats-op response wait.
  double probe_timeout_ms = 1000.0;
  /// Per-forward retry policy. fail_fast_on_refused is forced on: the
  /// router's failover is the ring walk, not per-shard backoff.
  server::RetryOptions retry;
};

class Shard {
 public:
  /// EWMA smoothing for probe latency (weight of the newest sample).
  static constexpr double kProbeEwmaAlpha = 0.3;

  Shard(std::string name, server::Endpoint endpoint, ShardOptions options);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const server::Endpoint& endpoint() const { return endpoint_; }
  [[nodiscard]] ShardState state() const {
    return state_.load(std::memory_order_acquire);
  }
  /// Routable: up and not fenced.
  [[nodiscard]] bool accepting() const { return state() == ShardState::kUp; }

  /// Forwards one request line and waits for the id-matched response.
  /// *refused is set when the failure was refused-at-connect (nothing
  /// delivered — the caller may fail over even a non-idempotent request,
  /// and the refusal feeds the mark-down counter).
  [[nodiscard]] bool forward(const std::string& line, const std::string& id,
                             bool idempotent, std::string* response,
                             std::string* error, bool* refused);

  /// One health probe (stats op, EWMA'd latency), driving the state
  /// machine. Returns probe success.
  bool probe();

  /// Fences the shard: kDraining, no new forwards. One-way.
  void fence();

  /// True once every in-flight forward has returned.
  [[nodiscard]] bool quiesced() const {
    return in_flight_.load(std::memory_order_acquire) == 0;
  }

  /// Sends the wire shutdown op (used after fence + quiesce). Best
  /// effort: a dead shard is already as shut down as it gets.
  void send_shutdown();

  [[nodiscard]] double ewma_probe_ms() const {
    return ewma_probe_ms_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t in_flight() const {
    return static_cast<std::uint64_t>(
        in_flight_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::uint64_t forwards_ok() const {
    return forwards_ok_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t forwards_failed() const {
    return forwards_failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t forwards_refused() const {
    return forwards_refused_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t probes_ok() const {
    return probes_ok_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t probes_failed() const {
    return probes_failed_.load(std::memory_order_relaxed);
  }
  /// kDown -> kUp transitions observed (mark-up events).
  [[nodiscard]] std::uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }

 private:
  class ClientLease;

  /// Checks a client out of the pool (growing it on demand) and returns
  /// it on destruction.
  [[nodiscard]] std::unique_ptr<server::ResilientClient> acquire_client();
  void release_client(std::unique_ptr<server::ResilientClient> client);
  void note_failure();  // consecutive-failure edge of the state machine
  void note_probe_success();

  const std::string name_;
  const server::Endpoint endpoint_;
  const ShardOptions options_;

  std::atomic<ShardState> state_{ShardState::kUp};
  std::mutex health_mu_;  // guards the consecutive counters
  int consecutive_failures_ = 0;
  int consecutive_probe_successes_ = 0;

  std::mutex pool_mu_;
  std::vector<std::unique_ptr<server::ResilientClient>> pool_;
  std::unique_ptr<server::ResilientClient> probe_client_;  // prober-only

  std::atomic<int> in_flight_{0};
  std::atomic<double> ewma_probe_ms_{0.0};
  std::atomic<std::uint64_t> forwards_ok_{0};
  std::atomic<std::uint64_t> forwards_failed_{0};
  std::atomic<std::uint64_t> forwards_refused_{0};
  std::atomic<std::uint64_t> probes_ok_{0};
  std::atomic<std::uint64_t> probes_failed_{0};
  std::atomic<std::uint64_t> recoveries_{0};

  // Per-shard obs, resolved once at construction (labels carry the shard
  // name): krsp_router_requests_total{shard,outcome} + forward latency.
  obs::Counter& requests_ok_metric_;
  obs::Counter& requests_error_metric_;
  obs::Counter& requests_refused_metric_;
  obs::Histogram& forward_ns_metric_;
};

}  // namespace krsp::router
