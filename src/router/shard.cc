#include "router/shard.h"

#include <chrono>
#include <utility>

namespace krsp::router {

namespace {

using Clock = std::chrono::steady_clock;

std::string shard_labels(const std::string& name, const char* outcome) {
  return "shard=\"" + name + "\",outcome=\"" + outcome + "\"";
}

}  // namespace

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kUp:
      return "up";
    case ShardState::kDown:
      return "down";
    case ShardState::kDraining:
      return "draining";
  }
  return "unknown";
}

Shard::Shard(std::string name, server::Endpoint endpoint,
             ShardOptions options)
    : name_(std::move(name)),
      endpoint_(std::move(endpoint)),
      options_([&options] {
        // The router's failover is the ring walk: a refused dial must
        // fail the forward immediately, never sit out a backoff aimed at
        // a dead endpoint.
        options.retry.fail_fast_on_refused = true;
        return options;
      }()),
      requests_ok_metric_(obs::Registry::global().counter(
          "krsp_router_requests_total", shard_labels(name_, "ok"))),
      requests_error_metric_(obs::Registry::global().counter(
          "krsp_router_requests_total", shard_labels(name_, "error"))),
      requests_refused_metric_(obs::Registry::global().counter(
          "krsp_router_requests_total", shard_labels(name_, "refused"))),
      forward_ns_metric_(obs::Registry::global().histogram(
          "krsp_router_forward_ns", "shard=\"" + name_ + "\"")) {}

std::unique_ptr<server::ResilientClient> Shard::acquire_client() {
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      auto client = std::move(pool_.back());
      pool_.pop_back();
      return client;
    }
  }
  return std::make_unique<server::ResilientClient>(endpoint_,
                                                   options_.retry);
}

void Shard::release_client(std::unique_ptr<server::ResilientClient> client) {
  const std::lock_guard<std::mutex> lock(pool_mu_);
  pool_.push_back(std::move(client));
}

bool Shard::forward(const std::string& line, const std::string& id,
                    bool idempotent, std::string* response,
                    std::string* error, bool* refused) {
  *refused = false;
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  auto client = acquire_client();
  const auto t0 = Clock::now();
  const bool ok = client->request(line, id, idempotent, response, error);
  forward_ns_metric_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count()));
  if (ok) {
    forwards_ok_.fetch_add(1, std::memory_order_relaxed);
    requests_ok_metric_.inc();
    // A working forward is as good as a probe for health purposes.
    const std::lock_guard<std::mutex> lock(health_mu_);
    consecutive_failures_ = 0;
  } else if (client->last_failure_refused()) {
    *refused = true;
    forwards_refused_.fetch_add(1, std::memory_order_relaxed);
    requests_refused_metric_.inc();
    // Traffic discovers a dead shard faster than the probe tick: feed
    // the same consecutive-failure counter the prober uses.
    note_failure();
  } else {
    forwards_failed_.fetch_add(1, std::memory_order_relaxed);
    requests_error_metric_.inc();
    note_failure();
  }
  release_client(std::move(client));
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return ok;
}

bool Shard::probe() {
  // The prober is a single thread, so one dedicated client (outside the
  // forward pool) is enough and keeps probe latency unpolluted by
  // forward traffic on the same connection.
  if (probe_client_ == nullptr) {
    server::RetryOptions retry = options_.retry;
    retry.max_retries = 0;
    retry.request_timeout_ms = options_.probe_timeout_ms;
    probe_client_ =
        std::make_unique<server::ResilientClient>(endpoint_, retry);
  }
  const auto t0 = Clock::now();
  std::string response;
  std::string error;
  const bool ok = probe_client_->request("{\"op\":\"stats\"}", "", true,
                                         &response, &error);
  if (ok) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const double prev = ewma_probe_ms_.load(std::memory_order_relaxed);
    ewma_probe_ms_.store(
        prev == 0.0 ? ms
                    : kProbeEwmaAlpha * ms + (1.0 - kProbeEwmaAlpha) * prev,
        std::memory_order_relaxed);
    probes_ok_.fetch_add(1, std::memory_order_relaxed);
    note_probe_success();
  } else {
    probes_failed_.fetch_add(1, std::memory_order_relaxed);
    note_failure();
  }
  return ok;
}

void Shard::note_failure() {
  const std::lock_guard<std::mutex> lock(health_mu_);
  consecutive_probe_successes_ = 0;
  if (state_.load(std::memory_order_acquire) != ShardState::kUp) return;
  if (++consecutive_failures_ >= options_.mark_down_after)
    state_.store(ShardState::kDown, std::memory_order_release);
}

void Shard::note_probe_success() {
  const std::lock_guard<std::mutex> lock(health_mu_);
  consecutive_failures_ = 0;
  if (state_.load(std::memory_order_acquire) != ShardState::kDown) return;
  if (++consecutive_probe_successes_ >= options_.mark_up_after) {
    consecutive_probe_successes_ = 0;
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    state_.store(ShardState::kUp, std::memory_order_release);
  }
}

void Shard::fence() {
  const std::lock_guard<std::mutex> lock(health_mu_);
  state_.store(ShardState::kDraining, std::memory_order_release);
}

void Shard::send_shutdown() {
  auto client = acquire_client();
  std::string response;
  std::string error;
  // Best effort by design: a shard that died mid-drain cannot ack.
  (void)client->request("{\"op\":\"shutdown\"}", "", true, &response, &error);
  release_client(std::move(client));
}

}  // namespace krsp::router
