#include "server/client.h"

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <thread>

#include "server/wire.h"

namespace krsp::server {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// "Refused": the dial itself was rejected, so no request bytes can have
/// reached a server. ECONNREFUSED is the live-host-no-listener case for
/// both families; ENOENT is its Unix-path twin (daemon not started yet,
/// or its socket file already unlinked by shutdown).
bool errno_is_refused(int err) { return err == ECONNREFUSED || err == ENOENT; }

}  // namespace

ResilientClient::ResilientClient(Endpoint endpoint, RetryOptions retry,
                                 FaultOptions faults)
    : endpoint_(std::move(endpoint)),
      retry_(retry),
      fault_options_(faults),
      chaos_rng_(faults.seed),
      jitter_rng_(retry.jitter_seed) {}

ResilientClient::~ResilientClient() { close(); }

bool ResilientClient::connected() const {
  return stream_ != nullptr && stream_->connected();
}

void ResilientClient::close() {
  if (stream_ != nullptr) stream_->close();
  stream_.reset();
  fd_stream_.reset();
  buffer_.clear();
}

bool ResilientClient::dial(std::string* error) {
  close();
  int dial_errno = 0;
  const int fd = connect_endpoint(endpoint_, error, &dial_errno);
  if (fd < 0) {
    last_dial_refused_ = errno_is_refused(dial_errno);
    if (last_dial_refused_)
      counters_.connect_refused += 1;
    return false;
  }
  last_dial_refused_ = false;
  fd_stream_ = std::make_unique<FdStream>(fd);
  // Rate 0 keeps the decorator inert (no RNG draws), so a fault-free
  // client is byte-identical to an undecorated one.
  stream_ = std::make_unique<FaultyStream>(
      *fd_stream_, fault_options_,
      fault_options_.fault_rate > 0.0 ? &chaos_rng_ : nullptr,
      &counters_.faults);
  if (ever_connected_) ++counters_.reconnects;
  ever_connected_ = true;
  return true;
}

bool ResilientClient::connect(std::string* error) {
  if (connected()) return true;
  return dial(error);
}

bool ResilientClient::read_matching(const std::string& id, int timeout_ms,
                                    std::string* response_line,
                                    std::string* error) {
  const auto t0 = Clock::now();
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (line.empty()) continue;
      if (id.empty()) {
        *response_line = std::move(line);
        return true;
      }
      // Responses are matched by the echoed id; anything else (e.g. the
      // error response to an injected garbage frame) is counted and
      // skipped, keeping the stream in sync.
      const auto parsed = wire::parse(line);
      if (parsed.has_value() && parsed->get_string("id") == id) {
        *response_line = std::move(line);
        return true;
      }
      ++counters_.skipped_lines;
      continue;
    }
    int wait_ms = timeout_ms;
    if (timeout_ms >= 0) {
      wait_ms = timeout_ms - static_cast<int>(ms_since(t0));
      if (wait_ms < 0) wait_ms = 0;
    }
    char chunk[4096];
    const ssize_t n = stream_->recv(chunk, sizeof chunk, wait_ms, error);
    if (n == ByteStream::kRecvTimeout) {
      ++counters_.timeouts;
      if (error != nullptr) *error = "timed out waiting for response";
      return false;
    }
    if (n < 0) return false;  // error, *error set
    if (n == 0) {
      if (error != nullptr) *error = "server closed the connection";
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool ResilientClient::request(const std::string& line, const std::string& id,
                              bool idempotent, std::string* response_line,
                              std::string* error) {
  const auto t0 = Clock::now();
  const double budget_ms = retry_.total_budget_ms;
  double backoff_ms = retry_.base_backoff_ms;
  std::string attempt_error;

  for (int attempt = 0;; ++attempt) {
    ++counters_.attempts;
    if (attempt > 0) ++counters_.retries;

    bool maybe_delivered = false;
    bool ok = false;
    bool dial_refused = false;
    if (connected() || dial(&attempt_error)) {
      // From here on, bytes may reach the server even if send() reports
      // failure (an injected truncate sends a prefix first) — the
      // at-most-once rule for non-idempotent requests keys off this.
      maybe_delivered = true;
      if (stream_->send(line + "\n", &attempt_error)) {
        int timeout_ms =
            retry_.request_timeout_ms > 0.0
                ? static_cast<int>(retry_.request_timeout_ms)
                : -1;
        if (budget_ms > 0.0) {
          const int left = static_cast<int>(budget_ms - ms_since(t0));
          timeout_ms = timeout_ms < 0 ? std::max(0, left)
                                      : std::min(timeout_ms, std::max(0, left));
        }
        ok = read_matching(id, timeout_ms, response_line, &attempt_error);
      }
    } else {
      dial_refused = last_dial_refused_;
    }
    if (ok) {
      last_failure_refused_ = false;
      return true;
    }
    // Any failed exchange leaves the connection in an unknown framing
    // state (a late response could alias the next request) — drop it.
    close();

    if (dial_refused && retry_.fail_fast_on_refused) {
      // The server is down and nothing was sent: fail now so a caller
      // with alternatives (the router) retries elsewhere instead of
      // waiting out a backoff aimed at this dead endpoint.
      ++counters_.give_ups;
      last_failure_refused_ = true;
      if (error != nullptr)
        *error = "connection refused (fail-fast): " + attempt_error;
      return false;
    }
    if (!idempotent && maybe_delivered) {
      last_failure_refused_ = false;
      ++counters_.give_ups;
      if (error != nullptr)
        *error = "non-idempotent request failed after possible delivery "
                 "(not retried): " +
                 attempt_error;
      return false;
    }
    const bool out_of_retries = attempt >= retry_.max_retries;
    const bool out_of_budget =
        budget_ms > 0.0 && ms_since(t0) >= budget_ms;
    if (out_of_retries || out_of_budget) {
      ++counters_.give_ups;
      last_failure_refused_ = dial_refused;
      if (error != nullptr)
        *error = (out_of_retries ? "retries exhausted: "
                                 : "retry budget exhausted: ") +
                 attempt_error;
      return false;
    }
    // Exponential backoff with equal jitter: sleep in [0.5, 1.0] of the
    // current backoff, then double it (capped).
    double sleep_ms = backoff_ms * (0.5 + 0.5 * jitter_rng_.uniform01());
    if (budget_ms > 0.0)
      sleep_ms = std::min(sleep_ms, std::max(0.0, budget_ms - ms_since(t0)));
    if (sleep_ms > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          sleep_ms));
    backoff_ms = std::min(backoff_ms * 2.0, retry_.max_backoff_ms);
  }
}

}  // namespace krsp::server
