// Resilient newline-framed JSON client for the solve service.
//
// ResilientClient wraps one connection to krsp_serve — Unix socket or
// TCP (server/fault.h Endpoint) — with the failure handling a real
// caller needs against a faulty network:
//
//   * per-attempt timeout — a stalled server or a fault-eaten frame turns
//     into a bounded wait, not a hang;
//   * reconnect-on-reset — EOF / ECONNRESET / a poisoned chaos stream
//     tears the connection down and dials again;
//   * retry with exponential backoff + equal jitter (seeded, so a chaos
//     run's retry schedule is replayable), capped per request
//     (max_retries) and per client (total_budget_ms);
//   * id-matched responses — responses are matched to the request by the
//     echoed "id" field, so an injected garbage frame's error response is
//     skipped (and counted) instead of desynchronizing the stream.
//
// Retry safety: a request is retried only when the caller declares it
// idempotent. Deadline-free solve requests are — the solve is a pure
// function of the request (request_fingerprint), so a duplicate delivery
// re-serves the same bytes (usually from the result cache). Deadline-
// bounded requests are anytime (wall-clock dependent) and must be sent at
// most once: on any failure after the frame may have reached the server,
// the client reports failure instead of retransmitting.
//
// Optional FaultOptions inject transport chaos (server/fault.h) into
// every connection the client dials — the loadgen's --fault-rate and the
// E15 chaos bench drive exactly this path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "server/fault.h"

namespace krsp::server {

struct RetryOptions {
  /// Retransmissions per request after the first attempt; 0 = no retry.
  int max_retries = 0;
  /// Backoff before retry r is base * 2^r, jittered to [0.5, 1.0] of
  /// itself, capped at max_backoff_ms.
  double base_backoff_ms = 10.0;
  double max_backoff_ms = 500.0;
  /// Total wall-clock budget across one request's attempts (send + wait +
  /// backoff); 0 = unbounded.
  double total_budget_ms = 0.0;
  /// Per-attempt response wait; 0 = block indefinitely.
  double request_timeout_ms = 0.0;
  /// Seed for backoff jitter (independent of the fault schedule).
  std::uint64_t jitter_seed = 1;
  /// Refused-at-connect (ECONNREFUSED / ENOENT on a Unix path) means the
  /// server is down and nothing was delivered — with this set, request()
  /// fails immediately instead of burning the backoff budget, so a
  /// caller holding alternatives (the router's ring walk) can retry
  /// elsewhere at once. Off by default: a single-server client's only
  /// "elsewhere" is waiting for the restart, which is what backoff does.
  bool fail_fast_on_refused = false;
};

struct ClientCounters {
  std::uint64_t attempts = 0;     // send attempts, including the first
  std::uint64_t retries = 0;      // attempts beyond a request's first
  std::uint64_t reconnects = 0;   // dials after the initial connect
  std::uint64_t timeouts = 0;     // attempts abandoned on request_timeout
  std::uint64_t skipped_lines = 0;  // non-matching responses discarded
  std::uint64_t give_ups = 0;     // requests that exhausted the policy
  std::uint64_t connect_refused = 0;  // dials refused (server down)
  FaultCounters faults;           // injected chaos (when faults enabled)
};

class ResilientClient {
 public:
  /// Unix socket or TCP (the fleet transport).
  explicit ResilientClient(Endpoint endpoint, RetryOptions retry = {},
                           FaultOptions faults = {});
  ~ResilientClient();
  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// Dials the socket. request() reconnects lazily, so calling this is
  /// only needed to surface connection errors early.
  [[nodiscard]] bool connect(std::string* error);

  /// Sends one request line (no trailing newline) and waits for the
  /// response whose "id" field equals `id` (empty id = first parseable
  /// response). `idempotent` gates retransmission: false = at-most-once
  /// (any post-send failure is final). True on success with
  /// *response_line set; false with *error set otherwise.
  [[nodiscard]] bool request(const std::string& line, const std::string& id,
                             bool idempotent, std::string* response_line,
                             std::string* error);

  [[nodiscard]] const ClientCounters& counters() const { return counters_; }
  [[nodiscard]] bool connected() const;
  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }
  /// True iff the last request() failure was a refused dial with nothing
  /// ever delivered — safe to retry on another server even when the
  /// request is not idempotent.
  [[nodiscard]] bool last_failure_refused() const {
    return last_failure_refused_;
  }
  void close();

 private:
  [[nodiscard]] bool dial(std::string* error);
  /// Reads lines until one matches `id`; kRecv* semantics of the result:
  /// true on match, false with *error on EOF/error/timeout.
  [[nodiscard]] bool read_matching(const std::string& id, int timeout_ms,
                                   std::string* response_line,
                                   std::string* error);

  const Endpoint endpoint_;
  const RetryOptions retry_;
  const FaultOptions fault_options_;
  util::Rng chaos_rng_;   // threads one fault schedule across reconnects
  util::Rng jitter_rng_;  // backoff jitter, independent stream
  std::unique_ptr<FdStream> fd_stream_;
  std::unique_ptr<FaultyStream> stream_;  // decorates fd_stream_
  std::string buffer_;  // partial-line carry between reads
  ClientCounters counters_;
  bool ever_connected_ = false;
  bool last_dial_refused_ = false;
  bool last_failure_refused_ = false;
};

}  // namespace krsp::server
