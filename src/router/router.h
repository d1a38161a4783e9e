// The fleet front tier: a LineHandler that consistent-hashes solve
// requests across N krsp_serve shards.
//
// Wire surface (same newline-framed JSON as a shard, so every existing
// client — krsp_loadgen included — can point at a router unchanged):
//
//   solve       routed by hash affinity (see below), answered with the
//               shard's response plus an injected "served_by":"<shard>"
//               field (optional, ignored by v1 clients);
//   stats       answered by the router itself: per-shard health, ring
//               shares, forward counters ("router":true marks the shape);
//   metrics     the router process's obs exposition;
//   ping        answered locally, same bytes as a shard's pong;
//   topologies, topology
//               forwarded to the first routable shard (catalog discovery
//               is fleet-uniform by deployment contract);
//   drain       {"op":"drain","shard":"<name>"}: fence the shard, pull
//               its ring segment, wait out its in-flight forwards, then
//               send it the wire shutdown op;
//   shutdown    ack and begin the router's own graceful drain.
//
// Routing: the ring key is api::request_fingerprints(request).verify —
// the same splitmix64 fingerprint that keys shard result caches — so the
// v1-inline and v2-catalog forms of one query land on one shard and its
// cache stays hot for both. Requests the router cannot lower (no
// --catalog, malformed) fall back to a deterministic hash of the raw
// request fields: still a stable assignment, still forwarded, and the
// shard produces the canonical error response if one is due.
//
// Failover: walk the ring clockwise from the owner. Refused-at-connect
// means nothing was delivered — always try the next shard (and feed the
// owner's mark-down counter). Any other failure may have reached the
// shard, so only idempotent (deadline-free) requests fail over; a
// deadline-bounded request fails to the client, at-most-once preserved
// end to end.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "router/ring.h"
#include "router/shard.h"
#include "server/transport.h"
#include "server/wire.h"
#include "store/catalog.h"

namespace krsp::router {

struct RouterOptions {
  int vnodes = HashRing::kDefaultVnodes;
  /// Health-probe sweep period; 0 disables the prober (tests drive
  /// probes by hand).
  int probe_interval_ms = 200;
  int mark_down_after = 3;
  int mark_up_after = 2;
  double probe_timeout_ms = 1000.0;
  /// Per-forward response wait (0 = block indefinitely).
  double forward_timeout_ms = 0.0;
  /// Retransmissions per shard before walking on (idempotent only).
  int forward_retries = 0;
  /// Bound on the drain op's wait for in-flight forwards to finish.
  double drain_wait_ms = 5000.0;
};

class Router final : public server::LineHandler {
 public:
  /// `catalog` (optional, unowned) lets the router compute true request
  /// fingerprints for v2 requests — without it they still route (raw
  /// field hash) but lose cross-form cache affinity.
  Router(const std::vector<server::Endpoint>& shard_endpoints,
         const store::TopologyCatalog* catalog, RouterOptions options = {});
  ~Router() override;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] std::string handle_line(const std::string& line) override;
  [[nodiscard]] bool shutdown_requested() const override {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Starts the background prober (no-op when probe_interval_ms == 0).
  void start_probing();
  /// Stops the prober; called by the dtor, idempotent.
  void stop();

  /// One probe sweep over all shards, rebuilding the ring on any state
  /// change — exactly what the prober does each tick; public so tests
  /// and the tool can converge health deterministically.
  void probe_all();

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const Shard& shard(std::size_t i) const {
    return *shards_[i];
  }
  /// Shards currently in the ring (routable).
  [[nodiscard]] std::size_t ring_size() const;
  [[nodiscard]] std::uint64_t requests_routed() const {
    return requests_routed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t no_shard_errors() const {
    return no_shard_errors_.load(std::memory_order_relaxed);
  }

  /// The ring key for a request line — exposed for affinity tests.
  [[nodiscard]] std::uint64_t route_key(const std::string& line) const;

  /// Writes the stats op's fields into `w` (everything after "ok"): ring
  /// membership and per-shard health, ring shares and forward counters.
  /// krsp_router's final_stats line writes the same fields.
  void stats_fields(server::wire::ObjectWriter& w) const;

 private:
  /// An immutable routing table: a ring over the names of the shards
  /// that were routable when it was built, plus the parallel Shard list.
  struct Snapshot {
    HashRing ring;
    std::vector<Shard*> members;
  };

  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;
  void rebuild_ring();
  [[nodiscard]] std::string route_solve(const server::wire::Value& req,
                                        const std::string& line);
  [[nodiscard]] std::string forward_control(const std::string& line);
  [[nodiscard]] std::string handle_drain(const server::wire::Value& req);
  [[nodiscard]] std::uint64_t ring_key_for(const server::wire::Value& req,
                                           const std::string& line) const;

  const store::TopologyCatalog* catalog_;
  const RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex ring_mu_;
  std::shared_ptr<const Snapshot> snapshot_;

  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_routed_{0};
  std::atomic<std::uint64_t> no_shard_errors_{0};

  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
  std::thread prober_;

  obs::Counter& no_shard_metric_;
};

}  // namespace krsp::router
