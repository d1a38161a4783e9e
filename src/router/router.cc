#include "router/router.h"

#include <chrono>
#include <thread>
#include <utility>

#include "api/fingerprint.h"
#include "obs/trace.h"
#include "server/request_parse.h"

namespace krsp::router {

namespace {

using server::wire::ObjectWriter;
using server::wire::Value;

std::string error_line(const std::string& what, const std::string& id = "") {
  ObjectWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("ok", false);
  w.field("error", what);
  return w.done();
}

/// FNV-1a over raw bytes — the routing fallback when a request cannot be
/// lowered to an api::SolveRequest (no catalog on the router, malformed
/// payload). Stable across routers; no cross-form affinity.
std::uint64_t fnv1a_bytes(const std::string& s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Injects `,"served_by":"<name>"` before the response's closing brace.
/// The field is additive and optional: v1 clients that match on the
/// documented fields ignore it (docs/API.md).
std::string inject_served_by(std::string response, const std::string& name) {
  if (response.empty() || response.back() != '}') return response;
  response.pop_back();
  ObjectWriter tail;
  tail.field("served_by", name);
  std::string tail_str = tail.done();  // {"served_by":"..."}
  response += ',';
  response.append(tail_str, 1, tail_str.size() - 1);
  return response;
}

}  // namespace

Router::Router(const std::vector<server::Endpoint>& shard_endpoints,
               const store::TopologyCatalog* catalog, RouterOptions options)
    : catalog_(catalog),
      options_(options),
      no_shard_metric_(obs::Registry::global().counter(
          "krsp_router_requests_total", "shard=\"-\",outcome=\"no_shard\"")) {
  ShardOptions shard_options;
  shard_options.mark_down_after = options_.mark_down_after;
  shard_options.mark_up_after = options_.mark_up_after;
  shard_options.probe_timeout_ms = options_.probe_timeout_ms;
  shard_options.retry.max_retries = options_.forward_retries;
  shard_options.retry.request_timeout_ms = options_.forward_timeout_ms;
  shards_.reserve(shard_endpoints.size());
  for (const auto& ep : shard_endpoints)
    // The endpoint spelling is the shard's name: stable across restarts,
    // unique within a fleet, and exactly what an operator greps for.
    shards_.push_back(
        std::make_unique<Shard>(ep.describe(), ep, shard_options));
  rebuild_ring();
}

Router::~Router() { stop(); }

std::shared_ptr<const Router::Snapshot> Router::snapshot() const {
  const std::lock_guard<std::mutex> lock(ring_mu_);
  return snapshot_;
}

std::size_t Router::ring_size() const { return snapshot()->members.size(); }

void Router::rebuild_ring() {
  auto next = std::make_shared<Snapshot>();
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    if (!shard->accepting()) continue;
    names.push_back(shard->name());
    next->members.push_back(shard.get());
  }
  next->ring = HashRing(std::move(names), options_.vnodes);
  const std::lock_guard<std::mutex> lock(ring_mu_);
  snapshot_ = std::move(next);
}

void Router::probe_all() {
  bool changed = false;
  for (const auto& shard : shards_) {
    if (shard->state() == ShardState::kDraining) continue;
    const ShardState before = shard->state();
    (void)shard->probe();
    changed = changed || shard->state() != before;
  }
  if (changed) rebuild_ring();
}

void Router::start_probing() {
  if (options_.probe_interval_ms <= 0 || prober_.joinable()) return;
  prober_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(prober_mu_);
    while (!prober_stop_) {
      lock.unlock();
      probe_all();
      lock.lock();
      prober_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.probe_interval_ms),
          [this] { return prober_stop_; });
    }
  });
}

void Router::stop() {
  {
    const std::lock_guard<std::mutex> lock(prober_mu_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::uint64_t Router::ring_key_for(const Value& req,
                                   const std::string& line) const {
  // The real fingerprint when the request lowers (the same computation
  // the shard's result cache keys on): v1 and v2 forms of one query get
  // one key, so the owning shard's cache is hot for both.
  api::SolveRequest request;
  std::string parse_error;
  if (server::parse_solve_request(req, catalog_, &request, nullptr,
                                  &parse_error))
    return api::request_fingerprints(request).verify;
  // Fallback: stable hash of the raw routing-relevant fields. The id is
  // deliberately excluded so identical queries still share a shard.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* key : {"topology", "instance", "mode", "guess", "class"})
    h = fnv1a_bytes(req.get_string(key), h + 1);
  for (const char* key : {"s", "t", "k", "delay_bound"})
    h = fnv1a_bytes(std::to_string(req.get_int(key, -1)), h + 1);
  for (const char* key : {"eps", "eps1", "eps2"})
    h = fnv1a_bytes(std::to_string(req.get_number(key, -1.0)), h + 1);
  if (h == 0) h = fnv1a_bytes(line, 0xcbf29ce484222325ULL);
  return h;
}

std::uint64_t Router::route_key(const std::string& line) const {
  const auto req = server::wire::parse(line);
  if (!req.has_value() || req->type != Value::Type::kObject)
    return fnv1a_bytes(line, 0xcbf29ce484222325ULL);
  return ring_key_for(*req, line);
}

std::string Router::route_solve(const Value& req, const std::string& line) {
  const std::string id = req.get_string("id");
  // Deadline-free solves are idempotent (pure functions of the request);
  // deadline-bounded ones are anytime and must reach at most one shard —
  // the same rule ResilientClient applies, enforced here fleet-wide.
  const bool idempotent = req.get_number("deadline", 0.0) <= 0.0;

  std::shared_ptr<const Snapshot> snap;
  std::vector<std::size_t> order;
  {
    KRSP_OBS_SPAN("route_pick");
    snap = snapshot();
    if (!snap->ring.empty())
      order = snap->ring.successors(ring_key_for(req, line), 0);
  }

  std::string last_error;
  bool ring_changed = false;
  for (const std::size_t index : order) {
    Shard* shard = snap->members[index];
    // The snapshot may be stale: skip shards that went down or started
    // draining since it was built.
    if (!shard->accepting()) continue;
    std::string response;
    std::string error;
    bool refused = false;
    bool ok;
    {
      KRSP_OBS_SPAN("shard_forward");
      ok = shard->forward(line, id, idempotent, &response, &error, &refused);
    }
    if (ok) {
      if (ring_changed) rebuild_ring();
      requests_routed_.fetch_add(1, std::memory_order_relaxed);
      return inject_served_by(std::move(response), shard->name());
    }
    last_error = shard->name() + ": " + error;
    if (refused) {
      // Nothing was delivered — even a non-idempotent request may walk
      // on. The refusal already fed the shard's mark-down counter; the
      // ring is rebuilt once the walk settles.
      ring_changed = true;
      continue;
    }
    if (!idempotent) {
      // The request may have reached the shard: at-most-once forbids a
      // second delivery anywhere else.
      if (ring_changed) rebuild_ring();
      return error_line(
          "forward failed after possible delivery (not retried): " +
              last_error,
          id);
    }
  }
  if (ring_changed) rebuild_ring();
  no_shard_errors_.fetch_add(1, std::memory_order_relaxed);
  no_shard_metric_.inc();
  return error_line(last_error.empty() ? "no shard available"
                                       : "no shard available: " + last_error,
                    id);
}

std::string Router::forward_control(const std::string& line) {
  // Discovery ops are fleet-uniform (every shard serves one catalog by
  // deployment contract): any routable shard's answer is the answer.
  const auto snap = snapshot();
  std::string last_error;
  for (Shard* shard : snap->members) {
    if (!shard->accepting()) continue;
    std::string response;
    std::string error;
    bool refused = false;
    if (shard->forward(line, "", true, &response, &error, &refused))
      return response;
    last_error = shard->name() + ": " + error;
  }
  return error_line(last_error.empty() ? "no shard available"
                                       : "no shard available: " + last_error);
}

void Router::stats_fields(ObjectWriter& w) const {
  const auto snap = snapshot();
  w.field("protocol_version",
          static_cast<std::int64_t>(server::kProtocolVersion));
  w.field("router", true);
  w.field("shards", static_cast<std::int64_t>(shards_.size()));
  w.field("ring_shards", static_cast<std::int64_t>(snap->members.size()));
  w.field("vnodes", static_cast<std::int64_t>(options_.vnodes));
  w.field("requests_routed", requests_routed());
  w.field("no_shard_errors", no_shard_errors());
  std::string arr = "[";
  bool first = true;
  for (const auto& shard : shards_) {
    if (!first) arr.push_back(',');
    first = false;
    // Ring share: position of this shard in the snapshot's ring, if any.
    double share = 0.0;
    for (std::size_t i = 0; i < snap->members.size(); ++i) {
      if (snap->members[i] != shard.get()) continue;
      share = snap->ring.keyspace_share(i);
      break;
    }
    ObjectWriter entry;
    entry.field("name", shard->name());
    entry.field("state", shard_state_name(shard->state()));
    entry.field("ewma_probe_ms", shard->ewma_probe_ms());
    entry.field("keyspace_share", share);
    entry.field("in_flight", shard->in_flight());
    entry.field("forwards_ok", shard->forwards_ok());
    entry.field("forwards_failed", shard->forwards_failed());
    entry.field("forwards_refused", shard->forwards_refused());
    entry.field("probes_ok", shard->probes_ok());
    entry.field("probes_failed", shard->probes_failed());
    entry.field("recoveries", shard->recoveries());
    arr += entry.done();
  }
  arr.push_back(']');
  w.raw("shard_stats", arr);
}

std::string Router::handle_drain(const Value& req) {
  const std::string name = req.get_string("shard");
  if (name.empty())
    return error_line("drain op requires a \"shard\" field (shard name)");
  Shard* target = nullptr;
  for (const auto& shard : shards_) {
    if (shard->name() != name) continue;
    target = shard.get();
    break;
  }
  if (target == nullptr) return error_line("unknown shard: " + name);

  // Fence first, then pull the ring segment: new requests rebalance to
  // the survivors while in-flight forwards finish on the draining shard.
  target->fence();
  rebuild_ring();
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration<double, std::milli>(
                           options_.drain_wait_ms);
  while (!target->quiesced() &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const bool quiesced = target->quiesced();
  target->send_shutdown();

  ObjectWriter w;
  w.field("ok", true);
  w.field("shard", name);
  w.field("drained", true);
  w.field("quiesced", quiesced);
  return w.done();
}

std::string Router::handle_line(const std::string& line) {
  KRSP_OBS_SPAN("wire_handle");
  std::string parse_error;
  const auto req = server::wire::parse(line, &parse_error);
  if (!req.has_value()) return error_line("bad json: " + parse_error);
  if (req->type != Value::Type::kObject)
    return error_line("request must be a json object");

  const std::string op = req->get_string("op", "solve");
  if (op == "solve") return route_solve(*req, line);
  if (op == "stats") {
    ObjectWriter w;
    w.field("ok", true);
    stats_fields(w);
    return w.done();
  }
  if (op == "metrics") {
    ObjectWriter w;
    w.field("ok", true);
    w.field("protocol_version",
            static_cast<std::int64_t>(server::kProtocolVersion));
    w.field("metrics", obs::Registry::global().render_prometheus());
    return w.done();
  }
  if (op == "topologies" || op == "topology") return forward_control(line);
  if (op == "drain") return handle_drain(*req);
  if (op == "ping")
    return ObjectWriter().field("ok", true).field("pong", true).done();
  if (op == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    return ObjectWriter().field("ok", true).field("draining", true).done();
  }
  return error_line("unknown op: " + op);
}

}  // namespace krsp::router
