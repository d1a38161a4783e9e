#include "server/request_parse.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace krsp::server {

bool parse_solve_request(const wire::Value& req,
                         const store::TopologyCatalog* catalog,
                         api::SolveRequest* out, bool* want_timing,
                         std::string* error) {
  const auto fail = [error](std::string what) {
    *error = std::move(what);
    return false;
  };

  const std::string id = req.get_string("id");
  const wire::Value* topology = req.find("topology");
  const wire::Value* instance_text = req.find("instance");

  api::SolveRequest request;
  request.tag = id;
  if (topology != nullptr) {
    // Protocol v2: graph by catalog reference. Every failure mode here is
    // a structured error response — a bad topology request must never
    // cost the client its connection.
    if (topology->type != wire::Value::Type::kString)
      return fail("\"topology\" must be a string id");
    if (instance_text != nullptr)
      return fail(
          "request carries both \"topology\" and \"instance\"; pick one");
    if (catalog == nullptr || catalog->empty())
      return fail("no topology catalog configured (serve with --catalog DIR)");
    std::shared_ptr<const api::TopologyRef> ref =
        catalog->find(topology->string);
    if (ref == nullptr) return fail("unknown topology: " + topology->string);
    // A present query field must be a JSON integer in range: a string, a
    // fraction or a value past int64 (or past the vertex or k range) would
    // otherwise be dropped, truncated or wrapped into a different query.
    // These are the instance invariants an override could break, checked
    // up front so a bad override is a parse-time structured error, never
    // a failed solve.
    const api::Instance& defaults = *ref->instance;
    std::int64_t q[4] = {defaults.s, defaults.t, defaults.k,
                         defaults.delay_bound};
    const char* const keys[4] = {"s", "t", "k", "delay_bound"};
    for (int i = 0; i < 4; ++i) {
      const wire::Value* v = req.find(keys[i]);
      if (v == nullptr) continue;
      if (v->type != wire::Value::Type::kNumber || !v->is_integer)
        return fail(std::string("bad query override: \"") + keys[i] +
                    "\" is not a 64-bit integer");
      q[i] = v->integer;
    }
    const auto [s, t, k, bound] = q;
    const std::int64_t n = defaults.graph.num_vertices();
    std::string what;
    if (s < 0 || s >= n)
      what = "bad source " + std::to_string(s);
    else if (t < 0 || t >= n)
      what = "bad sink " + std::to_string(t);
    else if (s == t)
      what = "s == t";
    else if (k < 1 || k > std::numeric_limits<int>::max())
      what = "k = " + std::to_string(k);
    else if (bound < 0)
      what = "D = " + std::to_string(bound);
    if (!what.empty()) return fail("bad query override: " + what);
    if (s == defaults.s && t == defaults.t && k == defaults.k &&
        bound == defaults.delay_bound) {
      // Default query: share the catalog's instance as-is — no copy, no
      // parse, O(1) fingerprinting off the stored prefixes.
      request.topology = std::move(ref);
    } else {
      // Query override: kept symbolic — the graph is never copied here.
      // Fingerprints mix the override values directly after the stored
      // graph prefix (api/fingerprint.h), so cache lookups and routing
      // stay O(1); the O(m) instance copy happens only when a solve
      // actually runs (api::SolveRequest::materialized_instance on a
      // cache miss).
      request.topology = std::move(ref);
      request.query_override = api::QueryOverride{
          static_cast<graph::VertexId>(s), static_cast<graph::VertexId>(t),
          static_cast<int>(k), bound};
    }
  } else {
    // Protocol v1: inline .kri instance (accepted indefinitely).
    if (instance_text == nullptr ||
        instance_text->type != wire::Value::Type::kString)
      return fail("solve requires a string \"instance\" or \"topology\" field");
    try {
      std::istringstream is(instance_text->string);
      request.instance = api::read_instance(is);
    } catch (const std::exception& e) {
      return fail(std::string("bad instance: ") + e.what());
    }
  }

  // A present solve field must carry its JSON type: a mistyped value
  // would otherwise read as absent and silently serve the default request.
  using Type = wire::Value::Type;
  for (const auto& [key, type] :
       {std::pair{"mode", Type::kString}, {"guess", Type::kString},
        {"class", Type::kString}, {"eps", Type::kNumber},
        {"eps1", Type::kNumber}, {"eps2", Type::kNumber},
        {"deadline", Type::kNumber}}) {
    const wire::Value* v = req.find(key);
    if (v != nullptr && v->type != type)
      return fail(std::string("bad ") + key + ": not a " +
                  (type == Type::kString ? "string" : "number"));
  }
  const std::string mode = req.get_string("mode", "scaled");
  const std::optional<api::Mode> parsed_mode = api::parse_mode(mode);
  if (!parsed_mode) return fail("unknown mode: " + mode);
  request.mode = *parsed_mode;
  const std::string guess = req.get_string("guess", "binary");
  const std::optional<api::GuessStrategy> parsed_guess =
      api::parse_guess(guess);
  if (!parsed_guess) return fail("unknown guess: " + guess);
  request.guess = *parsed_guess;
  const std::string sla = req.get_string("class", "batch");
  const std::optional<api::SlaClass> parsed_sla = api::parse_sla_class(sla);
  if (!parsed_sla) return fail("unknown class: " + sla);
  request.sla = *parsed_sla;
  // eps is the alias that sets both, as in the CLIs. Every mode keys the
  // cache on both values, so each must be finite and > 0 in every mode.
  for (const char* key : {"eps", "eps1", "eps2"}) {
    const double eps = req.get_number(key, 0.25);
    if (!(std::isfinite(eps) && eps > 0.0))
      return fail(std::string("bad ") + key + ": must be finite and > 0");
  }
  const double eps = req.get_number("eps", 0.25);
  request.eps1 = req.get_number("eps1", eps);
  request.eps2 = req.get_number("eps2", eps);
  request.deadline_seconds = req.get_number("deadline", 0.0);
  // Opt-in per-request breakdown: echoed only on demand so the default
  // response shape (and the loadgen's identity check) is unchanged.
  if (want_timing != nullptr) *want_timing = req.get_bool("timing", false);

  *out = std::move(request);
  return true;
}

}  // namespace krsp::server
