// Wire protocol v2: topology-reference solves must be byte-identical to
// inline v1 solves of the same instance, the result cache must hit
// across the two request forms (the fingerprint-prefix contract), query
// overrides must solve the modified instance, and every v2 failure mode
// must be a structured error response — never a dropped session.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>

#include "api/krsp.h"
#include "server/service.h"
#include "server/transport.h"
#include "server/wire.h"
#include "store/catalog.h"
#include "store/container.h"
#include "util/check.h"
#include "util/rng.h"

namespace krsp::server {
namespace {

api::Instance random_instance(std::uint64_t seed, int n = 14, int k = 2) {
  util::Rng rng(seed);
  api::RandomInstanceOptions opt;
  opt.k = k;
  opt.delay_slack = 0.3;
  const auto inst = api::random_er_instance(rng, n, 0.35, opt);
  KRSP_CHECK_MSG(inst.has_value(), "seed " << seed << " drew no instance");
  return *inst;
}

/// Writes `inst` as `<id>.krspb` into a fresh catalog directory and
/// loads it. Each call gets its own directory so tests stay independent.
store::TopologyCatalog one_topology_catalog(const std::string& dir_name,
                                            const std::string& id,
                                            const api::Instance& inst) {
  const std::string dir = testing::TempDir() + "/" + dir_name;
  std::filesystem::create_directories(dir);
  store::CsrContainer::write_file(dir + "/" + id + ".krspb", inst);
  return store::TopologyCatalog::load(dir);
}

std::string inline_line(const api::Instance& inst, const std::string& id,
                        const std::string& mode = "exact") {
  std::ostringstream kri;
  api::write_instance(kri, inst);
  return wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("instance", kri.str())
      .field("mode", mode)
      .done();
}

std::string topology_line(const std::string& topology, const std::string& id,
                          const std::string& mode = "exact") {
  return wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("topology", topology)
      .field("mode", mode)
      .done();
}

/// Removes the per-request timing fields (the only legitimately
/// nondeterministic bytes) so the rest of the response line can be
/// compared with operator== — the bit-identity contract.
std::string strip_timing(std::string line) {
  for (const char* key : {"\"queue_ms\":", "\"total_ms\":"}) {
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    const std::size_t end = line.find_first_of(",}", pos + std::strlen(key));
    KRSP_CHECK(end != std::string::npos);
    KRSP_CHECK(pos > 0 && line[pos - 1] == ',');
    line.erase(pos - 1, end - (pos - 1));
  }
  return line;
}

TEST(ProtocolV2Test, CatalogSolveIsBitIdenticalToInlineV1) {
  const api::Instance inst = random_instance(101);
  const store::TopologyCatalog catalog =
      one_topology_catalog("v2_identity", "net", inst);

  for (const std::string mode : {"exact", "scaled"}) {
    // Two fresh services so neither side can see the other's cache —
    // this compares cold solves, not cached bytes.
    SolveService v1_service(api::ServerOptions{.num_threads = 1});
    SolveService v2_service(api::ServerOptions{.num_threads = 1});
    Protocol v1(v1_service);
    Protocol v2(v2_service, &catalog);

    const std::string a = v1.handle_line(inline_line(inst, "same-id", mode));
    const std::string b = v2.handle_line(topology_line("net", "same-id", mode));
    EXPECT_EQ(strip_timing(a), strip_timing(b)) << "mode " << mode;
    const auto parsed = wire::parse(b);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->get_bool("served", false)) << "mode " << mode;
  }
}

TEST(ProtocolV2Test, CacheHitsCrossProtocolForms) {
  const api::Instance inst = random_instance(103);
  const store::TopologyCatalog catalog =
      one_topology_catalog("v2_cache", "net", inst);
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service, &catalog);

  // Inline v1 first (miss), then the same solve by topology id: the v2
  // request must hit the entry the v1 request inserted.
  const auto miss = wire::parse(protocol.handle_line(inline_line(inst, "a")));
  ASSERT_TRUE(miss->get_bool("served", false));
  EXPECT_FALSE(miss->get_bool("cache_hit", true));
  const auto hit = wire::parse(protocol.handle_line(topology_line("net", "b")));
  ASSERT_TRUE(hit->get_bool("served", false));
  EXPECT_TRUE(hit->get_bool("cache_hit", false));
  EXPECT_EQ(hit->get_int("cost", -1), miss->get_int("cost", -2));
  EXPECT_EQ(hit->get_int("delay", -1), miss->get_int("delay", -2));

  // And the reverse direction, distinguished by mode so it cannot reuse
  // the entry above: v2 inserts, v1 hits.
  const auto miss2 =
      wire::parse(protocol.handle_line(topology_line("net", "c", "scaled")));
  ASSERT_TRUE(miss2->get_bool("served", false));
  EXPECT_FALSE(miss2->get_bool("cache_hit", true));
  const auto hit2 =
      wire::parse(protocol.handle_line(inline_line(inst, "d", "scaled")));
  ASSERT_TRUE(hit2->get_bool("served", false));
  EXPECT_TRUE(hit2->get_bool("cache_hit", false));
}

TEST(ProtocolV2Test, QueryOverridesSolveTheModifiedInstance) {
  const api::Instance inst = random_instance(107);
  const store::TopologyCatalog catalog =
      one_topology_catalog("v2_override", "net", inst);
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service, &catalog);

  // Override k and the delay bound; the graph and terminals stay.
  api::Instance modified = inst;
  modified.k = 1;
  modified.delay_bound = inst.delay_bound * 2;
  const std::string v2_line = wire::ObjectWriter()
                                  .field("op", "solve")
                                  .field("id", "ov")
                                  .field("topology", "net")
                                  .field("k", std::int64_t{1})
                                  .field("delay_bound", modified.delay_bound)
                                  .field("mode", "exact")
                                  .done();
  const std::string direct =
      protocol.handle_line(inline_line(modified, "ov", "exact"));
  const std::string via_override = protocol.handle_line(v2_line);
  const auto parsed = wire::parse(via_override);
  ASSERT_TRUE(parsed->get_bool("served", false));
  // The inline solve of the modified instance ran first, so the override
  // request must land on its cache entry — same fingerprint despite the
  // catalog prefix being computed for the *unmodified* default query.
  EXPECT_TRUE(parsed->get_bool("cache_hit", false));
  EXPECT_EQ(wire::parse(direct)->get_int("cost", -1),
            parsed->get_int("cost", -2));

  // An override that breaks instance invariants is a structured error.
  const std::string bad = wire::ObjectWriter()
                              .field("op", "solve")
                              .field("id", "bad")
                              .field("topology", "net")
                              .field("s", std::int64_t{inst.t})
                              .field("t", std::int64_t{inst.t})
                              .done();
  const auto err = wire::parse(protocol.handle_line(bad));
  EXPECT_FALSE(err->get_bool("ok", true));
  EXPECT_NE(err->get_string("error").find("bad query override"),
            std::string::npos);
}

// A query field must be a JSON integer in range. Each line below used to
// be solved as some other query: truncated ("s":<s>.9), wrapped ("s" or
// "k" past 2^32), dropped for the default ("s":"7"), or converted from a
// double past int64, which is undefined.
TEST(ProtocolV2Test, QueryOverrideFieldsMustBeIntegersInRange) {
  const api::Instance inst = random_instance(113);
  const store::TopologyCatalog catalog =
      one_topology_catalog("v2_override_range", "net", inst);
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service, &catalog);

  constexpr std::int64_t kWrap = std::int64_t{1} << 32;
  const std::string s = std::to_string(inst.s);
  const std::string wrapped_s = std::to_string(kWrap + inst.s);
  const std::string wrapped_k = std::to_string(kWrap + inst.k);
  const auto not_integer = [](const std::string& key) {
    return "bad query override: \"" + key + "\" is not a 64-bit integer";
  };
  const std::pair<std::string, std::string> cases[] = {
      {"\"s\":" + wrapped_s, "bad query override: bad source " + wrapped_s},
      {"\"s\":" + s + ".9", not_integer("s")},
      {"\"k\":" + wrapped_k, "bad query override: k = " + wrapped_k},
      {"\"s\":\"" + s + "\"", not_integer("s")},
      {"\"t\":1e300", not_integer("t")},
      {"\"delay_bound\":99999999999999999999", not_integer("delay_bound")},
  };
  for (const auto& [field, error] : cases) {
    const std::string line =
        R"({"op":"solve","id":"r","topology":"net","mode":"exact",)" + field +
        "}";
    const auto resp = wire::parse(protocol.handle_line(line));
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_FALSE(resp->get_bool("ok", true)) << line;
    EXPECT_EQ(resp->get_string("error"), error) << line;
  }
  EXPECT_EQ(service.stats().received, 0u);
}

TEST(ProtocolV2Test, FailureModesAreStructuredErrorsNotCloses) {
  const api::Instance inst = random_instance(109);
  const store::TopologyCatalog catalog =
      one_topology_catalog("v2_errors", "net", inst);
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service, &catalog);

  const auto expect_error = [&](const std::string& line,
                                const std::string& needle) {
    const auto resp = wire::parse(protocol.handle_line(line));
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_FALSE(resp->get_bool("ok", true)) << line;
    EXPECT_NE(resp->get_string("error").find(needle), std::string::npos)
        << "response: " << protocol.handle_line(line);
  };
  expect_error(topology_line("ghost", "e1"), "unknown topology");
  expect_error(R"({"op":"solve","id":"e2","topology":7})",
               "\"topology\" must be a string id");
  std::ostringstream kri;
  api::write_instance(kri, inst);
  expect_error(wire::ObjectWriter()
                   .field("op", "solve")
                   .field("id", "e3")
                   .field("topology", "net")
                   .field("instance", kri.str())
                   .done(),
               "both \"topology\" and \"instance\"");

  // A transport with no catalog rejects v2 requests with a hint, and v2
  // requests against it must not disturb v1 service.
  Protocol bare(service);
  const auto no_cat = wire::parse(bare.handle_line(topology_line("net", "e4")));
  EXPECT_FALSE(no_cat->get_bool("ok", true));
  EXPECT_NE(no_cat->get_string("error").find("no topology catalog"),
            std::string::npos);

  // None of the errors above reached the solver, and the session still
  // answers: errors are responses, not closes.
  const auto pong = wire::parse(protocol.handle_line(R"({"op":"ping"})"));
  EXPECT_TRUE(pong->get_bool("pong", false));
  EXPECT_EQ(service.stats().received, 0u);
}

TEST(ProtocolV2Test, TopologyDiscoveryOps) {
  const std::string dir = testing::TempDir() + "/v2_discovery";
  std::filesystem::create_directories(dir);
  const api::Instance small = random_instance(113, 10);
  const api::Instance large = random_instance(127, 20);
  store::CsrContainer::write_file(dir + "/beta.krspb", large);
  store::CsrContainer::write_file(dir + "/alpha.krspb", small);
  const store::TopologyCatalog catalog = store::TopologyCatalog::load(dir);
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service, &catalog);

  const auto list = wire::parse(protocol.handle_line(R"({"op":"topologies"})"));
  ASSERT_TRUE(list.has_value());
  EXPECT_TRUE(list->get_bool("ok", false));
  EXPECT_EQ(list->get_int("protocol_version", -1), kProtocolVersion);
  EXPECT_EQ(list->get_int("count", -1), 2);
  const wire::Value* items = list->find("topologies");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->items.size(), 2u);
  EXPECT_EQ(items->items[0].get_string("id"), "alpha");  // sorted by id
  EXPECT_EQ(items->items[1].get_string("id"), "beta");
  EXPECT_EQ(items->items[0].get_int("n", -1), small.graph.num_vertices());
  EXPECT_EQ(items->items[0].get_int("m", -1), small.graph.num_edges());
  EXPECT_EQ(items->items[0].get_int("k", -1), small.k);

  // The advertised digest is the container's content digest, as hex.
  const store::CsrContainer c = store::CsrContainer::open(dir + "/alpha.krspb");
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(c.digest()));
  EXPECT_EQ(items->items[0].get_string("digest"), hex);

  const auto one =
      wire::parse(protocol.handle_line(R"({"op":"topology","id":"beta"})"));
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->get_bool("ok", false));
  EXPECT_EQ(one->get_string("id"), "beta");
  EXPECT_EQ(one->get_int("n", -1), large.graph.num_vertices());
  const auto missing =
      wire::parse(protocol.handle_line(R"({"op":"topology","id":"nope"})"));
  EXPECT_FALSE(missing->get_bool("ok", true));

  // A catalog-less transport lists an empty catalog rather than erroring.
  Protocol bare(service);
  const auto empty = wire::parse(bare.handle_line(R"({"op":"topologies"})"));
  EXPECT_TRUE(empty->get_bool("ok", false));
  EXPECT_EQ(empty->get_int("count", -1), 0);

  const auto stats = wire::parse(protocol.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats->get_int("protocol_version", -1), kProtocolVersion);
}

// A present solve field must carry its JSON type and a usable value.
// Each line below used to be served as some other request: a mistyped
// field read as absent (the default request, a cache hit on its entry),
// and eps <= 0 failed inside the solver with an internal check message.
TEST(ProtocolV2Test, SolveFieldsMustHaveTheirTypeAndRange) {
  const store::TopologyCatalog catalog =
      store::TopologyCatalog::load(KRSP_DATA_DIR "/corpus");
  SolveService service(api::ServerOptions{.num_threads = 1});
  Protocol protocol(service, &catalog);
  const std::string query =
      R"({"op":"solve","id":"r","topology":"isp-backbone","s":85,"t":236,)"
      R"("k":2,"delay_bound":137)";
  const auto served = wire::parse(protocol.handle_line(query + "}"));
  ASSERT_TRUE(served->get_bool("served", false));
  EXPECT_EQ(served->get_int("cost", -1), 77);
  EXPECT_EQ(served->get_int("delay", -1), 137);

  const std::pair<std::string, std::string> cases[] = {
      {R"("eps1":"0.5")", "bad eps1: not a number"},
      {R"("mode":2)", "bad mode: not a string"},
      {R"("guess":7)", "bad guess: not a string"},
      {R"("class":3)", "bad class: not a string"},
      {R"("deadline":"5")", "bad deadline: not a number"},
      {R"("eps1":0)", "bad eps1: must be finite and > 0"},
      {R"("eps1":-1)", "bad eps1: must be finite and > 0"},
      {R"("eps2":0,"mode":"exact")", "bad eps2: must be finite and > 0"},
      {R"("eps":1e999,"mode":"phase1")", "bad eps: must be finite and > 0"},
  };
  for (const auto& [field, error] : cases) {
    const std::string line = query + "," + field + "}";
    const auto resp = wire::parse(protocol.handle_line(line));
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_FALSE(resp->get_bool("ok", true)) << line;
    EXPECT_EQ(resp->get_string("error"), error) << line;
  }
  EXPECT_EQ(service.stats().received, 1u);

  // A huge but finite eps1 allows any delay, as eps1 = 1e16 already does
  // on this query; it must not wrap the (1+eps1)·D limit into a negative
  // one that rejects every cap guess.
  const auto loose =
      wire::parse(protocol.handle_line(query + R"(,"eps1":1e16})"));
  const auto huge =
      wire::parse(protocol.handle_line(query + R"(,"eps1":1e300})"));
  ASSERT_TRUE(loose->get_bool("served", false));
  ASSERT_TRUE(huge->get_bool("served", false));
  EXPECT_EQ(loose->get_int("cost", -1), 75);
  EXPECT_EQ(loose->get_int("delay", -1), 140);
  EXPECT_EQ(huge->get_int("cost", -1), 75);
  EXPECT_EQ(huge->get_int("delay", -1), 140);
}

// The stats op's bytes are a contract (perfbench and supervisors read
// them), pinned here after a fixed script over the committed corpus:
// a v1 inline solve, v2 solves with and without a query override, a
// repeat that hits the cache, and malformed lines. The service-time EWMAs
// are wall-clock readings and are masked; every other byte is fixed.
TEST(ProtocolV2Test, StatsOpResponseIsPinned) {
  const store::TopologyCatalog catalog =
      store::TopologyCatalog::load(KRSP_DATA_DIR "/corpus");
  SolveService service(api::ServerOptions{.num_threads = 2});
  Protocol protocol(service, &catalog);
  const std::string isp =
      R"({"op":"solve","id":"q","topology":"isp-backbone","s":85,"t":236,)"
      R"("k":2,"delay_bound":137)";
  const std::string script[] = {
      inline_line(random_instance(131), "v1"),
      isp + "}",
      isp + R"(,"class":"interactive"})",  // same query: a cache hit
      R"({"op":"solve","id":"g","topology":"road-grid64","mode":"phase1"})",
      R"({"op":"solve","id":"m","topology":"isp-backbone","mode":"fast"})",
      "not json",
  };
  for (const std::string& line : script) (void)protocol.handle_line(line);

  std::string stats = protocol.handle_line(R"({"op":"stats"})");
  const std::string key = "ewma_service_ms\":";
  for (std::size_t pos = stats.find(key); pos != std::string::npos;
       pos = stats.find(key, pos)) {
    pos += key.size();
    stats.replace(pos, stats.find_first_of(",}", pos) - pos, "X");
  }
  EXPECT_EQ(stats,
            R"({"ok":true,"protocol_version":2,"solves_v1":1,"solves_v2":4,)"
            R"("received":4,"served":4,"rejected_queue_full":0,)"
            R"("rejected_deadline":0,"rejected_draining":0,"cache_hits":1,)"
            R"("cache_misses":3,"cache_insertions":3,"cache_evictions":0,)"
            R"("cache_entries":3,"cache_shard_entries":[1,0,0,0,1,0,0,1],)"
            R"("pending":0,"peak_pending":1,"ewma_service_ms":X,)"
            R"("interactive_admitted":0,"interactive_rejected_queue_full":0,)"
            R"("interactive_rejected_deadline":0,"interactive_degraded":0,)"
            R"("interactive_pending":0,"interactive_ewma_service_ms":X,)"
            R"("batch_admitted":3,"batch_rejected_queue_full":0,)"
            R"("batch_rejected_deadline":0,"batch_degraded":0,)"
            R"("batch_pending":0,"batch_ewma_service_ms":X,"threads":2})");
}

}  // namespace
}  // namespace krsp::server
