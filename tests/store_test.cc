// The zero-copy instance store and the topology catalog: `.krspb`
// round-trips, every corruption class the format contract promises to
// reject (bad magic/version/endianness, truncation, counts that wrap the
// section sizes, digest mismatch, broken id permutation) and every
// instance outside the paper's model (a negative weight, a stored query
// core::query_error refuses) plus a seeded mutation suite, catalog lookup
// semantics, and the O(1) fingerprint-prefix path producing values
// identical to inline hashing.
// Runs under ASan/UBSan in the sanitizer matrix on purpose: mmap
// lifetime and alignment bugs are exactly what sanitizers catch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/fingerprint.h"
#include "api/krsp.h"
#include "core/instance.h"
#include "store/catalog.h"
#include "store/container.h"
#include "store/format.h"
#include "util/check.h"
#include "util/rng.h"

namespace krsp::store {
namespace {

core::Instance random_instance(std::uint64_t seed, int n = 24, int k = 2) {
  util::Rng rng(seed);
  core::RandomInstanceOptions opt;
  opt.k = k;
  opt.delay_slack = 0.3;
  const auto inst = core::random_er_instance(rng, n, 0.3, opt);
  KRSP_CHECK_MSG(inst.has_value(), "seed " << seed << " drew no instance");
  return *inst;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Expects CsrContainer::open(path) to throw a CheckError whose message
/// mentions `needle` (the violated invariant).
void expect_rejected(const std::string& path, const std::string& needle) {
  try {
    (void)CsrContainer::open(path);
    FAIL() << path << ": expected rejection mentioning \"" << needle << "\"";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

constexpr int kMutationTrials = 2000;

template <class T>
std::vector<T> words_at(const std::vector<char>& bytes, std::uint64_t off,
                        std::uint64_t count) {
  std::vector<T> words(count);
  if (count > 0)
    std::memcpy(words.data(), bytes.data() + off, count * sizeof(T));
  return words;
}

/// Re-stamps the digest of a patched container image the way write_file
/// computes it, so open() gets past the digest check to the checks after
/// it. Returns false and leaves the image alone when its header's counts
/// or section offsets do not fit the bytes (open() refuses those first).
bool restamp_digest(std::vector<char>& bytes) {
  const std::uint64_t size = bytes.size();
  if (size < sizeof(Header)) return false;
  Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  const auto n = static_cast<std::uint64_t>(h.num_vertices);
  const auto m = static_cast<std::uint64_t>(h.num_edges);
  const auto fits = [size](std::uint64_t off, std::uint64_t count,
                           std::uint64_t width) {
    return count < size && off <= size && count * width <= size - off;
  };
  if (!fits(h.off_offsets, n + 1, 8) || !fits(h.off_targets, m, 4) ||
      !fits(h.off_costs, m, 8) || !fits(h.off_delays, m, 8) ||
      !fits(h.off_ids, m, 4))
    return false;
  h.digest = compute_digest(
      h, words_at<std::uint64_t>(bytes, h.off_offsets, n + 1),
      words_at<std::int32_t>(bytes, h.off_targets, m),
      words_at<graph::Cost>(bytes, h.off_costs, m),
      words_at<graph::Delay>(bytes, h.off_delays, m),
      words_at<std::int32_t>(bytes, h.off_ids, m));
  std::memcpy(bytes.data(), &h, sizeof(h));
  return true;
}

/// Writes `bytes` as `name`.krspb, alone in a fresh directory, and expects
/// CsrContainer::open and TopologyCatalog::load each to refuse it with a
/// CheckError naming the file and mentioning `needle`.
void expect_load_refused(const std::vector<char>& bytes,
                         const std::string& name, const std::string& needle) {
  const std::string dir = temp_path("refused_" + name);
  std::filesystem::create_directories(dir);
  const std::string file = name + ".krspb";
  spit(dir + "/" + file, bytes);
  const auto expect_refused = [&](const auto& load, const char* what) {
    try {
      load();
      ADD_FAILURE() << what << " accepted " << file;
    } catch (const util::CheckError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(file), std::string::npos)
          << what << ": " << message;
      EXPECT_NE(message.find(needle), std::string::npos)
          << what << ": " << message;
    }
  };
  expect_refused([&] { (void)CsrContainer::open(dir + "/" + file); },
                 "CsrContainer::open");
  expect_refused([&] { (void)TopologyCatalog::load(dir); },
                 "TopologyCatalog::load");
}

void expect_same_instance(const core::Instance& a, const core::Instance& b) {
  ASSERT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (graph::EdgeId e = 0; e < a.graph.num_edges(); ++e) {
    const auto& ea = a.graph.edge(e);
    const auto& eb = b.graph.edge(e);
    EXPECT_EQ(ea.from, eb.from) << "edge " << e;
    EXPECT_EQ(ea.to, eb.to) << "edge " << e;
    EXPECT_EQ(ea.cost, eb.cost) << "edge " << e;
    EXPECT_EQ(ea.delay, eb.delay) << "edge " << e;
  }
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.delay_bound, b.delay_bound);
}

TEST(StoreTest, RoundTripPreservesEdgesIdsAndQuery) {
  const core::Instance original = random_instance(7);
  const std::string path = temp_path("roundtrip.krspb");
  CsrContainer::write_file(path, original);
  const CsrContainer c = CsrContainer::open(path);
  EXPECT_EQ(c.num_vertices(), original.graph.num_vertices());
  EXPECT_EQ(c.num_edges(), original.graph.num_edges());
  // Materialized instance restores the original edge-id order exactly —
  // the property that keeps v1/v2 responses (which name paths by edge
  // id) bit-identical.
  expect_same_instance(c.instance(), original);
}

TEST(StoreTest, WriteIsDeterministic) {
  const core::Instance inst = random_instance(13);
  const std::string p1 = temp_path("det1.krspb");
  const std::string p2 = temp_path("det2.krspb");
  CsrContainer::write_file(p1, inst);
  CsrContainer::write_file(p2, inst);
  EXPECT_EQ(slurp(p1), slurp(p2));
}

TEST(StoreTest, RejectsBadMagicVersionAndEndianness) {
  const core::Instance inst = random_instance(17);
  const std::string good = temp_path("good.krspb");
  CsrContainer::write_file(good, inst);
  const std::vector<char> bytes = slurp(good);

  auto corrupt_header = [&](std::size_t offset, std::uint32_t value,
                            const std::string& name) {
    std::vector<char> bad = bytes;
    std::memcpy(bad.data() + offset, &value, sizeof(value));
    const std::string path = temp_path(name);
    spit(path, bad);
    return path;
  };
  expect_rejected(corrupt_header(0, 0xdeadbeef, "badmagic.krspb"),
                  "bad magic");
  expect_rejected(corrupt_header(8, 999, "badversion.krspb"),
                  "unsupported format version");
  expect_rejected(corrupt_header(12, 0x04030201, "badendian.krspb"),
                  "endianness mismatch");
}

TEST(StoreTest, RejectsTruncation) {
  const core::Instance inst = random_instance(19);
  const std::string good = temp_path("trunc_src.krspb");
  CsrContainer::write_file(good, inst);
  const std::vector<char> bytes = slurp(good);

  // Shorter than the header: rejected before any section math.
  std::vector<char> tiny(bytes.begin(), bytes.begin() + 64);
  const std::string tiny_path = temp_path("tiny.krspb");
  spit(tiny_path, tiny);
  expect_rejected(tiny_path, "truncated");

  // Header intact but sections cut off: the size cross-check fires.
  std::vector<char> cut(bytes.begin(), bytes.end() - 16);
  const std::string cut_path = temp_path("cut.krspb");
  spit(cut_path, cut);
  expect_rejected(cut_path, "file size does not match header");
}

TEST(StoreTest, RejectsContentCorruptionViaDigest) {
  const core::Instance inst = random_instance(23);
  const std::string good = temp_path("digest_src.krspb");
  CsrContainer::write_file(good, inst);
  std::vector<char> bad = slurp(good);
  // Flip one bit in the costs section (last section bytes are ids; pick
  // a byte safely inside the file's second half but before ids by using
  // the costs offset from the header).
  std::uint64_t off_costs = 0;
  std::memcpy(&off_costs, bad.data() + offsetof(Header, off_costs),
              sizeof(off_costs));
  bad[off_costs] = static_cast<char>(bad[off_costs] ^ 0x01);
  const std::string path = temp_path("bitflip.krspb");
  spit(path, bad);
  expect_rejected(path, "digest mismatch");
}

TEST(StoreTest, RejectsBrokenIdPermutation) {
  const core::Instance inst = random_instance(29);
  const std::string good = temp_path("ids_src.krspb");
  CsrContainer::write_file(good, inst);
  std::vector<char> bad = slurp(good);
  Header header;
  std::memcpy(&header, bad.data(), sizeof(header));
  // Duplicate id 0 into slot 1, then re-stamp the digest so the
  // permutation check (not the digest) is what rejects the file.
  std::int32_t zero = 0;
  std::memcpy(bad.data() + header.off_ids + sizeof(std::int32_t), &zero,
              sizeof(zero));
  ASSERT_TRUE(restamp_digest(bad));
  const std::string path = temp_path("badids.krspb");
  spit(path, bad);
  expect_rejected(path, "not a permutation");
}

// Containers outside the paper's model that write_file would never
// produce (it validates the instance), patched from a valid one with the
// digest re-stamped: the loader applies the instance rule itself, so a
// negative weight does not surface later as a failed solve and a stored
// k past int32 is not narrowed into another query.
TEST(StoreTest, RejectsNegativeArcCost) {
  const std::string good = temp_path("negcost_src.krspb");
  CsrContainer::write_file(good, random_instance(71));
  std::vector<char> bad = slurp(good);
  Header header;
  std::memcpy(&header, bad.data(), sizeof(header));
  const graph::Cost cost = -100;
  std::memcpy(bad.data() + header.off_costs, &cost, sizeof(cost));
  ASSERT_TRUE(restamp_digest(bad));
  expect_load_refused(bad, "negcost", "negative arc cost or delay");
}

TEST(StoreTest, RejectsStoredKPastInt32) {
  const std::string good = temp_path("bigk_src.krspb");
  CsrContainer::write_file(good, random_instance(73));
  std::vector<char> bad = slurp(good);
  Header header;
  std::memcpy(&header, bad.data(), sizeof(header));
  header.k = (std::int64_t{1} << 32) + 2;
  std::memcpy(bad.data(), &header, sizeof(header));
  ASSERT_TRUE(restamp_digest(bad));
  expect_load_refused(bad, "bigk", "invalid stored query: k = 4294967298");
}

TEST(StoreTest, RejectsEdgeCountThatWrapsSectionSizes) {
  // num_edges = 2^62 + m wraps every section size m·4 and m·8 back to its
  // real value, and a matching last offsets word covers the arc sections:
  // only bounding m by the file length rejects the file.
  const core::Instance inst = random_instance(59);
  const std::string good = temp_path("wrap_src.krspb");
  CsrContainer::write_file(good, inst);
  std::vector<char> bad = slurp(good);
  Header header;
  std::memcpy(&header, bad.data(), sizeof(header));
  header.num_edges += std::int64_t{1} << 62;
  std::memcpy(bad.data(), &header, sizeof(header));
  std::memcpy(bad.data() + header.off_offsets +
                  static_cast<std::size_t>(header.num_vertices) *
                      sizeof(std::uint64_t),
              &header.num_edges, sizeof(header.num_edges));
  const std::string path = temp_path("wrap.krspb");
  spit(path, bad);
  expect_rejected(path, "edge count exceeds the file size");
}

// One seeded mutation pass over a valid container image: bit flips, byte
// overwrites, truncations, and header words replaced with edge values.
// With `restamp` each mutant's digest is re-stamped before it is opened.
// Returns how many mutants were refused.
int mutation_pass(const std::vector<char>& bytes,
                  const core::Instance& original, bool restamp) {
  const std::string path = temp_path("mutant.krspb");
  util::Rng rng(2026);
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  int rejected = 0;
  int refused_past_digest = 0;
  for (int trial = 0; trial < kMutationTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<char> bad = bytes;
    switch (trial % 4) {
      case 0: {
        const std::size_t at = pick(bad.size());
        bad[at] = static_cast<char>(bad[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      }
      case 1:
        bad[pick(bad.size())] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2:
        bad.resize(pick(bad.size()));
        break;
      case 3: {
        char* word = bad.data() + 8 * pick(sizeof(Header) / 8);
        std::uint64_t v = 0;
        std::memcpy(&v, word, sizeof(v));
        const std::uint64_t values[] = {0,           ~std::uint64_t{0},
                                        1ull << 61,  (1ull << 62) + v,
                                        v + 8,       v - 8};
        std::memcpy(word, &values[rng.uniform_int(0, 5)], sizeof(v));
        break;
      }
    }
    const bool restamped = restamp && restamp_digest(bad);
    spit(path, bad);
    try {
      const CsrContainer c = CsrContainer::open(path);
      const core::Instance inst = c.instance();
      if (!restamp) {
        expect_same_instance(inst, original);
        continue;
      }
      Header header;
      std::memcpy(&header, bad.data(), sizeof(header));
      EXPECT_NO_THROW(inst.validate());
      EXPECT_EQ(inst.s, header.s);
      EXPECT_EQ(inst.t, header.t);
      EXPECT_EQ(inst.k, header.k);
      EXPECT_EQ(inst.delay_bound, header.delay_bound);
    } catch (const util::CheckError& e) {
      ++rejected;
      const std::string message = e.what();
      if (!restamped) continue;
      EXPECT_EQ(message.find("digest mismatch"), std::string::npos) << message;
      refused_past_digest +=
          message.find("negative arc cost or delay") != std::string::npos ||
          message.find("invalid stored query") != std::string::npos;
    }
  }
  // Sign flips in the weight sections and query words in the header.
  if (restamp) {
    EXPECT_GT(refused_past_digest, 0);
  }
  return rejected;
}

// Each mutant must be rejected with a CheckError or load as the original
// instance, edge for edge (a mutation of padding or reserved bytes changes
// nothing) — never crash or yield a different graph. With the digest
// re-stamped the same mutants reach the checks past the digest: each must
// be refused, or load to an instance inside the paper's model that asks
// the header's exact query.
TEST(StoreTest, MutatedContainersAreRejectedOrUnchanged) {
  const core::Instance original = random_instance(61);
  const std::string good = temp_path("mutate_src.krspb");
  CsrContainer::write_file(good, original);
  const std::vector<char> bytes = slurp(good);
  // Padding and reserved bytes are a small share of the file.
  EXPECT_GT(mutation_pass(bytes, original, /*restamp=*/false),
            kMutationTrials * 9 / 10);
  SCOPED_TRACE("digest re-stamped");
  (void)mutation_pass(bytes, original, /*restamp=*/true);
}

TEST(StoreTest, OpenMissingFileNamesThePath) {
  expect_rejected(temp_path("no_such_file.krspb"), "no_such_file.krspb");
}

TEST(TopologyCatalogTest, LoadsDirectoryAndFindsById) {
  const std::string dir = temp_path("catalog1");
  std::filesystem::create_directories(dir);
  const core::Instance a = random_instance(31);
  const core::Instance b = random_instance(37, 16, 2);
  CsrContainer::write_file(dir + "/alpha.krspb", a);
  CsrContainer::write_file(dir + "/beta.krspb", b);
  // Non-container files are ignored, not errors.
  spit(dir + "/README.txt", {'h', 'i'});

  const TopologyCatalog catalog = TopologyCatalog::load(dir);
  EXPECT_EQ(catalog.size(), 2u);
  const auto alpha = catalog.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->id, "alpha");
  expect_same_instance(*alpha->instance, a);
  EXPECT_EQ(catalog.find("gamma"), nullptr);

  const auto infos = catalog.list();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].id, "alpha");  // sorted by id
  EXPECT_EQ(infos[1].id, "beta");
  EXPECT_EQ(infos[0].num_edges, a.graph.num_edges());
}

TEST(TopologyCatalogTest, LoadFailsFastOnACorruptContainer) {
  const std::string dir = temp_path("catalog2");
  std::filesystem::create_directories(dir);
  CsrContainer::write_file(dir + "/ok.krspb", random_instance(41));
  spit(dir + "/broken.krspb", std::vector<char>(64, 'x'));
  EXPECT_THROW((void)TopologyCatalog::load(dir), util::CheckError);
}

TEST(TopologyCatalogTest, PrefixFingerprintsMatchInlineHashing) {
  const std::string dir = temp_path("catalog3");
  std::filesystem::create_directories(dir);
  const core::Instance inst = random_instance(43);
  CsrContainer::write_file(dir + "/topo.krspb", inst);
  const TopologyCatalog catalog = TopologyCatalog::load(dir);

  api::SolveRequest inline_req;
  inline_req.instance = inst;
  inline_req.mode = api::Mode::kExactWeights;

  api::SolveRequest topo_req;
  topo_req.topology = catalog.find("topo");
  ASSERT_NE(topo_req.topology, nullptr);
  topo_req.mode = api::Mode::kExactWeights;

  // The O(1) prefix-resume path must produce the exact values of the
  // O(m) inline path — this equality is what makes the result cache
  // shared across wire protocol v1 and v2.
  const api::FingerprintPair a = api::request_fingerprints(inline_req);
  const api::FingerprintPair b = api::request_fingerprints(topo_req);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.verify, b.verify);

  // And different query parameters must still diverge.
  topo_req.eps1 = 0.5;
  const api::FingerprintPair c = api::request_fingerprints(topo_req);
  EXPECT_NE(a.key, c.key);
}

// Golden keys: the result cache and the router ring key on these values,
// which mix the mode and guess enumerators numerically, so reordering an
// enumerator (or any change to the hashed words) moves every cached entry
// and every request's shard. Inline and topology-default requests share
// one pair; the override asks s=1, t=4, k=1, D=7 on the same graph.
TEST(TopologyCatalogTest, RequestFingerprintsMatchGoldenValues) {
  core::Instance inst;
  inst.graph.resize(5);
  inst.graph.add_edge(0, 1, 3, 2);
  inst.graph.add_edge(1, 4, 1, 5);
  inst.graph.add_edge(0, 2, 2, 2);
  inst.graph.add_edge(2, 4, 4, 1);
  inst.graph.add_edge(0, 3, 1, 6);
  inst.graph.add_edge(3, 4, 2, 2);
  inst.graph.add_edge(1, 2, 1, 1);
  inst.s = 0;
  inst.t = 4;
  inst.k = 2;
  inst.delay_bound = 9;
  const std::string dir = temp_path("catalog_golden");
  std::filesystem::create_directories(dir);
  CsrContainer::write_file(dir + "/net.krspb", inst);
  const TopologyCatalog catalog = TopologyCatalog::load(dir);

  using api::GuessStrategy;
  using api::Mode;
  struct Golden {
    Mode mode;
    GuessStrategy guess;
    double eps;
    std::uint64_t key, verify, override_key, override_verify;
  };
  const Golden golden[] = {
      {Mode::kScaled, GuessStrategy::kBinarySearch, 0.25,
       0xcf3b25feddf68d68ULL, 0x3ac714a5449dd917ULL,
       0x81ade3a6f6517384ULL, 0xf40ffead6a00719eULL},
      {Mode::kScaled, GuessStrategy::kBinarySearch, 0.50,
       0x12bd131f59c367a8ULL, 0x8b01af642f9e1a1cULL,
       0x4e18beb0e9099464ULL, 0xd964ae43669d0a71ULL},
      {Mode::kScaled, GuessStrategy::kDoubling, 0.25,
       0xabe8e0275e61e2e9ULL, 0xb6e8d98ef63d89b3ULL,
       0x2399def344a139c5ULL, 0xc3ca60f07a07262eULL},
      {Mode::kScaled, GuessStrategy::kDoubling, 0.50,
       0xc7688c67073aed89ULL, 0x72b1dc184317ee7fULL,
       0xe0f171d2c98d29c5ULL, 0xe249e8bf4ca5118eULL},
      {Mode::kExactWeights, GuessStrategy::kBinarySearch, 0.25,
       0x5f26d0ab7690b789ULL, 0x6490fd6cd5193851ULL,
       0x8f687e41ad2e40e5ULL, 0x688e2e338890aebaULL},
      {Mode::kExactWeights, GuessStrategy::kBinarySearch, 0.50,
       0x59f36c9641a701a9ULL, 0xb833a2373b07ec6aULL,
       0xc1b72337b96083e5ULL, 0x8a7a59bd35e19eb6ULL},
      {Mode::kExactWeights, GuessStrategy::kDoubling, 0.25,
       0xd1a398449b535d88ULL, 0x0a35cb7361223494ULL,
       0x3338d42b0d0eb3a4ULL, 0xd32841a036aac8c8ULL},
      {Mode::kExactWeights, GuessStrategy::kDoubling, 0.50,
       0x9e7b734e8e685048ULL, 0x1ad013093d9072deULL,
       0x2812f015d3177604ULL, 0xdb81435b2cae3016ULL},
      {Mode::kPhase1Only, GuessStrategy::kBinarySearch, 0.25,
       0xc2d86d07d862abeaULL, 0x977b97f5a9687eb4ULL,
       0x1e0e28ee44b3a866ULL, 0xb09d855989bfe082ULL},
      {Mode::kPhase1Only, GuessStrategy::kBinarySearch, 0.50,
       0xc6c5d11d0c379f2aULL, 0xd1782389c0086701ULL,
       0x02fafcae9c369626ULL, 0xc2f73b7664106386ULL},
      {Mode::kPhase1Only, GuessStrategy::kDoubling, 0.25,
       0x4f82256eb2e73babULL, 0xfcb48f9ed5513580ULL,
       0xa75913e5bc1bc2c7ULL, 0x7f2c1c5a66e2772cULL},
      {Mode::kPhase1Only, GuessStrategy::kDoubling, 0.50,
       0x8316ca64c02e414bULL, 0x4129f4ef0dc6cec9ULL,
       0xbc79c0255f8b4d47ULL, 0x1938270b1dcb6147ULL},
  };
  for (const Golden& g : golden) {
    api::SolveRequest inline_req;
    inline_req.instance = inst;
    inline_req.mode = g.mode;
    inline_req.guess = g.guess;
    inline_req.eps1 = inline_req.eps2 = g.eps;
    api::SolveRequest default_req = inline_req;
    default_req.instance = {};
    default_req.topology = catalog.find("net");
    ASSERT_NE(default_req.topology, nullptr);
    api::SolveRequest override_req = default_req;
    override_req.query_override = api::QueryOverride{1, 4, 1, 7};

    const std::string what = "mode " +
                             std::to_string(static_cast<int>(g.mode)) +
                             " guess " +
                             std::to_string(static_cast<int>(g.guess)) +
                             " eps " + std::to_string(g.eps);
    for (const api::SolveRequest* req : {&inline_req, &default_req}) {
      const api::FingerprintPair fp = api::request_fingerprints(*req);
      EXPECT_EQ(fp.key, g.key) << what;
      EXPECT_EQ(fp.verify, g.verify) << what;
    }
    const api::FingerprintPair fp = api::request_fingerprints(override_req);
    EXPECT_EQ(fp.key, g.override_key) << what;
    EXPECT_EQ(fp.verify, g.override_verify) << what;
  }
}

TEST(TopologyCatalogTest, ConcurrentFindsAreSafeAndConsistent) {
  const std::string dir = temp_path("catalog4");
  std::filesystem::create_directories(dir);
  CsrContainer::write_file(dir + "/one.krspb", random_instance(47));
  CsrContainer::write_file(dir + "/two.krspb", random_instance(53, 16));
  const TopologyCatalog catalog = TopologyCatalog::load(dir);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&catalog, &failures] {
      for (int i = 0; i < 200; ++i) {
        const auto one = catalog.find("one");
        const auto two = catalog.find("two");
        const auto missing = catalog.find("three");
        if (one == nullptr || two == nullptr || missing != nullptr ||
            one->instance->graph.num_vertices() <= 0)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// A v2 query override materializes without copying the graph: the
// instance it solves shares the catalog graph's storage.
TEST(TopologyCatalogTest, MaterializedOverrideSharesTheCatalogGraph) {
  const std::string dir = temp_path("catalog5");
  std::filesystem::create_directories(dir);
  CsrContainer::write_file(dir + "/topo.krspb", random_instance(59));
  const TopologyCatalog catalog = TopologyCatalog::load(dir);
  api::SolveRequest request;
  request.topology = catalog.find("topo");
  ASSERT_NE(request.topology, nullptr);
  const core::Instance& stored = *request.topology->instance;
  request.query_override =
      api::QueryOverride{stored.t, stored.s, 1, stored.delay_bound + 1};
  const core::Instance inst = request.materialized_instance();
  EXPECT_EQ(inst.graph.edges().data(), stored.graph.edges().data());
  EXPECT_EQ(inst.graph.out_edges(inst.s).data(),
            stored.graph.out_edges(inst.s).data());
  EXPECT_EQ(inst.s, stored.t);
  EXPECT_EQ(inst.t, stored.s);
  EXPECT_EQ(inst.k, 1);
  EXPECT_EQ(inst.delay_bound, stored.delay_bound + 1);
}

// Threads materialize copies of one shared catalog instance and mutate
// them while reading the shared one: each copy starts out sharing the
// catalog graph and then sees only its own changes, and the catalog
// instance never changes. CI runs this under ThreadSanitizer.
TEST(TopologyCatalogTest, ThreadsCopyAndMutateOneSharedInstance) {
  const std::string dir = temp_path("catalog6");
  std::filesystem::create_directories(dir);
  CsrContainer::write_file(dir + "/topo.krspb", random_instance(67));
  const TopologyCatalog catalog = TopologyCatalog::load(dir);
  const auto ref = catalog.find("topo");
  ASSERT_NE(ref, nullptr);
  const core::Instance& shared = *ref->instance;
  const core::Instance snapshot =
      CsrContainer::open(dir + "/topo.krspb").instance();
  ASSERT_NE(snapshot.graph.edges().data(), shared.graph.edges().data());
  const int n = shared.graph.num_vertices();
  const int m = shared.graph.num_edges();
  const graph::Delay total_delay = shared.graph.total_delay();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int id = 0; id < 4; ++id) {
    threads.emplace_back([&, id] {
      for (int i = 0; i < 100; ++i) {
        api::SolveRequest request;
        request.topology = ref;
        request.query_override =
            api::QueryOverride{shared.s, shared.t, 1 + i % 2, 0};
        core::Instance mine = request.materialized_instance();
        bool ok = mine.graph.edges().data() == shared.graph.edges().data();
        const core::Instance copy = mine;
        mine.graph.set_edge_delay(0, 1000 + id);
        mine.graph.add_edge(0, 1, id, id);
        if (i % 3 == 0) mine.graph.add_vertex();
        if (i % 5 == 0) mine.graph.clear_edges();
        ok = ok && copy.graph.edges().data() == shared.graph.edges().data() &&
             mine.graph.edges().data() != shared.graph.edges().data() &&
             (i % 5 == 0 ? mine.graph.num_edges() == 0
                         : mine.graph.num_edges() == m + 1 &&
                               mine.graph.edge(0).delay == 1000 + id) &&
             mine.graph.num_vertices() == n + (i % 3 == 0 ? 1 : 0) &&
             shared.graph.num_edges() == m &&
             shared.graph.total_delay() == total_delay;
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  expect_same_instance(shared, snapshot);
}

}  // namespace
}  // namespace krsp::store
