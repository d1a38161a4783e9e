#include "store/container.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace krsp::store {

namespace {

constexpr std::uint64_t align_up(std::uint64_t x) {
  return (x + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

template <class T>
void mix_words(DigestAccumulator& acc, std::span<const T> words) {
  for (const T w : words) acc.mix(static_cast<std::uint64_t>(w));
}

std::uint64_t digest_of(const Header& header,
                        std::span<const std::uint64_t> offsets,
                        std::span<const std::int32_t> targets,
                        std::span<const graph::Cost> costs,
                        std::span<const graph::Delay> delays,
                        std::span<const std::int32_t> ids) {
  DigestAccumulator acc;
  acc.mix(header.version);
  acc.mix(static_cast<std::uint64_t>(header.num_vertices));
  acc.mix(static_cast<std::uint64_t>(header.num_edges));
  acc.mix(static_cast<std::uint64_t>(header.s));
  acc.mix(static_cast<std::uint64_t>(header.t));
  acc.mix(static_cast<std::uint64_t>(header.k));
  acc.mix(static_cast<std::uint64_t>(header.delay_bound));
  mix_words(acc, offsets);
  mix_words(acc, targets);
  mix_words(acc, costs);
  mix_words(acc, delays);
  mix_words(acc, ids);
  return acc.h;
}

template <class T>
void write_section(std::ofstream& out, std::uint64_t at,
                   std::span<const T> words) {
  // Sections are laid out with aligned starts; the gap between the previous
  // write position and `at` is zero-filled so the file bytes (and thus any
  // whole-file hash) are deterministic.
  const auto pos = static_cast<std::uint64_t>(out.tellp());
  KRSP_CHECK(pos <= at);
  static constexpr char kZeros[kSectionAlign] = {};
  out.write(kZeros, static_cast<std::streamsize>(at - pos));
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(T)));
}

template <class T>
std::span<const T> section_span(const void* map, std::uint64_t off,
                                std::size_t count) {
  return {reinterpret_cast<const T*>(static_cast<const char*>(map) + off),
          count};
}

}  // namespace

void CsrContainer::write_file(const std::string& path,
                              const core::Instance& inst) {
  inst.validate();
  const int n = inst.graph.num_vertices();
  const int m = inst.graph.num_edges();

  // Group arcs by tail, preserving the original edge id in `ids`
  // (counting sort; stable within a row by edge id, so the layout is a
  // deterministic function of the instance).
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : inst.graph.edges()) ++offsets[e.from + 1];
  for (int v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::int32_t> targets(m);
  std::vector<graph::Cost> costs(m);
  std::vector<graph::Delay> delays(m);
  std::vector<std::int32_t> ids(m);
  std::vector<std::uint64_t> at(offsets.begin(), offsets.end() - 1);
  for (graph::EdgeId e = 0; e < m; ++e) {
    const auto& edge = inst.graph.edge(e);
    const std::uint64_t slot = at[edge.from]++;
    targets[slot] = edge.to;
    costs[slot] = edge.cost;
    delays[slot] = edge.delay;
    ids[slot] = e;
  }

  Header header;
  header.num_vertices = n;
  header.num_edges = m;
  header.s = inst.s;
  header.t = inst.t;
  header.k = inst.k;
  header.delay_bound = inst.delay_bound;
  header.off_offsets = align_up(sizeof(Header));
  header.off_targets =
      align_up(header.off_offsets + offsets.size() * sizeof(std::uint64_t));
  header.off_costs =
      align_up(header.off_targets + targets.size() * sizeof(std::int32_t));
  header.off_delays =
      align_up(header.off_costs + costs.size() * sizeof(graph::Cost));
  header.off_ids =
      align_up(header.off_delays + delays.size() * sizeof(graph::Delay));
  header.file_bytes = header.off_ids + ids.size() * sizeof(std::int32_t);
  header.digest = digest_of(header, offsets, targets, costs, delays, ids);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  KRSP_CHECK_MSG(out.good(), path << ": cannot open for writing");
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  write_section<std::uint64_t>(out, header.off_offsets, offsets);
  write_section<std::int32_t>(out, header.off_targets, targets);
  write_section<graph::Cost>(out, header.off_costs, costs);
  write_section<graph::Delay>(out, header.off_delays, delays);
  write_section<std::int32_t>(out, header.off_ids, ids);
  out.flush();
  KRSP_CHECK_MSG(out.good(), path << ": write failed");
}

CsrContainer CsrContainer::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  KRSP_CHECK_MSG(fd >= 0,
                 path << ": cannot open — " << std::strerror(errno));
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    KRSP_CHECK_MSG(false, path << ": fstat failed — " << std::strerror(err));
  }
  const auto file_len = static_cast<std::uint64_t>(st.st_size);
  if (file_len < sizeof(Header)) {
    ::close(fd);
    KRSP_CHECK_MSG(false, path << ": truncated — " << file_len
                               << " bytes, header needs " << sizeof(Header));
  }
  void* map = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps its own reference.
  KRSP_CHECK_MSG(map != MAP_FAILED,
                 path << ": mmap failed — " << std::strerror(errno));

  CsrContainer c;
  c.map_ = map;
  c.map_len_ = file_len;
  std::memcpy(&c.header_, map, sizeof(Header));
  const Header& h = c.header_;

  // From here, any violated invariant must unmap before throwing; the
  // container's destructor handles that once `c` owns the mapping.
  auto check = [&](bool ok, std::string_view what) {
    KRSP_CHECK_MSG(ok, path << ": " << what);
  };
  check(h.magic == kMagic, "bad magic (not a .krspb container?)");
  check(h.endian == kEndianTag, "endianness mismatch");
  check(h.version == kFormatVersion, "unsupported format version");
  check(h.num_vertices >= 0 && h.num_edges >= 0, "negative n or m");
  check(h.file_bytes == file_len, "file size does not match header");
  const auto n = static_cast<std::uint64_t>(h.num_vertices);
  const auto m = static_cast<std::uint64_t>(h.num_edges);
  // Bound n and m before any size arithmetic: each vertex needs an 8-byte
  // offsets word and each edge 24 bytes of arc words, so larger counts
  // cannot fit, and counts near 2^62 would wrap the section sizes below
  // back into range.
  check(n < file_len / sizeof(std::uint64_t) &&
            m <= file_len / (2 * sizeof(std::int32_t) + sizeof(graph::Cost) +
                             sizeof(graph::Delay)),
        "vertex or edge count exceeds the file size");
  // Section layout: aligned, in order, in bounds.
  const std::uint64_t offs[5] = {h.off_offsets, h.off_targets, h.off_costs,
                                 h.off_delays, h.off_ids};
  const std::uint64_t sizes[5] = {(n + 1) * sizeof(std::uint64_t),
                                  m * sizeof(std::int32_t),
                                  m * sizeof(graph::Cost),
                                  m * sizeof(graph::Delay),
                                  m * sizeof(std::int32_t)};
  std::uint64_t prev_end = sizeof(Header);
  for (int i = 0; i < 5; ++i) {
    check(offs[i] % kSectionAlign == 0, "misaligned section offset");
    check(offs[i] >= prev_end, "overlapping sections");
    check(offs[i] <= file_len && sizes[i] <= file_len - offs[i],
          "section extends past end of file");
    prev_end = offs[i] + sizes[i];
  }

  const auto offsets = c.offsets();
  const auto targets = c.targets();
  const auto ids = c.edge_ids();
  check(offsets.front() == 0 && offsets.back() == m,
        "CSR offsets do not cover the arc sections");
  for (std::uint64_t v = 0; v < n; ++v)
    check(offsets[v] <= offsets[v + 1], "CSR offsets not monotone");
  for (const std::int32_t t : targets)
    check(t >= 0 && static_cast<std::uint64_t>(t) < n,
          "arc target out of range");
  std::vector<bool> seen(m, false);
  for (const std::int32_t id : ids) {
    check(id >= 0 && static_cast<std::uint64_t>(id) < m &&
              !seen[static_cast<std::size_t>(id)],
          "ids section is not a permutation of edge ids");
    seen[static_cast<std::size_t>(id)] = true;
  }
  const auto costs = c.costs();
  const auto delays = c.delays();
  check(digest_of(h, offsets, targets, costs, delays, ids) == h.digest,
        "content digest mismatch (corrupted file?)");
  // The instance rule (Instance::validate's model), so that a container
  // write_file would refuse is a load error and not a failed solve later:
  // non-negative weights, and core::query_error on the stored query's
  // int64 fields, before the accessors narrow them.
  for (std::uint64_t e = 0; e < m; ++e)
    check(costs[e] >= 0 && delays[e] >= 0, "negative arc cost or delay");
  const std::string query =
      core::query_error(h.num_vertices, h.s, h.t, h.k, h.delay_bound);
  check(query.empty(), "invalid stored query: " + query);
  return c;
}

CsrContainer::CsrContainer(CsrContainer&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      header_(other.header_) {}

CsrContainer& CsrContainer::operator=(CsrContainer&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(const_cast<void*>(map_), map_len_);
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    header_ = other.header_;
  }
  return *this;
}

CsrContainer::~CsrContainer() {
  if (map_ != nullptr) ::munmap(const_cast<void*>(map_), map_len_);
}

std::span<const std::uint64_t> CsrContainer::offsets() const {
  return section_span<std::uint64_t>(
      map_, header_.off_offsets,
      static_cast<std::size_t>(header_.num_vertices) + 1);
}

std::span<const std::int32_t> CsrContainer::targets() const {
  return section_span<std::int32_t>(
      map_, header_.off_targets, static_cast<std::size_t>(header_.num_edges));
}

std::span<const graph::Cost> CsrContainer::costs() const {
  return section_span<graph::Cost>(
      map_, header_.off_costs, static_cast<std::size_t>(header_.num_edges));
}

std::span<const graph::Delay> CsrContainer::delays() const {
  return section_span<graph::Delay>(
      map_, header_.off_delays, static_cast<std::size_t>(header_.num_edges));
}

std::span<const std::int32_t> CsrContainer::edge_ids() const {
  return section_span<std::int32_t>(
      map_, header_.off_ids, static_cast<std::size_t>(header_.num_edges));
}

core::Instance CsrContainer::instance() const {
  const int n = num_vertices();
  const int m = num_edges();
  // Invert the CSR grouping so edge e gets back its original id: slot
  // order within the file is arbitrary, add_edge order defines ids.
  struct Rec {
    graph::VertexId from, to;
    graph::Cost cost;
    graph::Delay delay;
  };
  std::vector<Rec> by_id(m);
  const auto offsets_ = offsets();
  const auto targets_ = targets();
  const auto costs_ = costs();
  const auto delays_ = delays();
  const auto ids_ = edge_ids();
  for (graph::VertexId v = 0; v < n; ++v) {
    for (std::uint64_t a = offsets_[v]; a < offsets_[v + 1]; ++a) {
      by_id[static_cast<std::size_t>(ids_[a])] =
          Rec{v, targets_[a], costs_[a], delays_[a]};
    }
  }
  core::Instance inst;
  inst.graph.resize(n);
  for (const Rec& r : by_id)
    inst.graph.add_edge(r.from, r.to, r.cost, r.delay);
  inst.s = s();
  inst.t = t();
  inst.k = k();
  inst.delay_bound = delay_bound();
  return inst;
}

std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::uint64_t compute_digest(const Header& header,
                             std::span<const std::uint64_t> offsets,
                             std::span<const std::int32_t> targets,
                             std::span<const graph::Cost> costs,
                             std::span<const graph::Delay> delays,
                             std::span<const std::int32_t> ids) {
  return digest_of(header, offsets, targets, costs, delays, ids);
}

}  // namespace krsp::store
