// Zero-copy access to one `.krspb` instance container (store/format.h).
//
// CsrContainer::open maps the file read-only and validates it — magic,
// version, endianness, vertex and edge counts against the file size,
// section bounds and alignment, CSR monotonicity, target ranges, edge-id
// permutation, the content digest, and then the instance rule itself
// (non-negative weights, core::query_error on the stored query) — without
// parsing a single edge from text. instance() then materializes a
// core::Instance in one linear pass over the mapped sections, with edge
// ids restored to their original numbering; it owns its memory and
// outlives the container. The raw
// section spans borrow the mapping and stay private to the container.
// The store tests run under ASan/UBSan precisely because mmap lifetime
// and alignment bugs are what sanitizers catch.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/instance.h"
#include "store/format.h"

namespace krsp::store {

class CsrContainer {
 public:
  /// Serializes `inst` into a fresh container at `path` (overwrites).
  /// Arcs are grouped by tail vertex with original edge ids preserved in
  /// the ids section; the digest is computed over the exact bytes
  /// written, so write_file → open round-trips bit-for-bit. Throws
  /// util::CheckError on I/O failure or an invalid instance.
  static void write_file(const std::string& path, const core::Instance& inst);

  /// Opens and maps `path` read-only, validating the full format
  /// contract and the instance rule. Throws util::CheckError naming the
  /// file and the first violated invariant (bad magic, truncation, digest
  /// mismatch, negative arc cost or delay, invalid stored query: k = 0,
  /// ...); a malformed file is a load error, never undefined behavior or
  /// a failed solve later, and instance() always passes
  /// Instance::validate.
  static CsrContainer open(const std::string& path);

  CsrContainer(CsrContainer&& other) noexcept;
  CsrContainer& operator=(CsrContainer&& other) noexcept;
  CsrContainer(const CsrContainer&) = delete;
  CsrContainer& operator=(const CsrContainer&) = delete;
  ~CsrContainer();

  [[nodiscard]] int num_vertices() const {
    return static_cast<int>(header_.num_vertices);
  }
  [[nodiscard]] int num_edges() const {
    return static_cast<int>(header_.num_edges);
  }
  [[nodiscard]] graph::VertexId s() const {
    return static_cast<graph::VertexId>(header_.s);
  }
  [[nodiscard]] graph::VertexId t() const {
    return static_cast<graph::VertexId>(header_.t);
  }
  [[nodiscard]] int k() const { return static_cast<int>(header_.k); }
  [[nodiscard]] graph::Delay delay_bound() const {
    return header_.delay_bound;
  }
  [[nodiscard]] std::uint64_t digest() const { return header_.digest; }
  [[nodiscard]] std::uint64_t file_bytes() const {
    return header_.file_bytes;
  }

  /// Materializes the instance: a Digraph with edges restored to their
  /// original id order, plus the stored default query. O(n + m), owns
  /// its memory, outlives the container.
  [[nodiscard]] core::Instance instance() const;

 private:
  CsrContainer() = default;

  // Raw mapped sections (valid while the container lives).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const;
  [[nodiscard]] std::span<const std::int32_t> targets() const;
  [[nodiscard]] std::span<const graph::Cost> costs() const;
  [[nodiscard]] std::span<const graph::Delay> delays() const;
  [[nodiscard]] std::span<const std::int32_t> edge_ids() const;

  const void* map_ = nullptr;
  std::size_t map_len_ = 0;
  Header header_;
};

/// A digest as 16 lowercase hex digits, the form `krsp_pack` and the
/// `topologies`/`topology` wire ops print: JSON numbers round-trip exactly
/// only through int64, so a u64 digest travels as a string.
[[nodiscard]] std::string hex_digest(std::uint64_t digest);

/// Digest over the header's query fields and all section words, exactly
/// as write_file computes it; exposed so tests can confirm corruption
/// detection and tools can print/verify digests.
[[nodiscard]] std::uint64_t compute_digest(
    const Header& header, std::span<const std::uint64_t> offsets,
    std::span<const std::int32_t> targets, std::span<const graph::Cost> costs,
    std::span<const graph::Delay> delays, std::span<const std::int32_t> ids);

}  // namespace krsp::store
