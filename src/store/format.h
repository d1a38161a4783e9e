// On-disk layout of the `.krspb` zero-copy instance container.
//
// A `.krspb` file is one kRSP instance in a fixed, mmap-able binary
// layout: a 128-byte header followed by five 64-byte-aligned sections
// holding the graph in compressed-sparse-row form. Loading is
// open + mmap + validate — no per-edge parsing — and one linear pass over
// the mapped sections materializes the instance (store::CsrContainer);
// the text `.kri` format (core/io.h) remains the human-readable
// interchange form, converted by `krsp_pack`.
//
//   header   (128 bytes, little-endian, see Header)
//   offsets  (n+1) x u64   CSR row starts into the arc sections
//   targets  m x i32       head vertex per arc, grouped by tail
//   costs    m x i64
//   delays   m x i64
//   ids      m x i32       original edge id per CSR slot (a permutation
//                          of [0, m): edge ids are part of the solve
//                          contract — responses name paths by edge id —
//                          so repacking must not renumber them)
//
// Every section offset is 64-byte aligned so mapped pointers satisfy any
// scalar alignment (and a cache line holds whole records). The header
// carries a splitmix64 content digest over the query fields and all
// section words; open() recomputes and rejects mismatches, so a bit flip
// in storage is a load error, never a silently-wrong solve.
#pragma once

#include <cstdint>
#include <type_traits>

namespace krsp::store {

/// First 8 bytes of every container. The 0x89 prefix and embedded \r\n
/// follow the PNG convention: a file that survived an accidental text-mode
/// or 7-bit transfer no longer matches.
inline constexpr std::uint64_t kMagic = 0x0a0d4250'53524b89ull;  // "\x89KRSPB\r\n"

/// Bumped on any layout change. Readers reject other versions outright;
/// there is no in-place migration (repack with krsp_pack instead).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Written as the literal 0x01020304 by a little-endian writer; a reader
/// on the opposite endianness sees 0x04030201 and rejects the file
/// instead of reinterpreting every word.
inline constexpr std::uint32_t kEndianTag = 0x01020304;

/// Alignment of every section start, in bytes.
inline constexpr std::uint64_t kSectionAlign = 64;

/// Fixed-size file header. Serialized by memcpy — the struct is all
/// fixed-width scalars, explicitly padded to 128 bytes, and
/// static_asserted trivially copyable.
struct Header {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t endian = kEndianTag;
  std::int64_t num_vertices = 0;
  std::int64_t num_edges = 0;
  // Stored default query (the `q` line of the .kri form). Requests that
  // reference the topology by id inherit these unless they override.
  std::int64_t s = -1;
  std::int64_t t = -1;
  std::int64_t k = 1;
  std::int64_t delay_bound = 0;
  /// splitmix64 digest over (version, n, m, s, t, k, delay_bound) and
  /// every word of every section, in file order.
  std::uint64_t digest = 0;
  /// Total file size in bytes; open() cross-checks against the real file
  /// so truncation is detected before any section is dereferenced.
  std::uint64_t file_bytes = 0;
  // Byte offsets of the five sections, each kSectionAlign-aligned.
  std::uint64_t off_offsets = 0;
  std::uint64_t off_targets = 0;
  std::uint64_t off_costs = 0;
  std::uint64_t off_delays = 0;
  std::uint64_t off_ids = 0;
  std::uint8_t reserved[8] = {};
};

static_assert(sizeof(Header) == 128, "Header layout is part of the format");
static_assert(std::is_trivially_copyable_v<Header>,
              "Header is serialized by memcpy");

/// splitmix64 accumulator used for the content digest (same construction
/// as the result cache's second fingerprint hash: cheap, well-mixed, and
/// dependency-free).
struct DigestAccumulator {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  void mix(std::uint64_t x) {
    h += x + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
};

}  // namespace krsp::store
