// Sharded LRU cache of solve results, keyed by a full request fingerprint.
//
// The engine's per-worker McfWorkspace already reuses the MCMF arc
// structure across solves on one graph *topology* (checked arc by arc);
// the result cache extends that idea to the whole request: topology PLUS
// edge weights (costs and delays) PLUS the query parameters (s, t, k, D,
// mode, eps1/eps2, guess strategy), keyed by a fingerprint. Two requests
// with the same fingerprint are the same deterministic computation, so
// serving the cached SolveResult is bit-identical to re-solving — the
// property server_test checks with randomized cost/delay mutations (must
// miss) vs pure re-queries (must hit).
//
// Deadline-bounded requests are never cached by the service: they are
// anytime by design, so their results are not a pure function of the
// request.
//
// Sharding: key-partitioned shards, each with its own mutex, hash map and
// intrusive LRU list, so concurrent connection threads don't serialize on
// one cache lock. Capacity is split evenly across shards; eviction is
// per-shard LRU (a global LRU would need a global lock).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/krsp.h"

namespace krsp::server {

/// 64-bit FNV-1a over everything that determines a (deadline-free) solve:
/// graph shape, edge endpoints and weights, terminals, k, delay bound,
/// mode, guess strategy, and the exact eps1/eps2 bit patterns. The tag is
/// deliberately excluded (it is echoed metadata, not an input) and so is
/// deadline_seconds (deadline-bounded requests bypass the cache).
///
/// Compatibility wrapper over api::request_fingerprints (the hashing
/// moved to api/fingerprint.h so the topology catalog can precompute
/// graph prefixes); prefer that entry point, which produces both hashes
/// in one pass. Requests carrying a TopologyRef fingerprint in O(1).
[[nodiscard]] std::uint64_t request_fingerprint(
    const api::SolveRequest& request);

/// Independent second hash (splitmix64 accumulator) over the same inputs.
/// Stored alongside each cache entry and re-checked on lookup, so a
/// primary-key collision between distinct requests reads as a miss
/// instead of silently serving the wrong result — a colliding pair would
/// have to collide under both hash functions at once. Same compatibility
/// note as request_fingerprint.
[[nodiscard]] std::uint64_t request_fingerprint2(
    const api::SolveRequest& request);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  // gauge
};

class ResultCache {
 public:
  /// `capacity` bounds total entries across shards (0 = cache disabled:
  /// every lookup misses, every insert is dropped). `shards` is clamped
  /// to [1, capacity] so each shard holds at least one entry.
  explicit ResultCache(std::size_t capacity, int shards = 8);

  /// Returns a copy of the cached result and refreshes its LRU position;
  /// a key hit whose stored verify hash differs is a miss (collision).
  /// The stored tag is empty; callers re-stamp the requester's tag.
  [[nodiscard]] std::optional<api::SolveResult> lookup(std::uint64_t key,
                                                       std::uint64_t verify);

  /// Inserts (or refreshes) a result, evicting the shard's LRU tail when
  /// over budget. `verify` is request_fingerprint2 of the same request.
  /// The caller should clear the tag first so cache contents are
  /// request-independent.
  void insert(std::uint64_t key, std::uint64_t verify,
              api::SolveResult result);

  [[nodiscard]] CacheStats stats() const;  // aggregated over shards
  /// Live entry count per shard (index = shard id): the occupancy spread
  /// behind the aggregate `entries` gauge.
  [[nodiscard]] std::vector<std::size_t> shard_entries() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t key;
    std::uint64_t verify;  // request_fingerprint2, checked on lookup
    api::SolveResult result;
  };

  struct Shard {
    std::mutex mu;
    // Front = most recently used. The map stores list iterators, stable
    // under splice.
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    CacheStats stats;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t key);

  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace krsp::server
