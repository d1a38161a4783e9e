// Transport front-ends for the solve service.
//
// Framing: newline-delimited JSON, one object per line in each direction.
// The protocol logic (parse request → SolveService::serve → serialize
// response) lives in Protocol, which is transport-agnostic: tests call
// its handle_line directly (no sockets, no threads), and krsp_serve
// hands it to SocketServer, a stream-socket listener (Unix domain or
// TCP — same wire bytes either way) with one thread per connection.
// krsp_router hands SocketServer its own LineHandler to front a fleet of
// shards.
//
// Request ops (field "op", default "solve"):
//   {"op":"solve","id":"tag","instance":"<.kri text>","mode":"scaled",
//    "eps1":0.25,"eps2":0.25,"guess":"binary","deadline":0.1}
//   {"op":"solve","id":"tag","topology":"grid64","mode":"scaled",...}
//                      → protocol v2: graph by catalog id (see below)
//   {"op":"stats"}     → serving counters (api::ServeStats; krsp_serve's
//                        final_stats line carries the same fields)
//   {"op":"metrics"}   → Prometheus-style text exposition (obs registry:
//                        per-class latency quantiles, per-op wire
//                        counters) in a "metrics" string field; v2 only —
//                        v1 servers answer the structured unknown-op error
//   {"op":"topologies"}→ catalog listing (id, n, m, default query, digest)
//   {"op":"topology","id":"grid64"} → stat one catalog entry
//   {"op":"ping"}      → liveness probe
//   {"op":"shutdown"}  → ack, then the server begins its graceful drain
//
// A solve request may set "timing":true to receive a per-request
// breakdown object in the response: {"timing":{"cache_lookup_ms":..,
// "admission_ms":..,"queue_wait_ms":..,"solve_ms":..,"total_ms":..}}.
// Off by default so the standard response shape is unchanged.
//
// Protocol versioning (docs/API.md "Wire protocol v2"): a solve request
// with a "topology" key is v2 — the graph is looked up in the server's
// TopologyCatalog instead of being shipped inline, and optional
// "s"/"t"/"k"/"delay_bound" fields override the topology's stored
// default query. A request without the key is v1 inline, accepted
// forever and answered byte-identically to before. An unknown topology
// id (or a v2 request against a server with no catalog) yields a
// structured {"ok":false,"error":...} response — never a close.
//
// Solve responses echo "id" and carry either the result
//   {"id":..,"ok":true,"served":true,"cache_hit":false,"status":"approx",
//    "cost":12,"delay":9,"paths":[[0,3],[2,5]],"degradation":"none",
//    "queue_ms":0.1,"total_ms":2.3}
// or an admission rejection ("served":false,"reject":"queue-full"), or —
// for malformed input — {"ok":false,"error":"..."}; the connection always
// gets exactly one response line per request line. Solve responses are
// identical across v1 and v2 on purpose (no version marker), so clients
// can switch forms without re-validating their response handling;
// "protocol_version" appears in stats/topologies responses and in
// krsp_serve's final_stats line instead.
//
// The "instance" payload is the library's own .kri text format
// (core/io.h) embedded as a JSON string: one serializer for files, tools
// and the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/fault.h"
#include "server/service.h"
#include "server/wire.h"
#include "store/catalog.h"

namespace krsp::server {

/// Wire protocol version this build speaks (reported in stats,
/// topologies, and krsp_serve final_stats). v2 added the topology-id
/// request surface; v1 inline requests remain accepted indefinitely.
inline constexpr int kProtocolVersion = 2;

/// One newline-framed request line in, one response line out — the
/// contract SocketServer drives.
/// Protocol implements it over a SolveService; krsp::router::Router
/// implements it by forwarding to a shard fleet. Implementations must be
/// thread-safe: transports call handle_line concurrently from any number
/// of connection threads.
class LineHandler {
 public:
  virtual ~LineHandler() = default;

  /// Handles one request line, returns one response line (no trailing
  /// newline). Malformed input yields an ok:false response, never a
  /// throw.
  [[nodiscard]] virtual std::string handle_line(const std::string& line) = 0;

  /// True once a "shutdown" op has been accepted; the transport owns the
  /// actual drain so in-flight connections finish first.
  [[nodiscard]] virtual bool shutdown_requested() const = 0;
};

/// Transport-agnostic request/response logic. Thread-safe: handle_line
/// may be called concurrently from any number of transport threads.
/// `catalog` (optional, unowned, must outlive the protocol) enables the
/// v2 topology ops; without one, v2 solve requests get a structured
/// error and `topologies` lists nothing.
class Protocol final : public LineHandler {
 public:
  explicit Protocol(SolveService& service,
                    const store::TopologyCatalog* catalog = nullptr)
      : service_(service), catalog_(catalog) {}

  [[nodiscard]] std::string handle_line(const std::string& line) override;

  [[nodiscard]] bool shutdown_requested() const override {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Writes the stats op's fields into `w` (everything after "ok"):
  /// protocol version, solves per wire form, the service's counters and
  /// gauges, worker threads. krsp_serve's final_stats line writes the
  /// same fields, so the two cannot drift apart.
  void stats_fields(wire::ObjectWriter& w) const;

 private:
  SolveService& service_;
  const store::TopologyCatalog* catalog_;
  std::atomic<bool> shutdown_{false};
  // Solve requests per wire form: v1 carried an inline "instance", v2 a
  // "topology" reference, so a fleet rollout can verify v2 adoption shard
  // by shard.
  std::atomic<std::uint64_t> solves_v1_{0};
  std::atomic<std::uint64_t> solves_v2_{0};
};

/// Stream-socket server: accept loop + one thread per connection, over
/// either a Unix domain socket or TCP (the fleet transport —
/// SO_REUSEADDR, TCP_NODELAY on accepted connections, port 0 binds an
/// ephemeral port reported by bound_port(); a TCP endpoint listens on
/// every interface, so its host must be empty).
/// The wire is byte-identical across both: newline-framed JSON with the
/// same EINTR/MSG_NOSIGNAL hardening. serve_forever() returns after a
/// shutdown op (or request_stop), once every connection has closed; the
/// caller then drains the service.
///
/// The request logic is any LineHandler, owned by the caller and alive
/// until serve_forever() returns: a Protocol over a SolveService
/// (krsp_serve), or a Router fronting a shard fleet (krsp_router).
///
/// Robustness contract for a long-running daemon: responses are written
/// with MSG_NOSIGNAL so a client that disconnects mid-response yields
/// EPIPE (connection closed) instead of SIGPIPE (process killed);
/// request lines are capped at kMaxLineBytes (overflow gets one error
/// response, then the connection is half-closed and closes once the
/// client stops sending, after at most 4 MiB or a second more, so the
/// client reads the error and then EOF, not a reset); finished
/// connection threads are reaped on every accept, and concurrent
/// connections are capped at kMaxConnections (excess connections get one
/// error response).
class SocketServer {
 public:
  /// Longest accepted request line; a buffered partial line beyond this
  /// is answered with an error and the connection is closed.
  static constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;
  /// Cap on simultaneously-open connections (== connection threads).
  static constexpr std::size_t kMaxConnections = 256;

  SocketServer(LineHandler& handler, Endpoint endpoint)
      : handler_(handler), endpoint_(std::move(endpoint)) {}
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens. False (with *error set) on failure — path too
  /// long, bind refused, etc.
  [[nodiscard]] bool start(std::string* error);

  /// TCP mode only: the port actually bound (== the requested port, or
  /// the kernel-assigned one when the endpoint's port is 0). Valid after
  /// start(); 0 in Unix-socket mode.
  [[nodiscard]] std::uint16_t bound_port() const { return bound_port_; }

  /// Accept/serve until shutdown; joins all connection threads, unlinks
  /// the socket path. Call start() first.
  void serve_forever();

  /// Asynchronous stop trigger (signal handlers, tests).
  void request_stop();

  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Response sends that failed with EPIPE/ECONNRESET — the peer went
  /// away mid-response. Routine under chaos; never fatal.
  [[nodiscard]] std::uint64_t peer_resets() const {
    return peer_resets_.load(std::memory_order_relaxed);
  }
  /// Response sends that failed with any *other* errno (see
  /// last_send_errno for which) — worth an operator's attention.
  [[nodiscard]] std::uint64_t send_failures() const {
    return send_failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int last_send_errno() const {
    return last_send_errno_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool tcp() const {
    return endpoint_.kind == Endpoint::Kind::kTcp;
  }
  void connection_loop(int fd);
  [[nodiscard]] bool stopping() const;
  /// Classifies a send_all() result into the reset/failure counters;
  /// returns the errno unchanged (0 = success).
  int note_send(int err);
  /// Joins connection threads that have announced completion; returns the
  /// number of threads still live afterwards (the concurrency gauge).
  std::size_t reap_finished();

  LineHandler& handler_;
  const Endpoint endpoint_;
  std::uint16_t bound_port_ = 0;  // resolved by start() in TCP mode
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> peer_resets_{0};
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<int> last_send_errno_{0};
  std::mutex threads_mu_;
  std::list<std::thread> threads_;
  std::vector<std::thread::id> finished_ids_;
};

}  // namespace krsp::server
