#include "server/transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/request_parse.h"
#include "server/wire.h"
#include "store/container.h"

namespace krsp::server {

namespace {

/// Per-op request counter + handle-latency histogram, resolved once per
/// known op (unknown ops share the "other" slot so hostile op names
/// cannot grow the registry without bound).
struct WireOpMetrics {
  obs::Counter& requests;
  obs::Histogram& handle_ns;
};

WireOpMetrics& wire_op_metrics(const std::string& op) {
  static const auto make = [](const char* name) {
    const std::string labels = std::string("op=\"") + name + '"';
    return new WireOpMetrics{
        obs::Registry::global().counter("krsp_wire_requests_total", labels),
        obs::Registry::global().histogram("krsp_wire_handle_ns", labels)};
  };
  static WireOpMetrics* const solve = make("solve");
  static WireOpMetrics* const stats = make("stats");
  static WireOpMetrics* const metrics = make("metrics");
  static WireOpMetrics* const topologies = make("topologies");
  static WireOpMetrics* const topology = make("topology");
  static WireOpMetrics* const ping = make("ping");
  static WireOpMetrics* const shutdown = make("shutdown");
  static WireOpMetrics* const other = make("other");
  if (op == "solve") return *solve;
  if (op == "stats") return *stats;
  if (op == "metrics") return *metrics;
  if (op == "topologies") return *topologies;
  if (op == "topology") return *topology;
  if (op == "ping") return *ping;
  if (op == "shutdown") return *shutdown;
  return *other;
}

obs::Counter& transport_bytes_in() {
  static obs::Counter& c = obs::Registry::global().counter(
      "krsp_transport_bytes_total", "direction=\"in\"");
  return c;
}

obs::Counter& transport_bytes_out() {
  static obs::Counter& c = obs::Registry::global().counter(
      "krsp_transport_bytes_total", "direction=\"out\"");
  return c;
}

std::string error_line(const std::string& what, const std::string& id = "") {
  wire::ObjectWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("ok", false);
  w.field("error", what);
  return w.done();
}

// MSG_NOSIGNAL keeps a disconnected client from raising SIGPIPE (whose
// default action would kill the whole daemon); EPIPE just means the
// client is gone. EINTR retries the syscall. Returns 0 on success, else
// the errno of the failed send so the caller can tell a peer reset
// (ECONNRESET/EPIPE — routine) from anything unexpected.
int send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) return errno;
    if (w == 0) return EIO;  // send() contract: 0 only for empty payloads
    sent += static_cast<std::size_t>(w);
  }
  return 0;
}

// Ends a connection whose client may still be sending, after its last
// response: half-closes the write side, so the client reads what was sent
// and then EOF, and discards the client's input until it closes, 4 MiB
// have arrived or a second has passed. Closing with unread input would
// reset the connection instead (ECONNRESET on a Unix socket, RST over
// TCP), which can cost the client the response in flight; the bounds keep
// a client that never stops sending from holding the thread.
void discard_input(int fd) {
  constexpr std::size_t kMaxDiscardBytes = std::size_t{4} << 20;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  ::shutdown(fd, SHUT_WR);
  char chunk[4096];
  for (std::size_t discarded = 0; discarded < kMaxDiscardBytes;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          give_up - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) break;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: the client is done
    discarded += static_cast<std::size_t>(n);
  }
}

std::string paths_json(const core::PathSet& paths) {
  std::string out = "[";
  bool first_path = true;
  for (const auto& path : paths.paths()) {
    if (!first_path) out.push_back(',');
    first_path = false;
    out.push_back('[');
    bool first_edge = true;
    for (const auto e : path) {
      if (!first_edge) out.push_back(',');
      first_edge = false;
      out += std::to_string(e);
    }
    out.push_back(']');
  }
  out.push_back(']');
  return out;
}

std::string handle_solve(const wire::Value& req, SolveService& service,
                         const store::TopologyCatalog* catalog) {
  const std::string id = req.get_string("id");

  // Parsing lives in request_parse.{h,cc} so the router lowers requests
  // exactly the way this shard-side path does (error strings included).
  api::SolveRequest request;
  bool want_timing = false;
  std::string parse_error;
  if (!parse_solve_request(req, catalog, &request, &want_timing,
                           &parse_error))
    return error_line(parse_error, id);

  const ServeResponse r = service.serve(std::move(request));

  const auto timing_json = [&r] {
    wire::ObjectWriter t;
    t.field("cache_lookup_ms", r.cache_lookup_seconds * 1e3);
    t.field("admission_ms", r.admission_seconds * 1e3);
    t.field("queue_wait_ms", r.result.queue_wait_seconds * 1e3);
    t.field("solve_ms", r.result.telemetry.wall_seconds * 1e3);
    t.field("total_ms", r.total_seconds * 1e3);
    return t.done();
  };

  wire::ObjectWriter w;
  w.field("id", id);
  w.field("ok", true);
  w.field("served", r.served());
  w.field("sla", api::sla_class_name(r.sla));
  if (!r.served()) {
    w.field("reject", serve_status_name(r.status));
    w.field("total_ms", r.total_seconds * 1e3);
    if (want_timing) w.raw("timing", timing_json());
    return w.done();
  }
  w.field("cache_hit", r.cache_hit);
  if (r.degraded) w.field("degraded", true);
  w.field("status", api::status_name(r.result.status));
  if (r.result.has_paths()) {
    w.field("cost", static_cast<std::int64_t>(r.result.cost));
    w.field("delay", static_cast<std::int64_t>(r.result.delay));
    w.raw("paths", paths_json(r.result.paths));
  }
  w.field("degradation",
          core::degradation_step_name(r.result.degradation()));
  if (r.result.status == api::SolveStatus::kFailed)
    w.field("error", r.result.error);
  w.field("queue_ms", r.wait_seconds * 1e3);
  w.field("total_ms", r.total_seconds * 1e3);
  if (want_timing) w.raw("timing", timing_json());
  return w.done();
}

void class_stats_fields(wire::ObjectWriter& w, const char* prefix,
                        const api::SlaClassStats& cs) {
  const std::string p(prefix);
  w.field(p + "_admitted", cs.admitted);
  w.field(p + "_rejected_queue_full", cs.rejected_queue_full);
  w.field(p + "_rejected_deadline", cs.rejected_deadline);
  w.field(p + "_degraded", cs.degraded);
  w.field(p + "_pending", static_cast<std::uint64_t>(cs.pending));
  w.field(p + "_ewma_service_ms", cs.ewma_service_seconds * 1e3);
}

void topology_info_fields(wire::ObjectWriter& w,
                          const store::TopologyCatalog::Info& info) {
  w.field("id", info.id);
  w.field("n", static_cast<std::int64_t>(info.num_vertices));
  w.field("m", static_cast<std::int64_t>(info.num_edges));
  w.field("s", static_cast<std::int64_t>(info.s));
  w.field("t", static_cast<std::int64_t>(info.t));
  w.field("k", static_cast<std::int64_t>(info.k));
  w.field("delay_bound", static_cast<std::int64_t>(info.delay_bound));
  w.field("digest", store::hex_digest(info.digest));
  w.field("file_bytes", info.file_bytes);
}

std::string handle_topologies(const store::TopologyCatalog* catalog) {
  // No catalog behaves as an empty one: listing is a discovery op, so a
  // catalog-less server answers "nothing here" rather than erroring.
  const auto infos = catalog == nullptr
                         ? std::vector<store::TopologyCatalog::Info>{}
                         : catalog->list();
  wire::ObjectWriter w;
  w.field("ok", true);
  w.field("protocol_version", static_cast<std::int64_t>(kProtocolVersion));
  w.field("count", static_cast<std::int64_t>(infos.size()));
  std::string arr = "[";
  bool first = true;
  for (const auto& info : infos) {
    if (!first) arr.push_back(',');
    first = false;
    wire::ObjectWriter entry;
    topology_info_fields(entry, info);
    arr += entry.done();
  }
  arr.push_back(']');
  w.raw("topologies", arr);
  return w.done();
}

std::string handle_topology(const wire::Value& req,
                            const store::TopologyCatalog* catalog) {
  const std::string id = req.get_string("id");
  if (id.empty()) return error_line("topology op requires an \"id\" field");
  if (catalog != nullptr) {
    for (const auto& info : catalog->list()) {
      if (info.id != id) continue;
      wire::ObjectWriter w;
      w.field("ok", true);
      topology_info_fields(w, info);
      return w.done();
    }
  }
  return error_line("unknown topology: " + id);
}

std::string handle_metrics() {
  // The exposition travels as one JSON string field; ObjectWriter escapes
  // the newlines, so the framing stays one object per line.
  wire::ObjectWriter w;
  w.field("ok", true);
  w.field("protocol_version", static_cast<std::int64_t>(kProtocolVersion));
  w.field("metrics", obs::Registry::global().render_prometheus());
  return w.done();
}

}  // namespace

void Protocol::stats_fields(wire::ObjectWriter& w) const {
  const api::ServeStats s = service_.stats();
  w.field("protocol_version", static_cast<std::int64_t>(kProtocolVersion));
  // Adoption counters by request wire form (v1 inline instance vs v2
  // topology reference) — additive fields, safe for v1 stats readers.
  w.field("solves_v1", solves_v1_.load(std::memory_order_relaxed));
  w.field("solves_v2", solves_v2_.load(std::memory_order_relaxed));
  w.field("received", s.received);
  w.field("served", s.served);
  w.field("rejected_queue_full", s.rejected_queue_full);
  w.field("rejected_deadline", s.rejected_deadline);
  w.field("rejected_draining", s.rejected_draining);
  w.field("cache_hits", s.cache_hits);
  w.field("cache_misses", s.cache_misses);
  w.field("cache_insertions", s.cache_insertions);
  w.field("cache_evictions", s.cache_evictions);
  w.field("cache_entries", static_cast<std::uint64_t>(s.cache_entries));
  std::string shard_arr = "[";
  for (std::size_t i = 0; i < s.cache_shard_entries.size(); ++i) {
    if (i != 0) shard_arr.push_back(',');
    shard_arr += std::to_string(s.cache_shard_entries[i]);
  }
  shard_arr.push_back(']');
  w.raw("cache_shard_entries", shard_arr);
  w.field("pending", static_cast<std::uint64_t>(s.pending));
  w.field("peak_pending", static_cast<std::uint64_t>(s.peak_pending));
  w.field("ewma_service_ms", s.ewma_service_seconds * 1e3);
  class_stats_fields(w, "interactive", s.interactive);
  class_stats_fields(w, "batch", s.batch);
  w.field("threads", static_cast<std::int64_t>(service_.num_threads()));
}

std::string Protocol::handle_line(const std::string& line) {
  KRSP_OBS_SPAN("wire_handle");
  const auto t0 = std::chrono::steady_clock::now();
  std::string parse_error;
  const auto req = wire::parse(line, &parse_error);
  if (!req.has_value()) return error_line("bad json: " + parse_error);
  if (req->type != wire::Value::Type::kObject)
    return error_line("request must be a json object");

  const std::string op = req->get_string("op", "solve");
  WireOpMetrics& m = wire_op_metrics(op);
  m.requests.inc();
  std::string resp;
  if (op == "solve") {
    // Wire-form adoption counter: the "topology" key is the v2 marker
    // (handle_solve applies the same rule), counted request-side so a
    // malformed v2 attempt still shows up as v2 traffic.
    auto& form = req->find("topology") != nullptr ? solves_v2_ : solves_v1_;
    form.fetch_add(1, std::memory_order_relaxed);
    resp = handle_solve(*req, service_, catalog_);
  } else if (op == "stats") {
    wire::ObjectWriter w;
    w.field("ok", true);
    stats_fields(w);
    resp = w.done();
  } else if (op == "metrics") {
    resp = handle_metrics();
  } else if (op == "topologies") {
    resp = handle_topologies(catalog_);
  } else if (op == "topology") {
    resp = handle_topology(*req, catalog_);
  } else if (op == "ping") {
    resp = wire::ObjectWriter().field("ok", true).field("pong", true).done();
  } else if (op == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    resp = wire::ObjectWriter()
               .field("ok", true)
               .field("draining", true)
               .done();
  } else {
    resp = error_line("unknown op: " + op);
  }
  m.handle_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return resp;
}

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    if (!tcp()) ::unlink(endpoint_.path.c_str());
  }
}

bool SocketServer::start(std::string* error) {
  const std::string& path = endpoint_.path;
  const auto fail = [&](std::string what) {
    if (error != nullptr) *error = std::move(what);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };

  union {
    sockaddr_in in;
    sockaddr_un un;
  } addr{};
  socklen_t addr_len = 0;
  if (tcp()) {
    if (!endpoint_.host.empty())
      return fail("a TCP listen endpoint takes no host (it listens on every "
                  "interface): " + endpoint_.describe());
    addr.in.sin_family = AF_INET;
    addr.in.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.in.sin_port = htons(endpoint_.port);
    addr_len = sizeof addr.in;
  } else {
    if (path.size() >= sizeof addr.un.sun_path)
      return fail("socket path too long (" + std::to_string(path.size()) +
                  " >= " + std::to_string(sizeof addr.un.sun_path) +
                  "): " + path);
    addr.un.sun_family = AF_UNIX;
    std::memcpy(addr.un.sun_path, path.c_str(), path.size() + 1);
    addr_len = sizeof addr.un;
  }

  listen_fd_ = ::socket(tcp() ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return fail(std::string("socket(): ") + std::strerror(errno));
  if (tcp()) {
    // SO_REUSEADDR: a restarted daemon must rebind its port without
    // waiting out the previous incarnation's TIME_WAIT connections.
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);
  } else {
    ::unlink(path.c_str());  // stale socket from a previous run
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             addr_len) != 0)
    return fail("bind(" +
                (tcp() ? "tcp port " + std::to_string(endpoint_.port) : path) +
                "): " + std::strerror(errno));
  if (::listen(listen_fd_, 64) != 0) {
    std::string what = std::string("listen(): ") + std::strerror(errno);
    if (!tcp()) ::unlink(path.c_str());
    return fail(std::move(what));
  }
  if (tcp()) {
    // Resolve the bound port: with port 0 the kernel picked an ephemeral
    // one, and callers (tests, fleet_smoke.sh) need to learn it.
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0)
      return fail(std::string("getsockname(): ") + std::strerror(errno));
    bound_port_ = ntohs(bound.sin_port);
  }
  return true;
}

bool SocketServer::stopping() const {
  return stop_.load(std::memory_order_acquire) ||
         handler_.shutdown_requested();
}

void SocketServer::serve_forever() {
  KRSP_CHECK_MSG(listen_fd_ >= 0, "SocketServer::start() must succeed first");
  while (!stopping()) {
    // Poll with a timeout so a shutdown op handled on a connection thread
    // breaks the accept loop promptly.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (tcp()) {
      // One request line → one response line: always worth flushing
      // immediately rather than letting Nagle batch against the ACK clock.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    // Reap threads whose connections have closed so a long-running server
    // with many short-lived clients holds O(live connections) handles,
    // and enforce the concurrency cap on what remains.
    if (reap_finished() >= kMaxConnections) {
      (void)note_send(
          send_all(fd, error_line("server at connection capacity") + "\n"));
      ::close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
  // Graceful drain: connections finish the lines they are serving; their
  // read loops notice the stop flag on the next poll tick and exit.
  std::list<std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lock(threads_mu_);
    to_join.swap(threads_);
    finished_ids_.clear();
  }
  for (auto& t : to_join) t.join();
}

std::size_t SocketServer::reap_finished() {
  std::list<std::thread> done;
  std::size_t live;
  {
    const std::lock_guard<std::mutex> lock(threads_mu_);
    for (const auto id : finished_ids_) {
      for (auto it = threads_.begin(); it != threads_.end(); ++it) {
        if (it->get_id() == id) {
          done.splice(done.end(), threads_, it);
          break;
        }
      }
    }
    finished_ids_.clear();
    live = threads_.size();
  }
  // Join outside the lock: these threads have already announced
  // completion, so each join only waits out the final return.
  for (auto& t : done) t.join();
  return live;
}

void SocketServer::request_stop() {
  stop_.store(true, std::memory_order_release);
}

int SocketServer::note_send(int err) {
  if (err == 0) return 0;
  // A peer that resets or stops reading mid-response is routine for a
  // chaos client (and for real networks); anything else is surfaced as
  // the last unexpected errno for the operator to inspect.
  if (err == EPIPE || err == ECONNRESET) {
    peer_resets_.fetch_add(1, std::memory_order_relaxed);
  } else {
    send_failures_.fetch_add(1, std::memory_order_relaxed);
    last_send_errno_.store(err, std::memory_order_relaxed);
  }
  return err;
}

void SocketServer::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    // A stopping server finishes buffered lines but stops waiting for
    // slow clients, so one idle connection cannot wedge the drain.
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) {
      if (stopping()) break;
      continue;
    }
    ssize_t n;
    int read_errno = 0;
    {
      KRSP_OBS_SPAN("transport_read");
      n = ::read(fd, chunk, sizeof chunk);
      if (n < 0) read_errno = errno;  // before the span dtor can clobber it
    }
    if (n < 0 && read_errno == EINTR) continue;  // signal, not a dead client
    if (n <= 0) break;  // EOF or error: client is gone
    transport_bytes_in().inc(static_cast<std::uint64_t>(n));
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    bool client_gone = false;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = handler_.handle_line(line) + "\n";
      int send_err;
      {
        KRSP_OBS_SPAN("transport_write");
        send_err = send_all(fd, response);
      }
      if (send_err == 0)
        transport_bytes_out().inc(response.size());
      if (note_send(send_err) != 0) {
        client_gone = true;  // client stopped reading
        break;
      }
    }
    buffer.erase(0, start);
    if (client_gone) break;
    // Bound the partial-line buffer: a client streaming bytes with no
    // newline must not grow server memory without limit.
    if (buffer.size() > kMaxLineBytes) {
      (void)note_send(send_all(
          fd, error_line("request line exceeds " +
                         std::to_string(kMaxLineBytes) + " bytes") +
                  "\n"));
      discard_input(fd);
      break;
    }
  }
  ::close(fd);
  const std::lock_guard<std::mutex> lock(threads_mu_);
  finished_ids_.push_back(std::this_thread::get_id());
}

}  // namespace krsp::server
