// Load generator: replays a request stream against krsp_serve over its Unix
// socket and records every exchange.
//
//   perfbench_drive --socket=PATH --pool=FILE --sequence=FILE --out=FILE
//                   --loop=closed|open --connections=N --seconds=T
//                   --warmup=W [--server-pid=PID]
//
// --pool holds one request line per line (the distinct request texts).
// --sequence holds one "<pool-index> <gap-us>" pair per line: the stream
// order, and in open loop the Poisson gap (>= 1 us) after each arrival.
// The stream wraps when it runs out. All connections live on one thread,
// driven by ppoll, and each carries at most one request at a time.
//
//   closed loop: every connection sends its next request as soon as the
//     previous response arrives.
//   open loop:   requests arrive on the schedule whatever is in flight and
//     wait in a client-side FIFO for the first idle connection, like a
//     connection pool. (Pipelining instead would queue a cache hit behind
//     a slow miss inside the server, which answers each connection in
//     order.)
//
// Each request records when it was due (the schedule time in open loop,
// the previous response's arrival in closed loop), when the generator took
// it up, when it was written to a connection, and when its response
// arrived. Taken-up minus due is the generator's own lateness. Phases:
// warm-up for W seconds, drain, then a `stats` exchange and the server's
// CPU counters, the timed phase of T seconds, drain, CPU and `stats` again.
//
// The generator asks for SCHED_FIFO priority: it sleeps in ppoll nearly
// all the time, but when the daemon keeps every core busy an
// ordinary-priority generator wakes milliseconds late, and open-loop
// lateness would then be the client's, not the server's. Without the
// privilege it runs at normal priority and says so in the header
// ("realtime":false).
//
// --out receives one JSON header line, then per request
//   <phase> <pool-index> <due-ns> <taken-ns> <send-ns> <recv-ns>\t<response>
// with times relative to the generator's start (the header's t0_ns marks
// the timed phase); send-ns and recv-ns are -1, and the response empty,
// when the transport failed.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Record {
  int phase = 0;  // 0 = warm-up, 1 = timed
  int index = 0;
  std::int64_t due = 0, taken = 0, send = -1, recv = -1;
  std::string response;
};

struct Conn {
  int fd = -1;
  std::size_t in_flight = 0;  // record index + 1; 0 = idle
  std::string buffer;         // received, not yet a whole line
  std::string out;            // request bytes not yet written
  std::size_t out_pos = 0;
};

void set_blocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, blocking ? flags & ~O_NONBLOCK : flags | O_NONBLOCK);
}

int dial(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// utime + stime of a process, in clock ticks; -1 if unreadable.
long long cpu_ticks(long pid) {
  if (pid <= 0) return -1;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const auto close_paren = content.rfind(')');
  if (close_paren == std::string::npos) return -1;
  std::istringstream fields(content.substr(close_paren + 2));
  std::string field;
  long long ticks = 0;
  // Field 3 (state) follows the command name; utime and stime are 14, 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i)
    if (i >= 14) ticks += std::stoll(field);
  return ticks;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

class LoadGen {
 public:
  LoadGen(std::vector<std::string> pool, std::vector<std::pair<int, int>> seq,
          bool open_loop)
      : pool_(std::move(pool)), seq_(std::move(seq)), open_loop_(open_loop) {}
  ~LoadGen() {
    for (auto& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool connect(const std::string& path, int n) {
    for (int i = 0; i < n; ++i) {
      Conn c;
      c.fd = dial(path);
      if (c.fd < 0) return false;
      // Never block on a write: a blocked write stops the reads the server
      // may be waiting on before it takes more of our bytes.
      set_blocking(c.fd, false);
      conns_.push_back(std::move(c));
    }
    return true;
  }

  // Runs one phase for `seconds`, then drains everything outstanding.
  void run_phase(int phase, double seconds) {
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t next_due = start;
    if (!open_loop_)
      for (std::size_t c = 0; c < conns_.size(); ++c)
        waiting_.push_back(take(phase, start));
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      std::int64_t now = now_ns();
      while (open_loop_ && next_due <= now && next_due < end) {
        waiting_.push_back(take(phase, next_due));
        next_due += static_cast<std::int64_t>(seq_[cursor_].second) * 1000;
      }
      dispatch();
      now = now_ns();
      const bool arriving = now < end;
      bool busy = !waiting_.empty();
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        fds[c].fd = conns_[c].fd;
        fds[c].events = static_cast<short>(
            POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
        fds[c].revents = 0;
        busy = busy || conns_[c].in_flight != 0;
      }
      if (!arriving && !busy) break;
      if (live_connections() == 0) {
        waiting_.clear();  // nowhere to send them; their recv stays -1
        break;
      }
      // Sleep until the next arrival, waking 50 us early to keep the
      // schedule to a few microseconds.
      std::int64_t wait_ns = 20'000'000;
      if (open_loop_ && arriving)
        wait_ns = std::max<std::int64_t>(0, next_due - now - 50'000);
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) break;
      for (std::size_t c = 0; ready > 0 && c < conns_.size(); ++c) {
        if ((fds[c].revents & POLLOUT) != 0) flush(c);
        if ((fds[c].revents & ~POLLOUT) != 0 && conns_[c].fd >= 0)
          receive(phase, c, arriving);
      }
    }
  }

  // Blocking `stats` exchange on the first live connection; call between
  // phases, when nothing is in flight.
  std::string stats() {
    for (auto& c : conns_) {
      if (c.fd < 0) continue;
      set_blocking(c.fd, true);
      std::string line;
      const std::string request = "{\"op\":\"stats\"}\n";
      if (::send(c.fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
        char buf[65536];
        while (c.buffer.find('\n') == std::string::npos) {
          const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
          if (r < 0 && errno == EINTR) continue;
          if (r <= 0) break;
          c.buffer.append(buf, static_cast<std::size_t>(r));
        }
        const auto nl = c.buffer.find('\n');
        if (nl != std::string::npos) {
          line = c.buffer.substr(0, nl);
          c.buffer.erase(0, nl + 1);
        }
      }
      set_blocking(c.fd, false);
      return line;
    }
    return "";
  }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::int64_t last_recv() const { return last_recv_; }

 private:
  std::size_t live_connections() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c.fd >= 0 ? 1 : 0;
    return n;
  }

  // Creates the record of the stream's next request, due at `due`.
  std::size_t take(int phase, std::int64_t due) {
    cursor_ = next_++ % seq_.size();
    Record rec;
    rec.phase = phase;
    rec.index = seq_[cursor_].first;
    rec.due = due;
    rec.taken = now_ns();
    records_.push_back(std::move(rec));
    return records_.size() - 1;
  }

  // Hands waiting requests to idle connections, oldest first.
  void dispatch() {
    for (std::size_t c = 0; c < conns_.size() && !waiting_.empty(); ++c) {
      Conn& conn = conns_[c];
      if (conn.fd < 0 || conn.in_flight != 0) continue;
      const std::size_t r = waiting_.front();
      waiting_.pop_front();
      records_[r].send = now_ns();
      conn.in_flight = r + 1;
      conn.out = pool_[static_cast<std::size_t>(records_[r].index)];
      conn.out.push_back('\n');
      conn.out_pos = 0;
      flush(c);
    }
  }

  // Writes as much pending output as the socket takes without blocking.
  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (conn.out_pos < conn.out.size()) {
      const ssize_t w =
          ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (w <= 0) {
        fail(c);
        return;
      }
      conn.out_pos += static_cast<std::size_t>(w);
    }
    conn.out.clear();
    conn.out_pos = 0;
  }

  void receive(int phase, std::size_t c, bool arriving) {
    Conn& conn = conns_[c];
    char buf[65536];
    const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
    if (r < 0 && (errno == EINTR || errno == EAGAIN)) return;
    if (r <= 0) {
      fail(c);
      return;
    }
    conn.buffer.append(buf, static_cast<std::size_t>(r));
    const auto nl = conn.buffer.find('\n');
    if (nl == std::string::npos) return;
    const std::int64_t t = now_ns();
    if (conn.in_flight == 0 || nl + 1 != conn.buffer.size()) {
      fail(c);  // a response nobody asked for: the stream is out of step
      return;
    }
    Record& rec = records_[conn.in_flight - 1];
    rec.recv = t;
    rec.response = conn.buffer.substr(0, nl);
    conn.buffer.clear();
    conn.in_flight = 0;
    last_recv_ = t;
    if (!open_loop_ && arriving) waiting_.push_back(take(phase, t));
  }

  void fail(std::size_t c) {
    Conn& conn = conns_[c];
    if (conn.fd >= 0) ::close(conn.fd);
    conn = Conn{};  // the in-flight record keeps recv = -1
  }

  std::vector<std::string> pool_;
  std::vector<std::pair<int, int>> seq_;
  bool open_loop_;
  std::vector<Conn> conns_;
  std::vector<Record> records_;
  std::deque<std::size_t> waiting_;  // taken up, not yet written
  std::size_t next_ = 0, cursor_ = 0;
  std::int64_t last_recv_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::cerr << "drive: bad argument " << a << "\n";
      return 2;
    }
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  for (const char* required : {"socket", "pool", "sequence", "out", "loop",
                               "connections", "seconds", "warmup"}) {
    if (args.count(required) == 0) {
      std::cerr << "drive: missing --" << required << "\n";
      return 2;
    }
  }
  std::vector<std::string> pool;
  {
    std::ifstream in(args["pool"]);
    for (std::string line; std::getline(in, line);) pool.push_back(line);
  }
  std::vector<std::pair<int, int>> seq;
  {
    std::ifstream in(args["sequence"]);
    int index = 0, gap = 0;
    while (in >> index >> gap) {
      if (index < 0 || static_cast<std::size_t>(index) >= pool.size() ||
          gap < 1) {
        std::cerr << "drive: bad sequence entry " << index << " " << gap
                  << "\n";
        return 2;
      }
      seq.emplace_back(index, gap);
    }
  }
  if (pool.empty() || seq.empty()) {
    std::cerr << "drive: empty pool or sequence\n";
    return 2;
  }
  const int connections = std::stoi(args["connections"]);
  const long pid = args.count("server-pid") ? std::stol(args["server-pid"]) : 0;

  sched_param priority{};
  priority.sched_priority = 10;
  const bool realtime = ::sched_setscheduler(0, SCHED_FIFO, &priority) == 0;
  const std::int64_t origin = now_ns();
  LoadGen gen(std::move(pool), std::move(seq), args["loop"] == "open");
  if (connections < 1 || !gen.connect(args["socket"], connections)) {
    std::cerr << "drive: cannot connect to " << args["socket"] << "\n";
    return 1;
  }
  gen.run_phase(0, std::stod(args["warmup"]));
  const std::string stats_before = gen.stats();
  const long long cpu_before = cpu_ticks(pid);
  const std::int64_t t0 = now_ns();
  gen.run_phase(1, std::stod(args["seconds"]));
  const std::int64_t t_end = std::max(gen.last_recv(), t0);
  const long long cpu_after = cpu_ticks(pid);
  const std::string stats_after = gen.stats();

  std::ofstream out(args["out"]);
  out << "{\"t0_ns\":" << (t0 - origin) << ",\"wall_ns\":" << (t_end - t0)
      << ",\"realtime\":" << (realtime ? "true" : "false")
      << ",\"cpu_ticks\":"
      << (cpu_before < 0 || cpu_after < 0 ? -1 : cpu_after - cpu_before)
      << ",\"clk_tck\":" << ::sysconf(_SC_CLK_TCK) << ",\"stats_before\":\""
      << json_escape(stats_before) << "\",\"stats_after\":\""
      << json_escape(stats_after) << "\"}\n";
  const auto rel = [origin](std::int64_t t) { return t < 0 ? -1 : t - origin; };
  for (const Record& r : gen.records()) {
    out << r.phase << ' ' << r.index << ' ' << rel(r.due) << ' '
        << rel(r.taken) << ' ' << rel(r.send) << ' ' << rel(r.recv) << '\t'
        << r.response << '\n';
  }
  out.flush();
  return out.good() ? 0 : 1;
}
