// Batch front-end for the concurrent solve engine: load one or more
// instance files, fan the requests out over a worker pool, and report
// per-request outcomes plus aggregate throughput.
//
//   $ krsp_batch --instances=a.kri,b.kri [--repeat=4] [--threads=0]
//                [--mode=scaled|exact|phase1] [--eps1=0.25] [--eps2=0.25]
//                [--deadline=0.1] [--guess=binary|doubling]
//                [--trace-out=trace.json] [--trace-sample=1] [--quiet]
//
// --trace-out enables the obs tracer for the run and writes every
// worker's span timeline (solve, phase1, mcmf, cycle_cancel_round,
// residual_rebuild, bicameral_find, budget_pass, queue_wait) as Chrome
// trace-event JSON: the per-thread lanes make engine utilization and queueing
// visible at a glance. --trace-sample=N keeps every Nth span per thread.
//
// The request list is the cross product instances × repeat, in file order,
// so results are reproducible: the engine guarantees the same output for
// the same request list regardless of --threads.
//
// Requests are streamed through Engine::submit() against a bounded queue
// rather than materialized as one solve_batch() call: each result prints
// as soon as it and everything before it have finished, so output order
// matches submission order (ticket order) while solves overlap with
// printing.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/krsp.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/cli.h"

namespace {

constexpr char kUsage[] =
    "usage: krsp_batch --instances=<a.kri,b.kri,...> [--repeat=1] "
    "[--threads=0] [--mode=scaled|exact|phase1] [--eps1=0.25] "
    "[--eps2=0.25] [--eps=0.25] [--deadline=<seconds>] "
    "[--guess=binary|doubling] [--trace-out=<file>] "
    "[--trace-sample=1] [--quiet]";

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> parts;
  std::istringstream is(csv);
  std::string part;
  while (std::getline(is, part, ','))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

int run(int argc, char** argv) {
  using namespace krsp;
  using Clock = std::chrono::steady_clock;
  const util::Cli cli(argc, argv);
  const std::vector<std::string> files =
      split_csv(cli.get_string("instances", ""));
  const int repeat = cli.get_int("repeat", 1);
  const int threads = cli.get_int("threads", 0);
  const std::string mode = cli.get_string("mode", "scaled");
  const double eps = cli.get_positive("eps", 0.25);  // back-compat alias
  const double eps1 = cli.get_positive("eps1", eps);
  const double eps2 = cli.get_positive("eps2", eps);
  const double deadline = cli.get_double("deadline", 0.0);
  const std::string guess = cli.get_string("guess", "binary");
  const std::string trace_out = cli.get_string("trace-out", "");
  const auto trace_sample = cli.get_int("trace-sample", 1);
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  if (files.empty() || repeat < 1) {
    std::cerr << kUsage << "\n";
    return 2;
  }
  if (!trace_out.empty()) {
    obs::Tracer::global().set_sample_every(
        static_cast<std::uint32_t>(std::max<std::int64_t>(1, trace_sample)));
    obs::Tracer::global().enable();
  }

  const std::optional<api::Mode> api_mode = api::parse_mode(mode);
  if (!api_mode) {
    std::cerr << "unknown --mode: " << mode << "\n";
    return 2;
  }
  const std::optional<api::GuessStrategy> api_guess = api::parse_guess(guess);
  if (!api_guess) {
    std::cerr << "unknown --guess: " << guess << "\n";
    return 2;
  }

  // Load each file once, then replicate requests; instances are value
  // types, so every request stays self-contained.
  std::vector<api::SolveRequest> prototypes;
  prototypes.reserve(files.size());
  for (const std::string& file : files) {
    api::SolveRequest req;
    req.instance = api::read_instance_file(file);
    req.mode = *api_mode;
    req.eps1 = eps1;
    req.eps2 = eps2;
    req.guess = *api_guess;
    req.deadline_seconds = deadline;
    req.tag = file;
    prototypes.push_back(std::move(req));
  }
  std::vector<api::SolveRequest> batch;
  batch.reserve(prototypes.size() * static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r)
    for (const auto& proto : prototypes) {
      batch.push_back(proto);
      batch.back().tag += "#" + std::to_string(r);
    }

  // Bounded queue: submit() blocks once the engine is this far ahead of
  // its workers, so arbitrarily long request lists stream in O(1) memory.
  api::Engine engine(
      api::EngineOptions{.num_threads = threads, .queue_capacity = 64});
  std::cout << "batch: " << batch.size() << " request(s) over "
            << engine.num_threads() << " thread(s), mode " << mode
            << ", streaming\n";

  std::map<std::string, int> by_status;
  int degraded = 0;
  std::size_t completed = 0;
  const auto report = [&](api::SolveResult res) {
    ++completed;
    ++by_status[api::status_name(res.status)];
    if (res.degradation() != api::DegradationStep::kNone) ++degraded;
    if (!quiet) {
      std::cout << "  " << res.tag << ": " << api::status_name(res.status);
      if (res.has_paths())
        std::cout << " cost=" << res.cost << " delay=" << res.delay;
      if (res.status == api::SolveStatus::kFailed)
        std::cout << " (" << res.error << ")";
      if (res.degradation() != api::DegradationStep::kNone)
        std::cout << " [degraded: "
                  << core::degradation_step_name(res.degradation()) << "]";
      std::cout << "\n";
    }
  };

  // Tickets complete in any order, but printing only ever consumes the
  // head of the deque, so output follows submission order exactly.
  std::deque<api::Ticket> inflight;
  const auto print_head = [&](bool block) {
    while (!inflight.empty() && (block || inflight.front().ready())) {
      report(inflight.front().get());
      inflight.pop_front();
    }
  };

  const auto t0 = Clock::now();
  for (auto& req : batch) {
    inflight.push_back(engine.submit(std::move(req)));
    print_head(/*block=*/false);
  }
  print_head(/*block=*/true);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  std::cout << "statuses:";
  for (const auto& [name, count] : by_status)
    std::cout << " " << name << "=" << count;
  std::cout << "\n";
  if (degraded > 0)
    std::cout << "degraded (deadline ladder engaged): " << degraded << "\n";
  std::cout << "wall: " << wall << " s\nthroughput: "
            << static_cast<double>(completed) / wall << " solves/sec\n";

  if (!trace_out.empty()) {
    std::string trace_error;
    if (!obs::write_chrome_trace_file(trace_out, &trace_error)) {
      std::cerr << "krsp_batch: --trace-out: " << trace_error << "\n";
      return 1;
    }
    std::cout << "wrote trace " << trace_out << "\n";
  }

  // Non-zero exit only for failures the caller should not ignore;
  // infeasible instances are a valid answer, not an error.
  return by_status.count("failed") > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
