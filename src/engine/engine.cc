// Streaming solve dispatcher: the implementation of api::Engine.
//
// A fixed-size pool of worker threads drains a bounded MPMC work queue of
// submitted requests. Each worker owns one core::SolveWorkspace for its
// whole lifetime, so consecutive solves on a worker reuse the MCMF network,
// the bicameral DP tables, and the residual-graph storage instead of
// reallocating them.
//
// Scheduling never affects results: a request is solved by exactly one
// worker running the same serial algorithm any worker would run, and
// workspaces rebuild themselves on topology changes, so which worker picks
// which request is unobservable in the output (engine_test asserts
// bit-identical batches at 1/2/8 threads, and submit() against
// solve_batch()). Workers never run OpenMP teams: a workspace pins the
// bicameral finder to its serial scan, keeping the pool's parallelism
// strictly across requests.
//
// Backpressure and shutdown: queue_capacity bounds the waiting jobs —
// submit() blocks (never drops) while the queue is full. close() stops
// admissions; already-queued work still runs and fulfills its tickets.
// The destructor closes, drains, and joins, so no ticket is ever left
// dangling.
//
// Synchronization: one mutex guards the deque and the counters; promises
// are fulfilled outside the lock (the future handshake publishes the
// result — TSan-clean by construction; CI runs the engine and server
// tests under -fsanitize=thread).
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "api/krsp.h"
#include "obs/trace.h"

namespace krsp::api {

namespace {

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;  // documented clamp: negative means 1
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));  // hw may report 0
}

}  // namespace

struct Engine::Impl {
  struct Job {
    SolveRequest request;
    /// Anchored by the submitter; nullopt anchors request.deadline_seconds
    /// when a worker claims the job.
    std::optional<util::Deadline> deadline;
    std::promise<SolveResult> promise;
    /// Stamped at enqueue; the worker charges [enqueued, claim) to
    /// SolveResult::queue_wait_seconds and the "queue_wait" span.
    std::chrono::steady_clock::time_point enqueued;
  };

  explicit Impl(const EngineOptions& options)
      : queue_capacity(options.queue_capacity),
        workspaces(resolve_thread_count(options.num_threads)) {
    workers.reserve(workspaces.size());
    for (SolveWorkspace& ws : workspaces)
      workers.emplace_back([this, &ws] { worker_loop(ws); });
  }

  void worker_loop(SolveWorkspace& workspace);

  const std::size_t queue_capacity;
  std::vector<SolveWorkspace> workspaces;  // one per worker, stable

  mutable std::mutex mu;
  std::condition_variable work_cv;   // workers wait for jobs / shutdown
  std::condition_variable space_cv;  // submitters wait for queue space
  std::condition_variable idle_cv;   // drain() waits for completion
  std::deque<Job> queue;
  std::size_t executing = 0;    // jobs claimed but not finished
  std::uint64_t submitted = 0;  // also the next ticket id
  std::uint64_t completed = 0;
  bool closed = false;    // no new submissions
  bool shutdown = false;  // workers exit once the queue is empty

  std::vector<std::thread> workers;  // joined by ~Engine; use all the above
};

void Engine::Impl::worker_loop(SolveWorkspace& workspace) {
  while (true) {
    std::unique_lock<std::mutex> lock(mu);
    work_cv.wait(lock, [&] { return shutdown || !queue.empty(); });
    if (queue.empty()) {
      if (shutdown) return;
      continue;
    }
    Job job = std::move(queue.front());
    queue.pop_front();
    ++executing;
    lock.unlock();
    space_cv.notify_one();

    const auto claimed = std::chrono::steady_clock::now();
    const double queue_wait =
        std::chrono::duration<double>(claimed - job.enqueued).count();
    // The queue-wait span spans two threads; reconstruct the start from
    // the wait measured against the same steady clock.
    const std::int64_t claim_ns = KRSP_OBS_NOW_NS();
    KRSP_OBS_RECORD(
        "queue_wait",
        claim_ns - static_cast<std::int64_t>(queue_wait * 1e9), claim_ns);

    // Solve outside the lock; the promise is exclusively ours and the
    // future handshake publishes the result to the ticket holder. The
    // request's own budget starts now, at execution, not at enqueue.
    const util::Deadline deadline =
        job.deadline ? *job.deadline
                     : util::Deadline::after_seconds(
                           job.request.deadline_seconds);
    SolveResult result = Solver::solve(job.request, deadline, workspace);
    result.queue_wait_seconds = queue_wait;
    job.promise.set_value(std::move(result));

    lock.lock();
    --executing;
    ++completed;
    if (queue.empty() && executing == 0) idle_cv.notify_all();
    lock.unlock();
  }
}

Engine::Engine(EngineOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

Engine::~Engine() {
  close();
  drain();
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

int Engine::num_threads() const {
  return static_cast<int>(impl_->workers.size());
}

Ticket Engine::submit(SolveRequest request,
                      std::optional<util::Deadline> deadline) {
  Impl& e = *impl_;
  std::unique_lock<std::mutex> lock(e.mu);
  if (e.queue_capacity > 0)
    e.space_cv.wait(
        lock, [&] { return e.closed || e.queue.size() < e.queue_capacity; });
  if (e.closed) {
    // Graceful refusal: a fulfilled kFailed ticket, never an exception —
    // racing submitters during shutdown get the same error contract as any
    // per-request failure.
    SolveResult refused;
    refused.tag = request.tag;
    refused.status = SolveStatus::kFailed;
    refused.error = "engine is closed (draining or destroyed)";
    std::promise<SolveResult> p;
    p.set_value(std::move(refused));
    // kRefusedId, not submitted: a refusal consumes no submission index,
    // so reusing the counter would alias the next accepted ticket's id.
    return Ticket(Ticket::kRefusedId, p.get_future());
  }
  Impl::Job job;
  job.request = std::move(request);
  job.deadline = deadline;
  job.enqueued = std::chrono::steady_clock::now();
  Ticket ticket(e.submitted++, job.promise.get_future());
  e.queue.push_back(std::move(job));
  lock.unlock();
  e.work_cv.notify_one();
  return ticket;
}

std::vector<SolveResult> Engine::solve_batch(
    const std::vector<SolveRequest>& requests) {
  std::vector<SolveResult> results(requests.size());
  if (requests.empty()) return results;
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  // Submission blocks on a bounded queue while workers drain — safe from
  // the caller's thread because the workers never wait on the caller.
  for (const auto& req : requests) tickets.push_back(submit(req));
  for (std::size_t i = 0; i < tickets.size(); ++i)
    results[i] = tickets[i].get();
  return results;
}

void Engine::close() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->closed = true;
  }
  impl_->space_cv.notify_all();  // blocked submitters now observe closed
}

void Engine::drain() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->idle_cv.wait(
      lock, [&] { return impl_->queue.empty() && impl_->executing == 0; });
}

std::size_t Engine::queue_depth() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->queue.size();
}

std::uint64_t Engine::submitted() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->submitted;
}

std::uint64_t Engine::completed() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->completed;
}

}  // namespace krsp::api
