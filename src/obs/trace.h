// krsp::obs — low-overhead span tracing for the solver and serving tiers.
//
// A Span is an RAII timer around one named region of work ("phase1",
// "cycle_cancel_round", "cache_lookup", ...); completed spans land in a
// per-thread buffer and are exported after the fact as Chrome trace-event
// JSON (obs/export.h) for flamegraph-style inspection in chrome://tracing
// or Perfetto. docs/OBSERVABILITY.md lists the span taxonomy.
//
// Overhead contract (gated by E17, bench/bench_obs.cc):
//   * tracing disabled (the default): one relaxed atomic load per span —
//     no clock reads, no allocation, no locking;
//   * tracing enabled: two clock reads (raw rdtsc with a calibrated
//     tick->ns scale on x86-64 when the kernel clocksource is tsc;
//     steady_clock otherwise) plus an append to a thread-local buffer
//     whose mutex is uncontended except during snapshot().
//
// Spans are pure observers: they never touch solver state, so results are
// bit-identical with tracing on or off (pinned by obs_test.cc).
//
// Instrument with the macros, not the classes:
//
//   void phase1(...) {
//     KRSP_OBS_SPAN("phase1");          // RAII: closes at scope exit
//     ...
//   }
//
//   const std::int64_t t0 = KRSP_OBS_NOW_NS();   // manual span (e.g.
//   ...queue wait crossing threads...             //  start/end in
//   KRSP_OBS_RECORD("queue_wait", t0, KRSP_OBS_NOW_NS());  // different
//                                                          //  scopes)
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace krsp::obs {

/// One completed span. `name` must be a string literal (the exporter and
/// the buffers store the pointer, not a copy).
struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = 0;  // steady-clock ns since tracer epoch
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;  // dense thread id, assigned at first record
};

/// Process-wide trace collector. Disabled by default; enable() is called
/// by the tools when --trace-out is given. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& global();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Sampling knob: keep 1 of every `n` spans per thread (n <= 1 keeps
  /// all). Applies to record(); long traces of repetitive inner spans
  /// (mcmf, budget_pass) shrink by n while the shape survives.
  void set_sample_every(std::uint32_t n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Per-thread buffer cap; spans beyond it are counted in dropped().
  void set_max_spans_per_thread(std::size_t cap) {
    max_spans_per_thread_.store(cap, std::memory_order_relaxed);
  }

  /// Steady-clock ns since the tracer's construction (its epoch). now_ns
  /// always reads the clock; now_ns_if_enabled returns 0 without reading
  /// the clock when tracing is off — use it for manual span endpoints.
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::int64_t now_ns_if_enabled() const {
    return enabled() ? now_ns() : 0;
  }

  /// Appends one completed span to the calling thread's buffer (no-op
  /// when disabled). Timestamps are tracer-epoch ns as from now_ns().
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  /// All spans recorded so far, across every thread that ever recorded
  /// (including exited ones). Ordering across threads is unspecified.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Discards recorded spans and the dropped counter; keeps enablement,
  /// sampling, and thread registrations.
  void clear();

  /// Spans discarded because a thread buffer hit its cap.
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  Tracer();
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();

  std::chrono::steady_clock::time_point epoch_;
  // TSC fast path (x86-64 with the kernel on the tsc clocksource):
  // now_ns() is rdtsc * ns_per_tick_ relative to tsc_epoch_, calibrated
  // once in the constructor. ns_per_tick_ == 0 means "use steady_clock".
  std::uint64_t tsc_epoch_ = 0;
  double ns_per_tick_ = 0.0;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> sample_every_{1};
  std::atomic<std::size_t> max_spans_per_thread_{std::size_t{1} << 20};
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 0;
};

/// RAII span: stamps the start on construction (when tracing is enabled)
/// and records on destruction. Prefer the KRSP_OBS_SPAN macro.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    Tracer& t = Tracer::global();
    if (t.enabled()) {
      name_ = name;
      start_ns_ = t.now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      Tracer& t = Tracer::global();
      t.record(name_, start_ns_, t.now_ns());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace krsp::obs

#define KRSP_OBS_CONCAT_INNER(a, b) a##b
#define KRSP_OBS_CONCAT(a, b) KRSP_OBS_CONCAT_INNER(a, b)
#define KRSP_OBS_SPAN(name) \
  const ::krsp::obs::Span KRSP_OBS_CONCAT(krsp_obs_span_, __LINE__)(name)
#define KRSP_OBS_RECORD(name, start_ns, end_ns) \
  ::krsp::obs::Tracer::global().record((name), (start_ns), (end_ns))
#define KRSP_OBS_NOW_NS() ::krsp::obs::Tracer::global().now_ns_if_enabled()
