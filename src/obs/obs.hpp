#pragma once
// Observability: RAII trace spans and point events with a pluggable sink.
//
// Every tool of the flow emits structured events through this module —
// per-stage spans from the flow driver, NR/bypass/refactorization counts
// from the SPICE engine, anneal temperature stats from the placer, and
// PathFinder iteration / min-W probe verdicts from the router. The design
// constraints (DESIGN.md §8):
//
//  * Near-zero overhead when no sink is attached: an emission site costs
//    one thread-local read plus one relaxed atomic load, and a disabled
//    Span never reads the clock.
//  * Sinks can be fed from worker threads (the min-W probe waves run
//    PathFinder on a thread pool), so the provided sinks serialize
//    internally. Event names and metric keys are static strings.
//  * The sink is not owned by the registry and must outlive every span
//    begun while it was attached (ScopedSink enforces this for the
//    CLI/bench pattern of one sink per process run).
//
// Job-scoped tracing (DESIGN.md §8.1): a TraceContext installed on a
// thread via ScopedContext overrides the process-global sink for every
// span/point begun on that thread, stamps each event with the context's
// trace id, and restarts the trace clock at the context's epoch. The
// compile daemon uses one context per job so that 64-way concurrent jobs
// each spool their own attributable JSONL trace; standalone CLI runs
// never install a context and keep the global-sink behavior unchanged.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace amdrel::obs {

struct Metric {
  const char* key;
  double value;
};

/// One trace record as delivered to the sink. `t_s` is seconds since the
/// sink was attached (or since the trace context's epoch); `dur_s` is
/// meaningful only for kSpanEnd. `id` is a process-unique span id (0 for
/// points), `parent` the id of the innermost span open on the emitting
/// thread when the event began (0 = root), and `trace` the owning
/// TraceContext's trace id (null when emitted under the global sink).
/// The metrics pointer is valid only for the duration of the on_event
/// call; `trace` is valid for the lifetime of the owning context.
struct Event {
  enum class Kind { kSpanBegin, kSpanEnd, kPoint };
  Kind kind = Kind::kPoint;
  const char* name = "";
  double t_s = 0.0;
  double dur_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* trace = nullptr;
  const Metric* metrics = nullptr;
  std::size_t n_metrics = 0;
};

/// Receives every event emitted while attached. Implementations must be
/// safe to call from multiple threads concurrently.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& event) = 0;
};

/// A job-scoped trace destination: a sink plus the trace id stamped on
/// every event and the instant that is t=0 for the context's clock. Not
/// owned by the registry; must outlive every span begun under it. A
/// context with a null sink *suppresses* tracing on its thread even when
/// a global sink is attached (a job that opted out of tracing must not
/// leak its spans into another job's — or the process's — trace).
struct TraceContext {
  Sink* sink = nullptr;  ///< receives this context's events
  std::string trace_id;  ///< stamped as the "trace" field on every event
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();  ///< t=0 for this context

  TraceContext() = default;
  TraceContext(Sink* sink_in, std::string trace_id_in)
      : sink(sink_in), trace_id(std::move(trace_id_in)) {}
};

namespace detail {
extern std::atomic<Sink*> g_sink;
/// The context installed on this thread (null = fall back to g_sink).
/// constinit: statically initialized, so reads need no TLS init wrapper.
extern thread_local constinit const TraceContext* t_context;
/// Id of the innermost span currently open on this thread (0 = none);
/// the parent-linkage source for new spans and points.
extern thread_local constinit std::uint64_t t_open_span;
/// Allocates a process-unique nonzero span id.
std::uint64_t next_span_id();
/// Seconds from the current sink's attach to `tp`.
double since_attach_s(std::chrono::steady_clock::time_point tp);
/// Seconds since `ctx`'s epoch (or since the global attach when null).
double since_s(const TraceContext* ctx,
               std::chrono::steady_clock::time_point tp);
/// The sink emission on this thread goes to: the installed context's
/// sink when a context is present, else the process-global sink.
inline Sink* current_sink() {
  const TraceContext* ctx = t_context;
  if (ctx != nullptr) return ctx->sink;
  return g_sink.load(std::memory_order_relaxed);
}
/// Atomically detaches `expected` if it is the installed sink (a
/// compare-exchange, so a concurrently installed replacement is never
/// clobbered). Returns true when this call performed the detach.
bool detach_sink(Sink* expected);
}  // namespace detail

/// Attaches `sink` (not owned; nullptr detaches). The trace clock restarts
/// at zero on every attach.
void set_sink(Sink* sink);
Sink* sink();

/// The trace context installed on the calling thread (null if none).
inline const TraceContext* context() { return detail::t_context; }

/// True when the calling thread's events would reach a sink. Use to gate
/// emission work that is more than a couple of counter increments (e.g.
/// per-iteration points).
inline bool enabled() { return detail::current_sink() != nullptr; }

/// Emits a point event. The metric list is evaluated by the caller, so
/// guard computed metrics with `if (obs::enabled())` at hot sites.
void point(const char* name, std::initializer_list<Metric> metrics);

/// Installs a TraceContext on the calling thread for the guard's
/// lifetime; restores the previous context (and the previous open-span
/// linkage, so nested contexts cannot corrupt the outer parent chain) on
/// destruction. A null context is a no-op guard, so callers can pass
/// through an optional context unconditionally — and so is re-installing
/// the context already current: the parent chain keeps running, so a
/// daemon wrapping a job in its own root span still sees the stages the
/// inner FlowSession guard emits as children of that root. Not movable:
/// the guard must be destroyed on the thread that created it.
class ScopedContext {
 public:
  ScopedContext() = default;
  explicit ScopedContext(const TraceContext* ctx) {
    if (ctx == nullptr || ctx == detail::t_context) return;
    prev_ = detail::t_context;
    prev_open_ = detail::t_open_span;
    detail::t_context = ctx;
    detail::t_open_span = 0;
    active_ = true;
  }
  ~ScopedContext() {
    if (active_) {
      detail::t_context = prev_;
      detail::t_open_span = prev_open_;
    }
  }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  const TraceContext* prev_ = nullptr;
  std::uint64_t prev_open_ = 0;
  bool active_ = false;
};

/// A thread's trace attribution: its installed context and its innermost
/// open span. Work handed to another thread captures the submitter's
/// (attribution()) and adopts it there (ScopedAttribution), so the work's
/// spans reach the submitter's sink, under its trace id, as children of
/// the submitting span.
struct Attribution {
  const TraceContext* context = nullptr;
  std::uint64_t parent = 0;
};

/// The calling thread's attribution.
inline Attribution attribution() {
  return {detail::t_context, detail::t_open_span};
}

/// Adopts a captured Attribution on the calling thread for the guard's
/// lifetime and restores the thread's own on destruction. Unlike
/// ScopedContext it always installs: a null context too (the submitter
/// emitted to the global sink), and the captured parent rather than a
/// fresh root. Not movable, like ScopedContext.
class ScopedAttribution {
 public:
  explicit ScopedAttribution(const Attribution& adopted)
      : prev_(attribution()) {
    detail::t_context = adopted.context;
    detail::t_open_span = adopted.parent;
  }
  ~ScopedAttribution() {
    detail::t_context = prev_.context;
    detail::t_open_span = prev_.parent;
  }
  ScopedAttribution(const ScopedAttribution&) = delete;
  ScopedAttribution& operator=(const ScopedAttribution&) = delete;

 private:
  Attribution prev_;
};

/// RAII span: emits kSpanBegin at construction and kSpanEnd (with the
/// accumulated metrics and wall duration) at destruction. When no sink is
/// reachable at construction (neither a thread context nor the global
/// sink) the span is fully inert. An active span carries a process-unique
/// id and records the enclosing open span on its thread as `parent`.
///
/// Movable (so helpers can construct and return a span) but not
/// copyable: the move transfers ownership of the pending end event and
/// deactivates the source, so exactly one kSpanEnd is emitted per begun
/// span. Move-assigning over an active span ends it first. Parent
/// linkage is thread-local: a span should be finished on the thread that
/// began it — finishing elsewhere still emits a correct end event but
/// skips the open-span restore, so subsequent spans on the *beginning*
/// thread may link to an already-closed parent (the analyzer tolerates
/// this; pool-offloaded work should begin its own spans instead).
class Span {
 public:
  explicit Span(const char* name)
      : Span(name, std::chrono::steady_clock::now()) {}

  /// Starts the span at a caller-supplied instant. For callers that time
  /// the region themselves (the flow driver measures each stage's wall
  /// clock independently of tracing), passing the same timestamps to the
  /// span via this constructor and freeze_duration() makes the reported
  /// span duration exactly equal the caller's measurement — otherwise
  /// the begin-event sink I/O sits inside the span's duration.
  Span(const char* name, std::chrono::steady_clock::time_point start)
      : ctx_(detail::t_context),
        sink_(ctx_ != nullptr
                  ? ctx_->sink
                  : detail::g_sink.load(std::memory_order_relaxed)),
        name_(name) {
    if (sink_ == nullptr) return;
    start_ = start;
    id_ = detail::next_span_id();
    parent_ = detail::t_open_span;
    detail::t_open_span = id_;
    Event e;
    e.kind = Event::Kind::kSpanBegin;
    e.name = name_;
    e.t_s = detail::since_s(ctx_, start_);
    e.id = id_;
    e.parent = parent_;
    if (ctx_ != nullptr) e.trace = ctx_->trace_id.c_str();
    sink_->on_event(e);
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept
      : ctx_(other.ctx_),
        sink_(other.sink_),
        name_(other.name_),
        start_(other.start_),
        end_(other.end_),
        id_(other.id_),
        parent_(other.parent_),
        metrics_(std::move(other.metrics_)) {
    other.sink_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      const std::uint64_t old_id = id_;
      const std::uint64_t old_parent = parent_;
      finish();
      ctx_ = other.ctx_;
      sink_ = other.sink_;
      name_ = other.name_;
      start_ = other.start_;
      end_ = other.end_;
      id_ = other.id_;
      parent_ = other.parent_;
      metrics_ = std::move(other.metrics_);
      other.sink_ = nullptr;
      // The overwritten span just closed out of LIFO order: if the
      // adopted span was its direct child, retarget the restore at the
      // closed span's own parent so the thread's open-span chain never
      // resurrects a finished id.
      if (parent_ == old_id) parent_ = old_parent;
    }
    return *this;
  }

  /// Attaches a metric to the span-end event. No-op when disabled.
  void metric(const char* key, double value) {
    if (sink_ != nullptr) metrics_.push_back(Metric{key, value});
  }

  /// Freezes the span's end instant at `end` (default: now). Metrics may
  /// still be attached afterwards; the end event emitted at destruction
  /// reports the frozen duration. Lets a caller that measures the region
  /// itself exclude post-region work (metric folding, registry snapshots)
  /// from the reported duration. No-op when disabled or already frozen.
  void freeze_duration(std::chrono::steady_clock::time_point end =
                           std::chrono::steady_clock::now()) {
    if (sink_ != nullptr && end_ == std::chrono::steady_clock::time_point{})
      end_ = end;
  }
  bool active() const { return sink_ != nullptr; }
  /// The span's process-unique id (0 when inert).
  std::uint64_t id() const { return sink_ != nullptr ? id_ : 0; }

 private:
  /// Emits the pending kSpanEnd (if active) and deactivates the span.
  void finish();

  const TraceContext* ctx_ = nullptr;
  Sink* sink_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point end_{};
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::vector<Metric> metrics_;
};

/// JSON-lines sink: one object per event, flat schema (DESIGN.md §8):
///   {"type":"begin","name":"flow.place","t":0.012,"id":3,"parent":1}
///   {"type":"span","name":"flow.place","t":0.012,"dur":0.51,"id":3,
///    "parent":1,"metrics":{"wall_s":0.51,"peak_rss_kb":14336}}
///   {"type":"point","name":"route.minw_probe","t":0.71,"parent":3,
///    "metrics":{"width":12,"success":1}}
/// `id`/`parent` are omitted when zero and `trace` when unset, so traces
/// written by older builds (or by the global sink outside any context)
/// stay parseable by the same analyzer.
class JsonlSink : public Sink {
 public:
  /// Opens `path` for writing (truncates). Throws amdrel::Error on failure.
  ///
  /// `flush_each` trades throughput for durability: when set, every line
  /// is fflush()ed as it is written, so the trace of a crashed or killed
  /// run is complete up to the last event (at the cost of one syscall per
  /// event — noticeable on point-heavy traces like per-temperature anneal
  /// stats). Default off: events sit in the stdio buffer and a SIGKILL
  /// can lose the tail, but a normal exit (including after an exception)
  /// flushes everything in the destructor.
  explicit JsonlSink(const std::string& path, bool flush_each = false);
  ~JsonlSink() override;
  void on_event(const Event& event) override;

 private:
  std::mutex mu_;
  std::FILE* file_;
  bool flush_each_;
};

/// Human-readable progress sink: one line per span begin/end and point,
/// indented by span depth, written to `out` (default stderr).
class TextSink : public Sink {
 public:
  explicit TextSink(std::FILE* out = stderr);
  void on_event(const Event& event) override;

 private:
  std::mutex mu_;
  std::FILE* out_;
  int depth_ = 0;
};

/// Owns a sink and keeps it attached for the guard's lifetime — the
/// one-sink-per-run pattern of the CLI and bench drivers. A default-
/// constructed guard is a no-op, so `auto g = install_trace(args);` works
/// whether or not tracing was requested.
class ScopedSink {
 public:
  ScopedSink() = default;
  explicit ScopedSink(std::unique_ptr<Sink> sink) : sink_(std::move(sink)) {
    set_sink(sink_.get());
  }
  ScopedSink(ScopedSink&& other) noexcept : sink_(std::move(other.sink_)) {}
  ScopedSink& operator=(ScopedSink&& other) noexcept {
    if (this != &other) {
      release();
      sink_ = std::move(other.sink_);
    }
    return *this;
  }
  ~ScopedSink() { release(); }

 private:
  void release() {
    // Detach-if-ours must be one atomic step (compare-exchange, not a
    // sink()==ours check followed by set_sink(nullptr)): if the global
    // sink was replaced in between — e.g. by the right-hand side of a
    // move-assignment installing its own sink first — a check-then-set
    // would stomp the replacement with nullptr. Either way the old sink
    // is guaranteed detached before it is destroyed.
    if (sink_ != nullptr) detail::detach_sink(sink_.get());
    sink_.reset();
  }
  std::unique_ptr<Sink> sink_;
};

/// Peak resident set size of this process in kilobytes (0 if unknown).
/// Monotone over the process lifetime, so per-stage samples read as
/// "peak RSS so far".
long peak_rss_kb();

}  // namespace amdrel::obs
