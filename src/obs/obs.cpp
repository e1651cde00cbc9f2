#include "obs/obs.hpp"

#include <sys/resource.h>

#include <cmath>

#include "util/error.hpp"

namespace amdrel::obs {

namespace detail {

std::atomic<Sink*> g_sink{nullptr};
thread_local constinit const TraceContext* t_context = nullptr;
thread_local constinit std::uint64_t t_open_span = 0;

namespace {
std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();
std::atomic<std::uint64_t> g_next_span_id{1};
}  // namespace

std::uint64_t next_span_id() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

double since_attach_s(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration<double>(tp - g_epoch).count();
}

double since_s(const TraceContext* ctx,
               std::chrono::steady_clock::time_point tp) {
  if (ctx != nullptr)
    return std::chrono::duration<double>(tp - ctx->epoch).count();
  return since_attach_s(tp);
}

void reset_epoch() { g_epoch = std::chrono::steady_clock::now(); }

bool detach_sink(Sink* expected) {
  return g_sink.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
}

}  // namespace detail

void set_sink(Sink* sink) {
  if (sink != nullptr) detail::reset_epoch();
  detail::g_sink.store(sink, std::memory_order_release);
}

Sink* sink() { return detail::g_sink.load(std::memory_order_acquire); }

void point(const char* name, std::initializer_list<Metric> metrics) {
  const TraceContext* ctx = detail::t_context;
  Sink* s = ctx != nullptr ? ctx->sink
                           : detail::g_sink.load(std::memory_order_relaxed);
  if (s == nullptr) return;
  Event e;
  e.kind = Event::Kind::kPoint;
  e.name = name;
  e.t_s = detail::since_s(ctx, std::chrono::steady_clock::now());
  e.parent = detail::t_open_span;
  if (ctx != nullptr) e.trace = ctx->trace_id.c_str();
  e.metrics = metrics.begin();
  e.n_metrics = metrics.size();
  s->on_event(e);
}

void Span::finish() {
  if (sink_ == nullptr) return;
  // Pop this span from the thread's open-span chain — but only if it is
  // still the innermost one *on this thread*. A span finished on another
  // thread, or after its ScopedContext already restored the chain, must
  // not clobber that thread's unrelated linkage.
  if (detail::t_open_span == id_) detail::t_open_span = parent_;
  const auto end = end_ != std::chrono::steady_clock::time_point{}
                       ? end_
                       : std::chrono::steady_clock::now();
  Event e;
  e.kind = Event::Kind::kSpanEnd;
  e.name = name_;
  e.t_s = detail::since_s(ctx_, start_);
  e.dur_s = std::chrono::duration<double>(end - start_).count();
  e.id = id_;
  e.parent = parent_;
  if (ctx_ != nullptr) e.trace = ctx_->trace_id.c_str();
  e.metrics = metrics_.data();
  e.n_metrics = metrics_.size();
  sink_->on_event(e);
  sink_ = nullptr;
}

namespace {

const char* kind_label(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kSpanBegin: return "begin";
    case Event::Kind::kSpanEnd: return "span";
    case Event::Kind::kPoint: return "point";
  }
  return "?";
}

}  // namespace

JsonlSink::JsonlSink(const std::string& path, bool flush_each)
    : file_(std::fopen(path.c_str(), "w")), flush_each_(flush_each) {
  if (file_ == nullptr) throw Error("cannot open trace file: " + path);
}

JsonlSink::~JsonlSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlSink::on_event(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(file_, "{\"type\":\"%s\",\"name\":\"%s\",\"t\":%.9g",
               kind_label(e.kind), e.name, e.t_s);
  if (e.kind == Event::Kind::kSpanEnd) {
    std::fprintf(file_, ",\"dur\":%.9g", e.dur_s);
  }
  if (e.id != 0) {
    std::fprintf(file_, ",\"id\":%llu", (unsigned long long)e.id);
  }
  if (e.parent != 0) {
    std::fprintf(file_, ",\"parent\":%llu", (unsigned long long)e.parent);
  }
  if (e.trace != nullptr && e.trace[0] != '\0') {
    // Trace ids are caller-controlled short tokens ("job-17"); they must
    // not contain JSON-significant characters.
    std::fprintf(file_, ",\"trace\":\"%s\"", e.trace);
  }
  if (e.n_metrics > 0) {
    std::fprintf(file_, ",\"metrics\":{");
    for (std::size_t i = 0; i < e.n_metrics; ++i) {
      // JSON has no NaN or infinity: a non-finite value prints as null.
      const double v = e.metrics[i].value;
      if (std::isfinite(v)) {
        std::fprintf(file_, "%s\"%s\":%.9g", i > 0 ? "," : "",
                     e.metrics[i].key, v);
      } else {
        std::fprintf(file_, "%s\"%s\":null", i > 0 ? "," : "",
                     e.metrics[i].key);
      }
    }
    std::fprintf(file_, "}");
  }
  std::fprintf(file_, "}\n");
  if (flush_each_) std::fflush(file_);
}

TextSink::TextSink(std::FILE* out) : out_(out) {}

void TextSink::on_event(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (e.kind == Event::Kind::kSpanEnd && depth_ > 0) --depth_;
  std::fprintf(out_, "[%8.3fs] %*s", e.t_s, 2 * depth_, "");
  switch (e.kind) {
    case Event::Kind::kSpanBegin:
      std::fprintf(out_, "> %s", e.name);
      ++depth_;
      break;
    case Event::Kind::kSpanEnd:
      std::fprintf(out_, "< %s (%.3fs)", e.name, e.dur_s);
      break;
    case Event::Kind::kPoint:
      std::fprintf(out_, ". %s", e.name);
      break;
  }
  for (std::size_t i = 0; i < e.n_metrics; ++i) {
    std::fprintf(out_, " %s=%.6g", e.metrics[i].key, e.metrics[i].value);
  }
  std::fprintf(out_, "\n");
  std::fflush(out_);
}

long peak_rss_kb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;  // Linux: kilobytes
}

}  // namespace amdrel::obs
