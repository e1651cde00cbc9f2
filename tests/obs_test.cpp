#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace amdrel {
namespace {

/// Records every event for assertions (single-threaded tests only).
class CaptureSink : public obs::Sink {
 public:
  struct Rec {
    obs::Event::Kind kind;
    std::string name;
    double t_s;
    double dur_s;
    std::uint64_t id;
    std::uint64_t parent;
    std::string trace;
    std::vector<std::pair<std::string, double>> metrics;
  };
  void on_event(const obs::Event& e) override {
    Rec r{e.kind,   e.name, e.t_s, e.dur_s, e.id, e.parent,
          e.trace != nullptr ? e.trace : "", {}};
    for (std::size_t i = 0; i < e.n_metrics; ++i) {
      r.metrics.emplace_back(e.metrics[i].key, e.metrics[i].value);
    }
    events.push_back(std::move(r));
  }
  std::vector<Rec> events;
};

TEST(Obs, DisabledByDefaultAndEmissionIsInert) {
  ASSERT_EQ(obs::sink(), nullptr);
  EXPECT_FALSE(obs::enabled());
  {
    obs::Span span("test.noop");
    EXPECT_FALSE(span.active());
    span.metric("ignored", 1.0);
    obs::point("test.point", {{"k", 2.0}});
  }  // no sink: nothing to crash on
  EXPECT_FALSE(obs::enabled());
}

TEST(Obs, SpanEmitsBeginAndEndWithMetrics) {
  CaptureSink sink;
  obs::set_sink(&sink);
  {
    obs::Span span("test.outer");
    EXPECT_TRUE(span.active());
    span.metric("answer", 42.0);
    obs::point("test.inner", {{"a", 1.0}, {"b", 2.5}});
  }
  obs::set_sink(nullptr);

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].kind, obs::Event::Kind::kSpanBegin);
  EXPECT_EQ(sink.events[0].name, "test.outer");
  EXPECT_EQ(sink.events[1].kind, obs::Event::Kind::kPoint);
  EXPECT_EQ(sink.events[1].name, "test.inner");
  ASSERT_EQ(sink.events[1].metrics.size(), 2u);
  EXPECT_EQ(sink.events[1].metrics[1].first, "b");
  EXPECT_DOUBLE_EQ(sink.events[1].metrics[1].second, 2.5);
  EXPECT_EQ(sink.events[2].kind, obs::Event::Kind::kSpanEnd);
  EXPECT_EQ(sink.events[2].name, "test.outer");
  EXPECT_GE(sink.events[2].dur_s, 0.0);
  ASSERT_EQ(sink.events[2].metrics.size(), 1u);
  EXPECT_EQ(sink.events[2].metrics[0].first, "answer");
  EXPECT_DOUBLE_EQ(sink.events[2].metrics[0].second, 42.0);
  // Events are stamped relative to the attach time, in order.
  EXPECT_LE(sink.events[0].t_s, sink.events[2].t_s);
}

TEST(Obs, SpanCapturesSinkAtConstruction) {
  CaptureSink sink;
  obs::set_sink(&sink);
  obs::Span span("test.crossing");
  obs::set_sink(nullptr);
  // The span still delivers its end event to the sink it started with —
  // sinks must outlive their spans, and ScopedSink enforces that order.
  { obs::Span ignored("test.after-detach"); }
  span.metric("m", 1.0);
  // span destructor fires here at the end of scope
  EXPECT_EQ(sink.events.size(), 1u);  // begin only, so far
}

TEST(Obs, ScopedSinkAttachesAndDetaches) {
  ASSERT_EQ(obs::sink(), nullptr);
  {
    obs::ScopedSink guard(std::make_unique<CaptureSink>());
    EXPECT_TRUE(obs::enabled());
  }
  EXPECT_FALSE(obs::enabled());
  { obs::ScopedSink empty; }  // default guard is a no-op
  EXPECT_FALSE(obs::enabled());
}

TEST(Obs, JsonlSinkWritesParseableLines) {
  const std::string path =
      ::testing::TempDir() + "/obs_test_trace.jsonl";
  {
    obs::ScopedSink guard(std::make_unique<obs::JsonlSink>(path));
    obs::Span outer("flow.test");
    outer.metric("wall_s", 0.25);
    obs::point("route.probe", {{"width", 12.0}, {"success", 1.0}});
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<util::Json> events;
  for (std::string line; std::getline(in, line);) {
    ASSERT_NO_THROW(events.push_back(util::parse_json(line))) << line;
  }
  ASSERT_EQ(events.size(), 3u);  // begin, point, span end
  EXPECT_EQ(events[0].at("type").as_string(), "begin");
  EXPECT_EQ(events[0].at("name").as_string(), "flow.test");
  EXPECT_EQ(events[1].at("type").as_string(), "point");
  EXPECT_EQ(events[1].at("metrics").at("width").as_number(), 12.0);
  EXPECT_EQ(events[2].at("type").as_string(), "span");
  EXPECT_EQ(events[2].at("metrics").at("wall_s").as_number(), 0.25);
  EXPECT_TRUE(events[2].at("dur").is_number());
  std::remove(path.c_str());
}

TEST(Obs, JsonlSinkThrowsOnUnwritablePath) {
  EXPECT_THROW(obs::JsonlSink("/nonexistent-dir/trace.jsonl"), Error);
}

TEST(Obs, TextSinkIndentsByDepth) {
  const std::string path = ::testing::TempDir() + "/obs_test_text.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    obs::TextSink sink(f);
    obs::set_sink(&sink);
    {
      obs::Span outer("outer");
      { obs::Span inner("inner"); }
    }
    obs::set_sink(nullptr);
    std::fclose(f);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  ASSERT_NE(text.find("> outer"), std::string::npos);
  ASSERT_NE(text.find("> inner"), std::string::npos);
  EXPECT_NE(text.find("< outer"), std::string::npos);
  // The inner span is printed one indent level deeper than the outer one.
  auto column_of = [&text](const char* needle) {
    const std::size_t pos = text.find(needle);
    const std::size_t bol = text.rfind('\n', pos);
    return pos - (bol == std::string::npos ? 0 : bol + 1);
  };
  EXPECT_LT(column_of("> outer"), column_of("> inner"));
  std::remove(path.c_str());
}

TEST(Obs, PeakRssIsReported) {
  EXPECT_GT(obs::peak_rss_kb(), 0);
}

TEST(Obs, SpanMoveConstructTransfersTheEndEvent) {
  CaptureSink sink;
  obs::set_sink(&sink);
  {
    obs::Span a("test.moved");
    a.metric("m", 7.0);
    obs::Span b(std::move(a));
    EXPECT_FALSE(a.active());  // moved-from span is inert
    EXPECT_TRUE(b.active());
    // a's destructor runs at scope exit too — it must emit nothing.
  }
  obs::set_sink(nullptr);
  ASSERT_EQ(sink.events.size(), 2u);  // one begin, ONE end
  EXPECT_EQ(sink.events[1].kind, obs::Event::Kind::kSpanEnd);
  EXPECT_EQ(sink.events[1].name, "test.moved");
  ASSERT_EQ(sink.events[1].metrics.size(), 1u);
  EXPECT_EQ(sink.events[1].metrics[0].first, "m");
}

TEST(Obs, SpanMoveAssignFinishesTheOverwrittenSpan) {
  CaptureSink sink;
  obs::set_sink(&sink);
  {
    obs::Span a("test.first");
    obs::Span b("test.second");
    a = std::move(b);  // "first" must end here, before "second" takes over
    EXPECT_FALSE(b.active());
    ASSERT_EQ(sink.events.size(), 3u);
    EXPECT_EQ(sink.events[2].kind, obs::Event::Kind::kSpanEnd);
    EXPECT_EQ(sink.events[2].name, "test.first");
  }
  obs::set_sink(nullptr);
  ASSERT_EQ(sink.events.size(), 4u);
  EXPECT_EQ(sink.events[3].name, "test.second");
  // Closing "first" out of LIFO order must not poison the thread's
  // open-span chain: a fresh span afterwards is a root again.
  obs::set_sink(&sink);
  { obs::Span after("test.after"); }
  obs::set_sink(nullptr);
  ASSERT_EQ(sink.events.size(), 6u);
  EXPECT_EQ(sink.events[4].parent, 0u);
}

TEST(Obs, SpanSelfMoveAssignIsANoOp) {
  CaptureSink sink;
  obs::set_sink(&sink);
  {
    obs::Span a("test.self");
    obs::Span& alias = a;
    a = std::move(alias);
    EXPECT_TRUE(a.active());
  }
  obs::set_sink(nullptr);
  ASSERT_EQ(sink.events.size(), 2u);  // begin + end exactly once
}

// Regression test for the ScopedSink move-assignment hazard: the RHS
// guard installs its sink first (construction), then the assignment
// destroys the LHS guard's state. The LHS release() must not clobber the
// just-installed replacement — detach-if-ours has to be one atomic
// compare-exchange, not a sink()==ours check followed by set_sink(null).
TEST(Obs, ScopedSinkMoveAssignKeepsTheReplacementInstalled) {
  obs::ScopedSink guard(std::make_unique<CaptureSink>());
  ASSERT_TRUE(obs::enabled());
  guard = obs::ScopedSink(std::make_unique<CaptureSink>());
  // The replacement sink (installed by the RHS temporary before the old
  // guard was torn down) must still be attached.
  EXPECT_TRUE(obs::enabled());
  obs::Sink* replacement = obs::sink();
  ASSERT_NE(replacement, nullptr);
  { obs::Span span("test.on-replacement"); }
  EXPECT_EQ(static_cast<CaptureSink*>(replacement)->events.size(), 2u);
  guard = obs::ScopedSink();  // empty guard assignment detaches cleanly
  EXPECT_FALSE(obs::enabled());
}

TEST(Obs, ScopedSinkReleaseLeavesAForeignSinkAlone) {
  CaptureSink foreign;
  {
    obs::ScopedSink guard(std::make_unique<CaptureSink>());
    // Someone replaces the global sink while the guard is alive; the
    // guard's destructor must not detach the foreign sink.
    obs::set_sink(&foreign);
  }
  EXPECT_EQ(obs::sink(), &foreign);
  obs::set_sink(nullptr);
}

TEST(Obs, JsonlSinkFlushEachWritesLinesImmediately) {
  const std::string path =
      ::testing::TempDir() + "/obs_test_flush.jsonl";
  obs::JsonlSink sink(path, /*flush_each=*/true);
  obs::set_sink(&sink);
  obs::point("test.durable", {{"v", 1.0}});
  obs::set_sink(nullptr);
  // With flush-after-every-line the event is on disk while the sink is
  // still open — that is the crash-durability contract of the flag.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  util::Json event;
  ASSERT_NO_THROW(event = util::parse_json(line)) << line;
  EXPECT_EQ(event.at("name").as_string(), "test.durable");
  std::remove(path.c_str());
}

TEST(Obs, TextSinkConcurrentSpansStayLineAtomicAndDepthNonNegative) {
  const std::string path =
      ::testing::TempDir() + "/obs_test_text_mt.txt";
  constexpr int kThreads = 4;
  constexpr int kRepeats = 25;
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    obs::TextSink sink(f);
    obs::set_sink(&sink);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < kRepeats; ++i) {
          obs::Span outer("mt.outer");
          obs::Span inner("mt.inner");
        }
      });
    }
    for (auto& w : workers) w.join();
    obs::set_sink(nullptr);
    std::fclose(f);
  }
  std::ifstream in(path);
  int lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    // Line-atomic output: every line is one complete event record, even
    // under concurrent writers (the sink serializes under its mutex).
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line[0], '[') << line;
    EXPECT_TRUE(line.find("> mt.") != std::string::npos ||
                line.find("< mt.") != std::string::npos)
        << line;
    // Interleaved begin/end from other threads may shrink the shared
    // depth, but it must never underflow into garbage indentation: the
    // event marker appears within the plausible indent range.
    const std::size_t marker = line.find_first_of("><", 11);
    ASSERT_NE(marker, std::string::npos) << line;
    // "[%8.3fs] " is 12 columns; depth can reach 2 spans × kThreads.
    EXPECT_LE(marker, 12u + 2u * 2u * kThreads) << line;
  }
  EXPECT_EQ(lines, kThreads * kRepeats * 4);  // begin+end × outer+inner
  std::remove(path.c_str());
}

TEST(Obs, SpanWithSuppliedTimestampsReportsExactDuration) {
  CaptureSink sink;
  obs::set_sink(&sink);
  {
    const auto t0 = std::chrono::steady_clock::now();
    obs::Span span("test.pinned", t0);
    const auto t1 = t0 + std::chrono::milliseconds(250);
    span.freeze_duration(t1);
    // Metrics attached after the freeze still land on the end event, and
    // a second freeze is ignored.
    span.metric("after_freeze", 1.0);
    span.freeze_duration(t1 + std::chrono::seconds(5));
  }
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.events[1].dur_s, 0.25);
  ASSERT_EQ(sink.events[1].metrics.size(), 1u);
  EXPECT_EQ(sink.events[1].metrics[0].first, "after_freeze");
  obs::set_sink(nullptr);
}

TEST(Obs, SpansCarryIdsAndParentLinkage) {
  CaptureSink sink;
  obs::set_sink(&sink);
  {
    obs::Span outer("test.outer");
    ASSERT_NE(outer.id(), 0u);
    {
      obs::Span inner("test.inner");
      ASSERT_NE(inner.id(), 0u);
      EXPECT_NE(inner.id(), outer.id());
      obs::point("test.p", {{"k", 1.0}});
    }
  }
  obs::set_sink(nullptr);
  ASSERT_EQ(sink.events.size(), 5u);  // begin, begin, point, end, end
  const auto& outer_begin = sink.events[0];
  const auto& inner_begin = sink.events[1];
  const auto& point = sink.events[2];
  const auto& inner_end = sink.events[3];
  const auto& outer_end = sink.events[4];
  EXPECT_EQ(outer_begin.parent, 0u);          // root
  EXPECT_EQ(inner_begin.parent, outer_begin.id);
  EXPECT_EQ(point.id, 0u);                    // points have no id...
  EXPECT_EQ(point.parent, inner_begin.id);    // ...but link to the open span
  EXPECT_EQ(inner_end.id, inner_begin.id);
  EXPECT_EQ(outer_end.id, outer_begin.id);
  // Child ids are allocated after (so greater than) their parent's.
  EXPECT_GT(inner_begin.id, outer_begin.id);
  // No context installed: events carry no trace tag.
  EXPECT_TRUE(outer_begin.trace.empty());
}

TEST(Obs, ScopedContextRoutesToContextSinkAndTagsTrace) {
  CaptureSink global, scoped;
  obs::set_sink(&global);
  {
    obs::TraceContext ctx(&scoped, "job-7");
    obs::ScopedContext guard(&ctx);
    EXPECT_EQ(obs::context(), &ctx);
    obs::Span span("test.routed");
    obs::point("test.routed-point", {{"k", 1.0}});
  }
  EXPECT_EQ(obs::context(), nullptr);
  { obs::Span span("test.global-again"); }
  obs::set_sink(nullptr);

  // Everything emitted under the context went to its sink, tagged.
  ASSERT_EQ(scoped.events.size(), 3u);
  for (const auto& e : scoped.events) EXPECT_EQ(e.trace, "job-7");
  // The global sink saw only the span begun after the context exited,
  // untagged.
  ASSERT_EQ(global.events.size(), 2u);
  EXPECT_EQ(global.events[0].name, "test.global-again");
  EXPECT_TRUE(global.events[0].trace.empty());
}

TEST(Obs, NullContextGuardIsANoOp) {
  CaptureSink global;
  obs::set_sink(&global);
  {
    obs::ScopedContext guard(nullptr);
    EXPECT_EQ(obs::context(), nullptr);
    obs::Span span("test.fallback");  // falls through to the global sink
  }
  obs::set_sink(nullptr);
  ASSERT_EQ(global.events.size(), 2u);
  EXPECT_EQ(global.events[0].name, "test.fallback");
}

TEST(Obs, ContextWithNullSinkSuppressesTracing) {
  CaptureSink global;
  obs::set_sink(&global);
  {
    obs::TraceContext ctx;  // null sink: this thread opted out
    obs::ScopedContext guard(&ctx);
    EXPECT_FALSE(obs::enabled());
    obs::Span span("test.suppressed");
    EXPECT_FALSE(span.active());
    obs::point("test.suppressed-point", {{"k", 1.0}});
  }
  EXPECT_TRUE(obs::enabled());
  obs::set_sink(nullptr);
  EXPECT_TRUE(global.events.empty());
}

TEST(Obs, ScopedContextRestoresOuterParentChain) {
  CaptureSink global, scoped;
  obs::set_sink(&global);
  {
    obs::Span outer("test.outer");
    {
      obs::TraceContext ctx(&scoped, "job-9");
      obs::ScopedContext guard(&ctx);
      // Inside the context the parent chain restarts: the job's first
      // span is a root of its own trace, not a child of test.outer.
      obs::Span inner("test.context-root");
      EXPECT_EQ(scoped.events.back().parent, 0u);
    }
    // After the context exits, new spans chain to test.outer again.
    obs::Span sibling("test.after-context");
    EXPECT_EQ(global.events.back().parent, outer.id());
  }
  obs::set_sink(nullptr);
}

TEST(Obs, ReinstallingTheCurrentContextKeepsTheParentChain) {
  CaptureSink scoped;
  obs::TraceContext ctx(&scoped, "job-5");
  obs::ScopedContext outer_guard(&ctx);
  obs::Span root("serve.job");
  {
    // The daemon's pattern: FlowSession re-installs the same context on
    // the worker thread. The redundant guard must not restart the chain —
    // stage spans stay children of the daemon's root span.
    obs::ScopedContext inner_guard(&ctx);
    obs::Span stage("flow.synth");
    EXPECT_EQ(scoped.events.back().parent, root.id());
  }
  obs::Span after("flow.map");
  EXPECT_EQ(scoped.events.back().parent, root.id());
}

TEST(Obs, ScopedAttributionCarriesContextAndParentToAnotherThread) {
  CaptureSink global, scoped;
  obs::set_sink(&global);
  obs::TraceContext ctx(&scoped, "job-11");
  std::uint64_t submitter_id = 0;
  {
    obs::ScopedContext guard(&ctx);
    obs::Span submitter("test.submitter");
    submitter_id = submitter.id();
    const obs::Attribution captured = obs::attribution();
    std::thread worker([&] {
      {
        obs::ScopedAttribution adopt(captured);
        obs::Span work("test.pool-work");
      }
      // The guard restored the worker's own (empty) attribution.
      EXPECT_EQ(obs::context(), nullptr);
      obs::Span own("test.worker-own");
    });
    worker.join();
  }
  obs::set_sink(nullptr);

  // The pool span reached the submitter's sink, tagged, as a child of
  // the submitting span.
  ASSERT_EQ(scoped.events.size(), 4u);
  EXPECT_EQ(scoped.events[1].name, "test.pool-work");
  EXPECT_EQ(scoped.events[1].trace, "job-11");
  EXPECT_EQ(scoped.events[1].parent, submitter_id);
  // The worker's own span went to the global sink as a root.
  ASSERT_EQ(global.events.size(), 2u);
  EXPECT_EQ(global.events[0].name, "test.worker-own");
  EXPECT_EQ(global.events[0].parent, 0u);
  EXPECT_TRUE(global.events[0].trace.empty());
}

TEST(Obs, ContextClockStartsAtTheContextEpoch) {
  CaptureSink scoped;
  // No global sink at all: the context alone enables tracing.
  ASSERT_FALSE(obs::enabled());
  obs::TraceContext ctx(&scoped, "job-3");
  obs::ScopedContext guard(&ctx);
  EXPECT_TRUE(obs::enabled());
  { obs::Span span("test.epoch"); }
  ASSERT_EQ(scoped.events.size(), 2u);
  // The context was created moments ago; its clock starts there, not at
  // some ancient global attach.
  EXPECT_GE(scoped.events[0].t_s, 0.0);
  EXPECT_LT(scoped.events[0].t_s, 60.0);
}

TEST(Obs, JsonlSinkWritesIdParentAndTraceFields) {
  const std::string path =
      ::testing::TempDir() + "/obs_test_ctx_trace.jsonl";
  {
    obs::JsonlSink sink(path);
    obs::TraceContext ctx(&sink, "job-42");
    obs::ScopedContext guard(&ctx);
    obs::Span outer("flow.test");
    { obs::Span inner("flow.inner"); }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<util::Json> events;
  for (std::string line; std::getline(in, line);) {
    ASSERT_NO_THROW(events.push_back(util::parse_json(line))) << line;
    const util::Json& e = events.back();
    EXPECT_EQ(e.at("trace").as_string(), "job-42") << line;
    EXPECT_TRUE(e.at("id").is_number()) << line;
  }
  ASSERT_EQ(events.size(), 4u);  // begin begin end end
  const std::uint64_t outer_id = events[0].at("id").as_u64();
  // The outer span is a root: its begin omits "parent" (zero fields are
  // left out for backward compatibility); the inner one links to it.
  EXPECT_EQ(events[0].get("parent"), nullptr);
  EXPECT_EQ(events[1].at("parent").as_u64(), outer_id);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace amdrel
