#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "bench_gen/bench_gen.hpp"
#include "flow/session.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace amdrel {
namespace {

TEST(TraceParse, ParsesSpanEndWithMetrics) {
  obs::TraceEvent e;
  ASSERT_TRUE(obs::parse_trace_line(
      R"({"type":"span","name":"flow.route","t":1.5,"dur":0.25,)"
      R"("metrics":{"channel_width":12,"wire_nodes":340}})",
      &e));
  EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kEnd);
  EXPECT_EQ(e.name, "flow.route");
  EXPECT_DOUBLE_EQ(e.t_s, 1.5);
  EXPECT_DOUBLE_EQ(e.dur_s, 0.25);
  ASSERT_EQ(e.metrics.size(), 2u);
  EXPECT_EQ(e.metrics[0].first, "channel_width");
  EXPECT_DOUBLE_EQ(e.metrics[0].second, 12.0);
}

TEST(TraceParse, ParsesBeginAndPoint) {
  obs::TraceEvent e;
  ASSERT_TRUE(obs::parse_trace_line(
      R"({"type":"begin","name":"place.anneal","t":0.5})", &e));
  EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kBegin);
  ASSERT_TRUE(obs::parse_trace_line(
      R"({"type":"point","name":"route.minw_probe","t":2})", &e));
  EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kPoint);
  EXPECT_EQ(e.name, "route.minw_probe");
  // String escapes decode: the name is "a", a newline, "b".
  ASSERT_TRUE(obs::parse_trace_line(
      R"({"type":"point","name":"a\nb","t":2})", &e));
  EXPECT_EQ(e.name, "a\nb");
}

TEST(TraceParse, ParsesIdParentAndTrace) {
  obs::TraceEvent e;
  ASSERT_TRUE(obs::parse_trace_line(
      R"({"type":"begin","name":"flow.map","t":0.5,"id":7,"parent":3,)"
      R"("trace":"job-12"})",
      &e));
  EXPECT_EQ(e.id, 7u);
  EXPECT_EQ(e.parent, 3u);
  EXPECT_EQ(e.trace, "job-12");
  // All three are optional (traces from older builds omit them).
  ASSERT_TRUE(obs::parse_trace_line(
      R"({"type":"begin","name":"flow.map","t":0.5})", &e));
  EXPECT_EQ(e.id, 0u);
  EXPECT_EQ(e.parent, 0u);
  EXPECT_TRUE(e.trace.empty());
  // Negative, fractional or out-of-range ids are malformed, not
  // silently wrapped or cast.
  for (const char* id : {"-3", "1.5", "1e300"}) {
    EXPECT_FALSE(obs::parse_trace_line(
        std::string(R"({"type":"begin","name":"x","t":0,"id":)") + id + "}",
        &e))
        << id;
  }
}

TEST(TraceParse, RejectsGarbageAndTruncation) {
  obs::TraceEvent e;
  EXPECT_FALSE(obs::parse_trace_line("", &e));
  EXPECT_FALSE(obs::parse_trace_line("not json", &e));
  EXPECT_FALSE(obs::parse_trace_line(R"({"type":"span","name":"x)", &e));
  EXPECT_FALSE(obs::parse_trace_line(R"({"type":"wat","name":"x","t":0})",
                                     &e));
  EXPECT_FALSE(obs::parse_trace_line(R"({"name":"x","t":0})", &e));  // no type
  EXPECT_FALSE(obs::parse_trace_line(
      R"({"type":"span","name":"x","t":0 "dur":1})", &e));  // missing comma
}

/// Builds a two-level trace and checks tree shape, aggregates, self time.
TEST(TraceAnalyze, BuildsSpanTreeWithSelfTimes) {
  std::istringstream in(
      R"({"type":"begin","name":"outer","t":0}
{"type":"begin","name":"inner","t":1}
{"type":"span","name":"inner","t":1,"dur":2}
{"type":"point","name":"tick","t":2,"metrics":{"n":3}}
{"type":"span","name":"outer","t":0,"dur":10}
)");
  const obs::TraceReport r = obs::analyze_trace(in);
  EXPECT_EQ(r.events, 5u);
  EXPECT_EQ(r.skipped_lines, 0u);
  EXPECT_EQ(r.unmatched_ends, 0u);
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_EQ(r.roots[0].name, "outer");
  ASSERT_EQ(r.roots[0].children.size(), 1u);
  EXPECT_EQ(r.roots[0].children[0].name, "inner");

  const obs::NameAggregate* outer = nullptr;
  const obs::NameAggregate* inner = nullptr;
  const obs::NameAggregate* tick = nullptr;
  for (const auto& a : r.aggregates) {
    if (a.name == "outer") outer = &a;
    if (a.name == "inner") inner = &a;
    if (a.name == "tick") tick = &a;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_DOUBLE_EQ(outer->total_s, 10.0);
  EXPECT_DOUBLE_EQ(outer->self_s, 8.0);  // 10 minus the nested 2
  EXPECT_DOUBLE_EQ(inner->total_s, 2.0);
  EXPECT_DOUBLE_EQ(inner->self_s, 2.0);
  EXPECT_FALSE(tick->is_span);
  EXPECT_EQ(tick->count, 1u);
  EXPECT_DOUBLE_EQ(tick->metric_sums.at("n"), 3.0);
  // Aggregates come sorted by total time, so "outer" leads.
  EXPECT_EQ(r.aggregates.front().name, "outer");
}

TEST(TraceAnalyze, ToleratesCrashTruncatedTraces) {
  // The trace ends mid-flow: "outer" never closes and the last line is
  // torn. Completed children must still be reported.
  std::istringstream in(
      R"({"type":"begin","name":"outer","t":0}
{"type":"begin","name":"inner","t":1}
{"type":"span","name":"inner","t":1,"dur":2}
{"type":"begin","name":"torn","t":3}
{"type":"span","name":"torn","t":3,"du)");
  const obs::TraceReport r = obs::analyze_trace(in);
  EXPECT_EQ(r.skipped_lines, 1u);  // the torn final line
  // inner completed under the never-closed outer and got promoted.
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_EQ(r.roots[0].name, "inner");
}

TEST(TraceAnalyze, CountsUnmatchedEnds) {
  std::istringstream in(
      R"({"type":"span","name":"orphan","t":1,"dur":1}
)");
  const obs::TraceReport r = obs::analyze_trace(in);
  EXPECT_EQ(r.unmatched_ends, 1u);
  EXPECT_TRUE(r.roots.empty());
}

TEST(TraceAnalyze, PairsConcurrentSameNameSpansNearestFirst) {
  // Two interleaved "probe" spans (no thread ids in the stream): each end
  // closes the nearest open span with that name, so both complete.
  std::istringstream in(
      R"({"type":"begin","name":"probe","t":0}
{"type":"begin","name":"probe","t":1}
{"type":"span","name":"probe","t":1,"dur":1}
{"type":"span","name":"probe","t":0,"dur":3}
)");
  const obs::TraceReport r = obs::analyze_trace(in);
  EXPECT_EQ(r.unmatched_ends, 0u);
  const obs::NameAggregate& a = r.aggregates.front();
  EXPECT_EQ(a.name, "probe");
  EXPECT_EQ(a.count, 2u);
  EXPECT_DOUBLE_EQ(a.total_s, 4.0);
}

/// The daemon's per-job traces interleave on one timeline when
/// concatenated. With span ids, each end closes exactly its own begin and
/// each child attaches to its actual parent — same-name spans from other
/// jobs in between cannot confuse the pairing.
TEST(TraceAnalyze, IdPairingReconstructsInterleavedJobTrees) {
  std::istringstream in(
      R"({"type":"begin","name":"serve.job","t":0,"id":1,"trace":"job-1"}
{"type":"begin","name":"serve.job","t":0.05,"id":2,"trace":"job-2"}
{"type":"begin","name":"flow.synth","t":0.1,"id":3,"parent":1,"trace":"job-1"}
{"type":"begin","name":"flow.synth","t":0.15,"id":4,"parent":2,"trace":"job-2"}
{"type":"span","name":"flow.synth","t":0.1,"dur":0.2,"id":3,"parent":1,"trace":"job-1"}
{"type":"begin","name":"flow.map","t":0.35,"id":5,"parent":1,"trace":"job-1"}
{"type":"span","name":"flow.synth","t":0.15,"dur":0.4,"id":4,"parent":2,"trace":"job-2"}
{"type":"span","name":"flow.map","t":0.35,"dur":0.1,"id":5,"parent":1,"trace":"job-1"}
{"type":"span","name":"serve.job","t":0,"dur":1,"id":1,"trace":"job-1"}
{"type":"span","name":"serve.job","t":0.05,"dur":2,"id":2,"trace":"job-2"}
)");
  const obs::TraceReport r = obs::analyze_trace(in);
  EXPECT_EQ(r.unmatched_ends, 0u);
  EXPECT_EQ(r.skipped_lines, 0u);
  EXPECT_EQ(r.traces, 2u);
  ASSERT_EQ(r.roots.size(), 2u);
  // job-1's root completes first (dur 1 vs 2).
  EXPECT_EQ(r.roots[0].trace, "job-1");
  EXPECT_EQ(r.roots[0].id, 1u);
  ASSERT_EQ(r.roots[0].children.size(), 2u);
  EXPECT_EQ(r.roots[0].children[0].name, "flow.synth");
  EXPECT_DOUBLE_EQ(r.roots[0].children[0].dur_s, 0.2);
  EXPECT_EQ(r.roots[0].children[1].name, "flow.map");
  EXPECT_EQ(r.roots[1].trace, "job-2");
  ASSERT_EQ(r.roots[1].children.size(), 1u);
  EXPECT_EQ(r.roots[1].children[0].name, "flow.synth");
  EXPECT_DOUBLE_EQ(r.roots[1].children[0].dur_s, 0.4);
  // With the old nearest-open-name pairing, job-2's flow.synth end (the
  // 7th line) would have closed job-1's still-open flow.map — the
  // per-name aggregate would smear 0.4s onto the wrong job. Check the
  // aggregate instead reports both synths under one name, both correct.
  for (const auto& a : r.aggregates) {
    if (a.name == "flow.synth") {
      EXPECT_EQ(a.count, 2u);
      EXPECT_DOUBLE_EQ(a.total_s, 0.6);
    }
  }
  // The rendering mentions the multi-trace nature.
  EXPECT_NE(r.to_text().find("distinct trace id"), std::string::npos);
  EXPECT_EQ(r.to_json().at("traces").as_u64(), 2u);
}

TEST(TraceAnalyze, IdCrashTailPromotesCompletedChildren) {
  // The job root (id 1) and flow.map (id 5) never close — daemon killed —
  // but flow.synth completed. The drain promotes it as a root.
  std::istringstream in(
      R"({"type":"begin","name":"serve.job","t":0,"id":1,"trace":"job-1"}
{"type":"begin","name":"flow.synth","t":0.1,"id":3,"parent":1,"trace":"job-1"}
{"type":"span","name":"flow.synth","t":0.1,"dur":0.2,"id":3,"parent":1,"trace":"job-1"}
{"type":"begin","name":"flow.map","t":0.35,"id":5,"parent":1,"trace":"job-1"}
)");
  const obs::TraceReport r = obs::analyze_trace(in);
  EXPECT_EQ(r.traces, 1u);
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_EQ(r.roots[0].name, "flow.synth");
}

TEST(TraceAnalyze, ExtractsFlowQorFromStageSpans) {
  std::istringstream in(
      R"({"type":"begin","name":"flow.route","t":0}
{"type":"span","name":"flow.route","t":0,"dur":2,"metrics":{"channel_width":12,"wire_nodes":340}}
{"type":"begin","name":"flow.power","t":2}
{"type":"span","name":"flow.power","t":2,"dur":1,"metrics":{"critical_path_ns":8.5,"power_mw":1.25}}
{"type":"begin","name":"flow.bitgen","t":3}
{"type":"span","name":"flow.bitgen","t":3,"dur":1,"metrics":{"bitstream_bytes":2184,"config_bits":920}}
)");
  const obs::TraceReport r = obs::analyze_trace(in);
  EXPECT_EQ(r.qor.flows, 1u);
  EXPECT_DOUBLE_EQ(r.qor.channel_width_max, 12.0);
  EXPECT_DOUBLE_EQ(r.qor.wire_nodes, 340.0);
  EXPECT_DOUBLE_EQ(r.qor.critical_path_ns_max, 8.5);
  EXPECT_DOUBLE_EQ(r.qor.power_mw, 1.25);
  EXPECT_DOUBLE_EQ(r.qor.bitstream_bytes, 2184.0);
  EXPECT_DOUBLE_EQ(r.qor.config_bits, 920.0);
  EXPECT_DOUBLE_EQ(r.qor.total_wall_s, 4.0);
  EXPECT_EQ(r.qor.stages.at("route").runs, 1u);
  EXPECT_DOUBLE_EQ(r.qor.stages.at("route").wall_s, 2.0);
}

TEST(TraceAnalyze, TextAndJsonRendering) {
  std::istringstream in(
      R"({"type":"begin","name":"flow.bitgen","t":0}
{"type":"span","name":"flow.bitgen","t":0,"dur":1,"metrics":{"bitstream_bytes":10}}
)");
  const obs::TraceReport r = obs::analyze_trace(in);
  const std::string text = r.to_text();
  EXPECT_NE(text.find("flow.bitgen"), std::string::npos);
  EXPECT_NE(text.find("flow QoR summary"), std::string::npos);
  const std::string dumped = r.to_json().dump();
  util::Json json;
  ASSERT_NO_THROW(json = util::parse_json(dumped)) << dumped;
  EXPECT_TRUE(json.at("flow_qor").is_object());
}

/// Names come from trace files, which may carry control characters; the
/// JSON rendering must still parse and give the name back unchanged.
TEST(TraceAnalyze, JsonEscapesControlCharactersInNames) {
  obs::TraceReport r;
  obs::NameAggregate a;
  a.name = "route.\"probe\"\n\tw=12\\";
  a.is_span = true;
  a.metric_sums["bytes\n"] = 1.0;
  r.aggregates.push_back(a);
  r.qor.stages["bit\rgen"].runs = 1;
  const util::Json json = util::parse_json(r.to_json().dump());
  const util::Json& name = json.at("names").as_array().at(0);
  EXPECT_EQ(name.at("name").as_string(), a.name);
  EXPECT_EQ(name.at("metrics").keys().at(0), "bytes\n");
  EXPECT_EQ(json.at("flow_qor").at("stages").keys().at(0), "bit\rgen");
}

TEST(TraceAnalyze, FileVariantThrowsOnMissingFile) {
  EXPECT_THROW(obs::analyze_trace_file("/nonexistent-dir/trace.jsonl"),
               Error);
}

/// JSON has no NaN or infinity: the sink prints a non-finite metric as
/// null and the analyzer drops just that metric, not the whole span.
TEST(TraceAnalyze, NonFiniteMetricsKeepTheirSpan) {
  const std::string path = ::testing::TempDir() + "/report_nan.jsonl";
  {
    obs::ScopedSink guard(std::make_unique<obs::JsonlSink>(path));
    obs::Span span("test.nan");
    span.metric("ratio", std::nan(""));
    span.metric("width", 12.0);
    span.metric("slack", -HUGE_VAL);
    span.metric("luts", 340.0);
  }
  const obs::TraceReport r = obs::analyze_trace_file(path);
  EXPECT_EQ(r.skipped_lines, 0u);
  ASSERT_EQ(r.roots.size(), 1u);
  const obs::SpanNode& span = r.roots[0];
  EXPECT_EQ(span.name, "test.nan");
  ASSERT_EQ(span.metrics.size(), 2u);
  EXPECT_EQ(span.metrics[0].first, "width");
  EXPECT_DOUBLE_EQ(span.metrics[0].second, 12.0);
  EXPECT_EQ(span.metrics[1].first, "luts");
  EXPECT_DOUBLE_EQ(span.metrics[1].second, 340.0);
  std::remove(path.c_str());
}

/// End-to-end cross-check: trace a real flow and verify the analyzer's
/// per-stage wall times agree with the session's own StageMetrics. The
/// session pins the span to the same clock readings it uses for wall_s
/// (Span's explicit-start constructor plus freeze_duration), so the two
/// agree to JSONL print precision (%.9g) even on a loaded machine.
TEST(TraceAnalyze, StageWallsMatchSessionStageMetrics) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 120;
  spec.n_latches = 8;
  spec.seed = 78;
  const auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;

  const std::string path = ::testing::TempDir() + "/report_cross.jsonl";
  flow::FlowResult result;
  {
    obs::ScopedSink guard(std::make_unique<obs::JsonlSink>(path));
    flow::FlowSession session(net, opt);
    session.resume();
    result = session.take_result();
  }
  const obs::TraceReport r = obs::analyze_trace_file(path);
  EXPECT_EQ(r.qor.flows, 1u);
  for (int s = 0; s < flow::kNumStages; ++s) {
    const auto stage = static_cast<flow::Stage>(s);
    const flow::StageMetrics& m = result.metrics(stage);
    ASSERT_TRUE(m.ran);
    auto it = r.qor.stages.find(flow::stage_name(stage));
    ASSERT_NE(it, r.qor.stages.end()) << flow::stage_name(stage);
    EXPECT_EQ(it->second.runs, 1u);
    const double diff = std::abs(it->second.wall_s - m.wall_s);
    EXPECT_LE(diff, std::max(1e-6 * m.wall_s, 1e-9))
        << flow::stage_name(stage) << ": span " << it->second.wall_s
        << "s vs StageMetrics " << m.wall_s << "s";
  }
  // The QoR summary reproduces the flow result's headline numbers.
  EXPECT_DOUBLE_EQ(r.qor.channel_width_max, result.channel_width);
  EXPECT_DOUBLE_EQ(r.qor.luts, result.map_stats.luts);
  EXPECT_DOUBLE_EQ(
      r.qor.clbs, static_cast<double>(result.packed->clusters().size()));
  EXPECT_DOUBLE_EQ(r.qor.bitstream_bytes,
                   static_cast<double>(result.bitstream_bytes.size()));
  std::remove(path.c_str());
}

/// Each flow stage attributes at least one registry counter delta.
TEST(StageCounters, EveryStageRecordsCounterDeltas) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 120;
  spec.n_latches = 8;
  spec.seed = 78;
  const auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;
  flow::FlowSession session(net, opt);
  session.resume();
  const flow::FlowResult& result = session.result();

  EXPECT_GE(result.metrics(flow::Stage::kSynth).counter("synth.gates"), 1u);
  EXPECT_GE(result.metrics(flow::Stage::kMap).counter("map.cut_enumerations"),
            1u);
  EXPECT_GE(result.metrics(flow::Stage::kMap).counter("map.luts"), 1u);
  EXPECT_GE(result.metrics(flow::Stage::kPack).counter("pack.bles"), 1u);
  EXPECT_GE(result.metrics(flow::Stage::kPack).counter("pack.clusters"), 1u);
  EXPECT_GE(result.metrics(flow::Stage::kPlace).counter("place.moves"), 1u);
  EXPECT_GE(result.metrics(flow::Stage::kRoute).counter("route.iterations"),
            1u);
  EXPECT_GE(
      result.metrics(flow::Stage::kPower).counter("power.integration_steps"),
      1u);
  EXPECT_GE(result.metrics(flow::Stage::kPower).counter("timing.arcs"), 1u);
  EXPECT_GE(result.metrics(flow::Stage::kBitgen).counter("bitgen.bytes"), 1u);
  // Deltas are attributed to the stage that did the work, not smeared:
  // the pack stage runs no placement moves.
  EXPECT_EQ(result.metrics(flow::Stage::kPack).counter("place.moves"), 0u);
}

}  // namespace
}  // namespace amdrel
