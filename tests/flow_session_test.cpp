#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "netlist/blif.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace amdrel {
namespace {

std::string fixture(const std::string& name) {
  return std::string(AMDREL_FIXTURE_DIR) + "/" + name;
}

netlist::Network small_design() {
  bench_gen::BenchSpec spec;
  spec.n_gates = 120;
  spec.n_latches = 8;
  spec.seed = 78;
  return bench_gen::generate(spec);
}

flow::FlowOptions fast_options() {
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;  // keep the 8 flows below quick
  return opt;
}

/// The reference run: every stage in one resume() call.
flow::FlowResult one_shot(const netlist::Network& net,
                          const flow::FlowOptions& opt) {
  flow::FlowSession session(net, opt);
  session.resume();
  return session.take_result();
}

/// The determinism contract of the redesign: splitting the run at ANY
/// stage boundary yields artifacts bit-identical to a one-shot run.
TEST(FlowSession, RunUntilPlusResumeMatchesOneShotAtEveryBoundary) {
  const auto net = small_design();
  const auto opt = fast_options();
  const auto oneshot = one_shot(net, opt);
  ASSERT_GT(oneshot.bitstream_bytes.size(), 0u);

  for (int s = 0; s < flow::kNumStages; ++s) {
    const auto boundary = static_cast<flow::Stage>(s);
    flow::FlowSession session(net, opt);
    const auto state = session.run_until(boundary);
    if (boundary == flow::Stage::kBitgen) {
      EXPECT_EQ(state, flow::SessionState::kDone);
    } else {
      EXPECT_EQ(state, flow::SessionState::kReady);
      EXPECT_EQ(session.next_stage(), static_cast<flow::Stage>(s + 1));
    }
    EXPECT_TRUE(session.completed(boundary));
    EXPECT_EQ(session.resume(), flow::SessionState::kDone)
        << "boundary " << flow::stage_name(boundary);
    EXPECT_FALSE(session.next_stage().has_value());

    const flow::FlowResult& r = session.result();
    EXPECT_EQ(r.bitstream_bytes, oneshot.bitstream_bytes)
        << "bitstream differs when split at " << flow::stage_name(boundary);
    EXPECT_EQ(r.channel_width, oneshot.channel_width);
    EXPECT_EQ(r.routing.total_wire_nodes, oneshot.routing.total_wire_nodes);
    EXPECT_EQ(r.routing.iterations, oneshot.routing.iterations);
    EXPECT_EQ(r.map_stats.luts, oneshot.map_stats.luts);
    EXPECT_DOUBLE_EQ(r.place_stats.final_cost, oneshot.place_stats.final_cost);
  }
}

TEST(FlowSession, StageMetricsCoverEveryStage) {
  flow::FlowSession session(small_design(), fast_options());
  EXPECT_EQ(session.resume(), flow::SessionState::kDone);
  for (int s = 0; s < flow::kNumStages; ++s) {
    const auto stage = static_cast<flow::Stage>(s);
    EXPECT_TRUE(session.metrics(stage).ran) << flow::stage_name(stage);
    EXPECT_GE(session.metrics(stage).wall_s, 0.0);
    EXPECT_GT(session.metrics(stage).peak_rss_kb, 0);
  }
  EXPECT_NE(session.result().report().find("stages"), std::string::npos);
}

TEST(FlowSession, TraceJsonlHasOneSpanPerStage) {
  const std::string path = ::testing::TempDir() + "/flow_session_trace.jsonl";
  {
    obs::ScopedSink guard(std::make_unique<obs::JsonlSink>(path));
    flow::FlowSession session(small_design(), fast_options());
    EXPECT_EQ(session.resume(), flow::SessionState::kDone);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::map<std::string, int> begins, ends;
  int lines = 0;
  for (std::string line; std::getline(in, line);) {
    ++lines;
    util::Json event;
    ASSERT_NO_THROW(event = util::parse_json(line)) << line;
    const std::string& type = event.at("type").as_string();
    const std::string& name = event.at("name").as_string();
    if (name.rfind("flow.", 0) == 0) {
      if (type == "begin") ++begins[name];
      if (type == "span") ++ends[name];
    }
  }
  EXPECT_GT(lines, 0);
  for (int s = 0; s < flow::kNumStages; ++s) {
    const std::string span =
        "flow." + std::string(flow::stage_name(static_cast<flow::Stage>(s)));
    EXPECT_EQ(begins[span], 1) << span;
    EXPECT_EQ(ends[span], 1) << span;
  }
  std::remove(path.c_str());
}

/// Maps each span name to the flow.<stage> spans it ran under, counted.
class EnclosingStageSink : public obs::Sink {
 public:
  void on_event(const obs::Event& e) override {
    if (e.kind != obs::Event::Kind::kSpanBegin) return;
    std::lock_guard<std::mutex> lock(mu_);
    names_[e.id] = e.name;
    parents_[e.id] = e.parent;
    std::uint64_t up = e.parent;
    while (up != 0 && names_[up].rfind("flow.", 0) != 0) up = parents_[up];
    ++under_[e.name][up != 0 ? names_[up] : "(none)"];
  }
  std::map<std::string, int> under(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return under_[name];
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::string> names_;
  std::map<std::uint64_t, std::uint64_t> parents_;
  std::map<std::string, std::map<std::string, int>> under_;
};

TEST(FlowSession, RrBuildBarrierAndReaderSpansNestUnderTheirStage) {
  // A VHDL design round-trips through EDIF in synth; the lint barriers run
  // after map, route and bitgen; the route stage builds one RR graph at
  // its fixed width.
  flow::JobSpec spec;
  spec.source = flow::JobSpec::Source::kFile;
  spec.path = fixture("traffic_light.vhd");
  spec.top = "traffic";
  EnclosingStageSink sink;
  {
    obs::TraceContext ctx(&sink, "spans");
    obs::ScopedContext guard(&ctx);
    flow::FlowSession session(spec);
    ASSERT_EQ(session.resume(), flow::SessionState::kDone);
  }
  using Under = std::map<std::string, int>;
  EXPECT_EQ(sink.under("netlist.read_edif"), (Under{{"flow.synth", 1}}));
  EXPECT_EQ(sink.under("route.rr_build"), (Under{{"flow.route", 1}}));
  EXPECT_EQ(sink.under("lint.barrier"),
            (Under{{"flow.map", 1}, {"flow.route", 1}, {"flow.bitgen", 1}}));

  // A network entry proves the BLIF writer/reader pair in synth, and every
  // min-W probe builds its own graph inside the route stage.
  EnclosingStageSink minw;
  {
    obs::TraceContext ctx(&minw, "minw");
    obs::ScopedContext guard(&ctx);
    flow::FlowOptions opt;
    opt.search_min_channel_width = true;
    flow::FlowSession session(small_design(), opt);
    ASSERT_EQ(session.resume(), flow::SessionState::kDone);
  }
  EXPECT_EQ(minw.under("netlist.read_blif"), (Under{{"flow.synth", 1}}));
  const Under builds = minw.under("route.rr_build");
  ASSERT_EQ(builds.size(), 1u);
  EXPECT_EQ(builds.begin()->first, "flow.route");
  EXPECT_EQ(builds.begin()->second,
            minw.under("route.pathfinder")["flow.route"] + 1)
      << "one graph per probe, plus the committed one";
}

/// Requests cancellation from inside the trace stream: the first min-W
/// probe verdict triggers cancel(), which the search observes at its next
/// cancellation point. Exercises a genuine mid-stage (not between-stage)
/// cancel on the session's own thread.
class CancelOnProbeSink : public obs::Sink {
 public:
  explicit CancelOnProbeSink(flow::FlowSession* session)
      : session_(session) {}
  void on_event(const obs::Event& e) override {
    if (std::strcmp(e.name, "route.minw_probe") == 0 &&
        !fired_.exchange(true)) {
      session_->cancel();
    }
  }
  bool fired() const { return fired_.load(); }

 private:
  flow::FlowSession* session_;
  std::atomic<bool> fired_{false};
};

TEST(FlowSession, CancelDuringMinWidthSearchIsResumable) {
  const auto net = small_design();
  auto opt = fast_options();
  opt.search_min_channel_width = true;

  const auto oneshot = one_shot(net, opt);

  flow::FlowSession session(net, opt);
  CancelOnProbeSink sink(&session);
  obs::set_sink(&sink);
  const auto state = session.resume();
  obs::set_sink(nullptr);

  ASSERT_TRUE(sink.fired());  // the search did emit probe verdicts
  EXPECT_EQ(state, flow::SessionState::kCancelled);
  EXPECT_TRUE(session.completed(flow::Stage::kPlace));
  EXPECT_FALSE(session.completed(flow::Stage::kBitgen));
  if (!session.completed(flow::Stage::kRoute)) {
    // The interrupted route stage left no partial artifacts behind.
    EXPECT_EQ(session.result().rr_graph, nullptr);
    EXPECT_EQ(session.result().channel_width, 0);
    EXPECT_EQ(session.next_stage(), flow::Stage::kRoute);
  }

  // Resuming restarts the interrupted stage and converges to the same
  // result as an uncancelled run (the search is deterministic).
  EXPECT_EQ(session.resume(), flow::SessionState::kDone);
  EXPECT_EQ(session.result().channel_width, oneshot.channel_width);
  EXPECT_EQ(session.result().bitstream_bytes, oneshot.bitstream_bytes);
}

/// Logs every event with the thread that emitted it, and makes the min-W
/// search provably run probes on the shared executor: the session's
/// thread is held at its first route.pathfinder span until a probe has
/// begun on another thread (the first doubling wave holds several
/// probes, so an executor thread claims one). Optionally cancels the
/// session from the first executor-thread route.pathfinder span end.
class WaveSink : public obs::Sink {
 public:
  struct Rec {
    obs::Event::Kind kind;
    std::string name;
    std::uint64_t id;
    std::uint64_t parent;
    std::string trace;
    bool on_executor;
  };

  explicit WaveSink(flow::FlowSession* cancel_target = nullptr)
      : session_thread_(std::this_thread::get_id()),
        cancel_target_(cancel_target) {}

  void on_event(const obs::Event& e) override {
    const bool on_executor = std::this_thread::get_id() != session_thread_;
    std::unique_lock<std::mutex> lock(mu_);
    events_.push_back(Rec{e.kind, e.name, e.id, e.parent,
                          e.trace != nullptr ? e.trace : "", on_executor});
    if (std::strcmp(e.name, "route.pathfinder") != 0) return;
    if (e.kind == obs::Event::Kind::kSpanBegin) {
      if (on_executor) {
        executor_probe_began_ = true;
        cv_.notify_all();
      } else if (!held_) {
        held_ = true;
        cv_.wait_for(lock, std::chrono::seconds(20),
                     [&] { return executor_probe_began_; });
      }
    } else if (on_executor && cancel_target_ != nullptr && !cancelled_) {
      cancelled_ = true;
      cancel_target_->cancel();
    }
  }

  std::vector<Rec> events() {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  bool executor_probe_began() {
    std::lock_guard<std::mutex> lock(mu_);
    return executor_probe_began_;
  }

 private:
  const std::thread::id session_thread_;
  flow::FlowSession* const cancel_target_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Rec> events_;
  bool held_ = false;
  bool executor_probe_began_ = false;
  bool cancelled_ = false;
};

TEST(FlowSession, MinWidthProbeSpansReachTheJobTrace) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "the shared executor needs a thread besides this one";
  }
  auto opt = fast_options();
  opt.search_min_channel_width = true;
  flow::FlowSession session(small_design(), opt);
  WaveSink job_sink;
  obs::TraceContext ctx(&job_sink, "job-minw");
  session.set_trace_context(&ctx);
  WaveSink global_sink;
  obs::set_sink(&global_sink);
  const auto state = session.run_until(flow::Stage::kRoute);
  obs::set_sink(nullptr);
  ASSERT_EQ(state, flow::SessionState::kReady);
  ASSERT_TRUE(job_sink.executor_probe_began());

  // The global sink gets none of the job's events, from any thread.
  EXPECT_TRUE(global_sink.events().empty());

  const std::vector<WaveSink::Rec> events = job_sink.events();
  std::map<std::uint64_t, const WaveSink::Rec*> begun;
  for (const auto& e : events) {
    EXPECT_EQ(e.trace, "job-minw") << e.name;
    if (e.kind == obs::Event::Kind::kSpanBegin) begun[e.id] = &e;
  }
  // Every probe span, wherever it ran, hangs under the search's span.
  int probes = 0, executor_probes = 0;
  for (const auto& e : events) {
    if (e.kind != obs::Event::Kind::kSpanBegin ||
        e.name != "route.pathfinder") {
      continue;
    }
    ++probes;
    executor_probes += e.on_executor;
    const WaveSink::Rec* up = &e;
    while (up->name != "route.minw_search" && begun.count(up->parent)) {
      up = begun[up->parent];
    }
    EXPECT_EQ(up->name, "route.minw_search")
        << "probe span " << e.id << " is not under the search";
  }
  EXPECT_GT(probes, 0);
  EXPECT_GT(executor_probes, 0);
}

TEST(FlowSession, CancelFromAProbeWaveIsResumable) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "the shared executor needs a thread besides this one";
  }
  const auto net = small_design();
  auto opt = fast_options();
  opt.search_min_channel_width = true;
  const auto oneshot = one_shot(net, opt);

  // The cancel comes from an executor thread's probe while the session's
  // own thread is inside the same wave.
  flow::FlowSession session(net, opt);
  WaveSink sink(&session);
  obs::set_sink(&sink);
  const auto state = session.resume();
  obs::set_sink(nullptr);
  ASSERT_TRUE(sink.executor_probe_began());
  EXPECT_EQ(state, flow::SessionState::kCancelled);
  EXPECT_TRUE(session.completed(flow::Stage::kPlace));
  EXPECT_FALSE(session.completed(flow::Stage::kRoute));
  EXPECT_EQ(session.next_stage(), flow::Stage::kRoute);
  EXPECT_EQ(session.result().rr_graph, nullptr);

  EXPECT_EQ(session.resume(), flow::SessionState::kDone);
  EXPECT_EQ(session.result().channel_width, oneshot.channel_width);
  EXPECT_EQ(session.result().bitstream_bytes, oneshot.bitstream_bytes);
}

TEST(FlowSession, CancelBetweenStagesIsConsumedOnObservation) {
  flow::FlowSession session(small_design(), fast_options());
  session.cancel();
  EXPECT_EQ(session.run_until(flow::Stage::kSynth),
            flow::SessionState::kCancelled);
  EXPECT_FALSE(session.completed(flow::Stage::kSynth));
  // The request was consumed: the next call runs normally.
  EXPECT_EQ(session.run_until(flow::Stage::kSynth),
            flow::SessionState::kReady);
  EXPECT_TRUE(session.completed(flow::Stage::kSynth));
}

/// Fires cancel() from the kSpanEnd event of a stage span — i.e. after the
/// stage's last cancellation point but before run_until returns. The lost-
/// cancel bug dropped exactly this window: run_until exited kReady with the
/// request still latched (or, worse, cleared by a later exchange), so a
/// caller that had observed "no cancellation" kept going.
class CancelOnStageEndSink : public obs::Sink {
 public:
  explicit CancelOnStageEndSink(flow::FlowSession* session, const char* span)
      : session_(session), span_(span) {}
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::Event::Kind::kSpanEnd &&
        std::strcmp(e.name, span_) == 0 && !fired_.exchange(true)) {
      session_->cancel();
    }
  }
  bool fired() const { return fired_.load(); }

 private:
  flow::FlowSession* session_;
  const char* span_;
  std::atomic<bool> fired_{false};
};

TEST(FlowSession, CancelAfterLastStageOfRequestIsStillObserved) {
  flow::FlowSession session(small_design(), fast_options());
  CancelOnStageEndSink sink(&session, "flow.place");
  obs::set_sink(&sink);
  const auto state = session.run_until(flow::Stage::kPlace);
  obs::set_sink(nullptr);
  ASSERT_TRUE(sink.fired());

  // The request landed after kPlace finished, so the work is complete —
  // but the cancellation must still be reported, not silently dropped.
  EXPECT_EQ(state, flow::SessionState::kCancelled);
  EXPECT_TRUE(session.completed(flow::Stage::kPlace));
  // And it was consumed: the session resumes normally to the end.
  EXPECT_EQ(session.resume(), flow::SessionState::kDone);
}

/// Hammers cancel() from another thread while the session runs. TSan
/// covers the cancel_requested_ orderings (release store in cancel(),
/// acq_rel exchanges in run_until); the assertions check the protocol:
/// every observation is reported as kCancelled and consumed, progress is
/// monotonic, and the session still converges to the one-shot result.
TEST(FlowSession, ConcurrentCancelRequestsNeverWedgeTheSession) {
  const auto net = small_design();
  const auto opt = fast_options();
  const auto oneshot = one_shot(net, opt);

  // A finite storm of cancel() calls, spread over about as long as the
  // flow takes, races the resume loop. Each request cancels at most one
  // resume, so the loop ends however the scheduler interleaves the two
  // threads.
  constexpr int kStorm = 500;
  flow::FlowSession session(net, opt);
  std::atomic<int> issued{0};
  std::thread canceller([&] {
    for (int i = 0; i < kStorm; ++i) {
      session.cancel();
      issued.fetch_add(1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Joins on every exit path, a failed ASSERT included: a joinable
  // std::thread destroyed by an early return would terminate the binary.
  struct Joiner {
    std::thread& t;
    ~Joiner() {
      if (t.joinable()) t.join();
    }
  } joiner{canceller};

  // The first resume starts with a request already raised, so at least
  // one cancellation is observed whatever the scheduling.
  while (issued.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  int cancellations = 0;
  while (session.state() != flow::SessionState::kDone &&
         issued.load(std::memory_order_acquire) < kStorm) {
    const auto state = session.resume();
    ASSERT_TRUE(state == flow::SessionState::kDone ||
                state == flow::SessionState::kCancelled);
    if (state == flow::SessionState::kCancelled) ++cancellations;
  }
  canceller.join();

  // Liveness once the storm is over: at most one request is still
  // latched, so the session completes within two resumes.
  for (int resumes = 0; session.state() != flow::SessionState::kDone;
       ++resumes) {
    ASSERT_LT(resumes, 2) << "session wedged by a stale cancel request";
    const auto state = session.resume();
    if (state == flow::SessionState::kCancelled) ++cancellations;
  }
  EXPECT_GT(cancellations, 0);  // the loop really was interrupted
  EXPECT_EQ(session.result().bitstream_bytes, oneshot.bitstream_bytes);
}

TEST(FlowSession, StageFailureCarriesStageNameAndTimes) {
  auto net = netlist::read_blif_file(fixture("defect_comb_loop.blif"));
  // Verification off, so the cycle passes synth and reaches the mapper.
  flow::FlowOptions options;
  options.verify_mode = flow::VerifyMode::kOff;
  flow::FlowSession session(net, options);
  try {
    session.resume();
    FAIL() << "expected the map stage to throw";
  } catch (const InfeasibleError& e) {
    // Type preserved, message prefixed with the failing stage and the
    // per-stage wall times accumulated so far.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flow stage 'map' failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("synth "), std::string::npos) << msg;
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
  }
  EXPECT_EQ(session.state(), flow::SessionState::kFailed);
  EXPECT_THROW(session.resume(), Error);  // failed sessions stay frozen

  // By default the synth stage's round-trip proof stops the cycle first.
  flow::FlowSession proven(net, flow::FlowOptions{});
  try {
    proven.resume();
    FAIL() << "expected the synth stage to throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flow stage 'synth' failed"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
  }
  EXPECT_EQ(proven.state(), flow::SessionState::kFailed);
}

/// A design that cannot route at the width it asks for fails the route
/// stage as infeasible, naming the width and the router's reason, not as
/// an internal check with a source location.
TEST(FlowSession, UnroutableFixedWidthIsInfeasible) {
  flow::FlowOptions options = fast_options();
  options.arch.channel_width = 2;
  flow::FlowSession session(small_design(), options);
  try {
    session.resume();
    FAIL() << "expected the route stage to throw";
  } catch (const flow::StageInfeasibleError& e) {
    EXPECT_EQ(e.stage(), flow::Stage::kRoute);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flow stage 'route' failed"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unroutable at W=2: "), std::string::npos) << msg;
    EXPECT_EQ(msg.find(".cpp"), std::string::npos) << msg;
  }
  EXPECT_EQ(session.state(), flow::SessionState::kFailed);
}

/// The bitstream is built once, by the route stage, from the routing it
/// commits; bitgen only serializes it.
TEST(FlowSession, RouteBuildsTheBitstreamAndBitgenSerializesIt) {
  flow::FlowSession session(small_design(), fast_options());
  ASSERT_EQ(session.run_until(flow::Stage::kRoute), flow::SessionState::kReady);
  const flow::FlowResult& r = session.result();
  EXPECT_FALSE(r.bitstream.clbs.empty());
  EXPECT_TRUE(r.bitstream_bytes.empty());
  EXPECT_EQ(r.metrics(flow::Stage::kRoute).counter("bitgen.config_bits"),
            static_cast<std::uint64_t>(r.bitstream.config_bits()));

  ASSERT_EQ(session.resume(), flow::SessionState::kDone);
  EXPECT_EQ(r.metrics(flow::Stage::kBitgen).counter("bitgen.config_bits"),
            0u);  // generate_bitstream did not run again
  EXPECT_EQ(r.bitstream_bytes, bitgen::serialize(r.bitstream));
}

/// An outside netlist with an undriven signal is rejected where the job
/// enters the flow, with the reason, before any kernel indexes it.
TEST(FlowSession, JobSpecRejectsAnUndrivenSignal) {
  std::ifstream in(fixture("eq_guard_undriven.blif"));
  ASSERT_TRUE(in);
  flow::JobSpec spec;
  spec.source = flow::JobSpec::Source::kBlif;
  spec.text.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  try {
    flow::FlowSession session(spec);
    FAIL() << "expected the undriven signal to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("undriven signal i1"),
              std::string::npos)
        << e.what();
  }
}

/// A partial run reports only the stages that ran: the later artifacts
/// (mapped, packed, ...) do not exist yet and must not be read.
TEST(FlowSession, ReportAfterPartialRunNamesOnlyStagesThatRan) {
  flow::FlowSession session(small_design(), fast_options());
  const char* later[] = {"packing", "placement", "routing",
                         "power",   "timing",    "bitstream"};
  session.run_until(flow::Stage::kSynth);
  std::string report = session.result().report();
  EXPECT_NE(report.find("synthesis"), std::string::npos) << report;
  EXPECT_EQ(report.find("mapping"), std::string::npos) << report;
  for (const char* stage : later) {
    EXPECT_EQ(report.find(stage), std::string::npos) << report;
  }
  session.run_until(flow::Stage::kMap);
  report = session.result().report();
  EXPECT_NE(report.find("synthesis"), std::string::npos) << report;
  EXPECT_NE(report.find("mapping"), std::string::npos) << report;
  for (const char* stage : later) {
    EXPECT_EQ(report.find(stage), std::string::npos) << report;
  }
}

/// Seeds past 2^53 survive JobSpec JSON exactly: a double would round
/// 2^53+1 to 2^53 and turn two different jobs into one.
TEST(FlowSession, JobSpecSeedsRoundTripExactlyThroughJson) {
  for (const std::uint64_t seed :
       {(std::uint64_t{1} << 53) + 1, ~std::uint64_t{0}}) {
    flow::JobSpec spec;
    spec.source = flow::JobSpec::Source::kBenchGen;
    spec.bench.seed = seed;
    spec.options.seed = seed;
    spec.options.verify_seed = seed;
    const std::string text = flow::job_spec_to_json(spec).dump();
    const flow::JobSpec back = flow::parse_job_spec_json(text);
    EXPECT_EQ(back.bench.seed, seed) << text;
    EXPECT_EQ(back.options.seed, seed) << text;
    EXPECT_EQ(back.options.verify_seed, seed) << text;
  }
  EXPECT_THROW(flow::parse_job_spec_json(
                   R"({"source":"bench_gen","options":{"seed":-1}})"),
               Error);
  EXPECT_THROW(flow::parse_job_spec_json(
                   R"({"source":"bench_gen","options":{"seed":1.5}})"),
               Error);
  EXPECT_THROW(flow::parse_job_spec_json(
                   R"({"source":"bench_gen","bench":{"seed":1e300}})"),
               Error);
}

/// Every bench_gen count is range-checked where the job is parsed, and
/// the error names the key: a negative edit count would otherwise compile
/// the unedited circuit, and a zero gate count or negative latch count
/// would reach the generator.
TEST(FlowSession, JobSpecRejectsOutOfRangeBenchCounts) {
  const struct {
    const char* json;
    const char* key;
  } cases[] = {
      {R"({"source":"bench_gen","bench":{"gates":0}})", "bench.gates"},
      {R"({"source":"bench_gen","bench":{"inputs":0}})", "bench.inputs"},
      {R"({"source":"bench_gen","bench":{"outputs":0}})", "bench.outputs"},
      {R"({"source":"bench_gen","bench":{"latches":-2}})", "bench.latches"},
      {R"({"source":"bench_gen","bench":{"window":-1}})", "bench.window"},
      {R"({"source":"bench_gen","bench_edits":-3})", "bench_edits"},
  };
  for (const auto& c : cases) {
    try {
      flow::parse_job_spec_json(c.json);
      ADD_FAILURE() << "accepted " << c.json;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << c.json << " -> " << e.what();
    }
  }
  // The boundary values are accepted, and resolve_job_network checks a
  // spec built in code the same way.
  flow::JobSpec spec = flow::parse_job_spec_json(
      R"({"source":"bench_gen","bench":{"gates":1,"inputs":1,"outputs":1,)"
      R"("latches":0,"window":0},"bench_edits":0})");
  EXPECT_EQ(spec.bench.n_gates, 1);
  spec.bench_edits = -3;
  EXPECT_THROW(flow::resolve_job_network(spec), Error);
}

}  // namespace
}  // namespace amdrel
