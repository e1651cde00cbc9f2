// amdrel_serve daemon tests: line-protocol round-trips (malformed input
// answers an error reply on a live connection), admission control
// (queue-full rejection), cancel-then-status, shutdown with in-flight
// jobs, and the concurrency soak — ≥64 bench_gen jobs with mixed
// priorities and mid-flight cancels, every completed bitstream
// byte-identical (same FNV-1a fingerprint and hex bytes) to a standalone
// FlowSession run of the same JobSpec. Run under TSan by the tsan CI job.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "obs/report.hpp"
#include "serve/serve.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace amdrel {
namespace {

using serve::JobState;
using serve::ServeOptions;
using serve::Server;

/// A blocking line-protocol client for the daemon under test.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends one request line, returns the parsed reply line.
  util::Json request(const std::string& line) {
    std::string out = line + "\n";
    EXPECT_EQ(::send(fd_, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
    std::string reply;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') reply.push_back(c);
    return util::parse_json(reply);
  }

 private:
  int fd_ = -1;
};

JobState state_of(const std::shared_ptr<serve::Job>& job) {
  std::lock_guard<std::mutex> lock(job->mu);
  return job->state;
}

/// Polls until job `id` reaches `want` (or any terminal state when
/// `want` is terminal-accepting via exact match); false on timeout.
bool wait_state(Server& server, std::int64_t id, JobState want,
                double timeout_s = 60.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto job = server.find_job(id);
    if (job && state_of(job) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// A quick job (tens of ms) with a parameterized circuit + priority.
std::string quick_job_json(int i) {
  return strprintf(
      "{\"source\":\"bench_gen\",\"label\":\"soak-%d\","
      "\"priority\":\"%s\","
      "\"bench\":{\"gates\":%d,\"latches\":%d,\"inputs\":8,"
      "\"outputs\":6,\"seed\":%d}%s}",
      i, i % 3 == 0 ? "high" : (i % 3 == 1 ? "normal" : "low"),
      40 + (i % 5) * 12, 2 + i % 4, 1000 + i,
      i % 9 == 0 ? ",\"return_bitstream\":true" : "");
}

/// A job slow enough to still be running while the test pokes at the
/// queue behind it (place anneal on a mid-size circuit).
flow::JobSpec slow_job(const std::string& label) {
  flow::JobSpec spec;
  spec.source = flow::JobSpec::Source::kBenchGen;
  spec.label = label;
  spec.bench.n_gates = 700;
  spec.bench.n_latches = 16;
  spec.bench.n_inputs = 12;
  spec.bench.n_outputs = 10;
  spec.bench.seed = 99;
  spec.options.verify_mode = flow::VerifyMode::kOff;
  return spec;
}

TEST(Serve, MalformedRequestsAnswerErrorsOnALiveConnection) {
  Server server;
  server.start();
  Client client(server.port());

  util::Json reply = client.request("{\"cmd\":\"ping\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reply").as_string(), "pong");

  // Garbage must answer an error reply, not kill the connection.
  reply = client.request("this is not json at all");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "bad_request");

  reply = client.request("{\"no_cmd\":1}");
  EXPECT_FALSE(reply.at("ok").as_bool());

  reply = client.request("{\"cmd\":\"frobnicate\"}");
  EXPECT_FALSE(reply.at("ok").as_bool());

  reply = client.request("{\"cmd\":\"status\"}");  // missing id
  EXPECT_FALSE(reply.at("ok").as_bool());

  reply = client.request("{\"cmd\":\"status\",\"id\":424242}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "not_found");

  // A spec without a source is rejected as bad_job.
  reply = client.request("{\"cmd\":\"submit\",\"job\":{}}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "bad_job");

  // An unknown JobSpec key fails the parse loudly.
  reply = client.request(
      "{\"cmd\":\"submit\",\"job\":{\"source\":\"blif\",\"typo\":1}}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "bad_job");

  // So does "random", which is no verify mode; the error names the modes.
  reply = client.request(
      "{\"cmd\":\"submit\",\"job\":{\"source\":\"bench_gen\","
      "\"options\":{\"verify\":\"random\"}}}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "bad_job");
  EXPECT_NE(reply.at("error").as_string().find("off, formal or both"),
            std::string::npos)
      << reply.dump();

  // So is a count out of range: a negative edit count would otherwise
  // compile the unedited circuit.
  reply = client.request(
      "{\"cmd\":\"submit\",\"job\":{\"source\":\"bench_gen\","
      "\"bench_edits\":-3}}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "bad_job");
  EXPECT_NE(reply.at("error").as_string().find("bench_edits"),
            std::string::npos)
      << reply.dump();

  // The connection survived all of the above.
  reply = client.request("{\"cmd\":\"ping\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  server.shutdown(false);
}

/// Numbers a client controls never reach an unchecked float-to-integer
/// cast: an id of 1e300 and a wait of 1e300 s each answer a typed error,
/// and the daemon keeps serving.
TEST(Serve, HostileNumbersAnswerTypedErrors) {
  Server server;
  server.start();
  Client client(server.port());

  util::Json reply = client.request("{\"cmd\":\"status\",\"id\":1e300}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "bad_request");

  reply = client.request("{\"cmd\":\"submit\",\"job\":" +
                         quick_job_json(0) + "}");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const std::int64_t id = reply.at("id").as_int();
  for (const char* timeout : {"1e300", "-1", "86401"}) {
    reply = client.request(strprintf(
        "{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,\"timeout_s\":%s}",
        static_cast<long long>(id), timeout));
    EXPECT_FALSE(reply.at("ok").as_bool()) << timeout;
    EXPECT_EQ(reply.at("reason").as_string(), "bad_request") << timeout;
  }

  // An events limit must fit an int: 2^32 + 1 used to page one event and
  // 2^31 to wrap negative (no cap).
  for (const char* limit : {"4294967297", "2147483648", "-1"}) {
    reply = client.request(
        strprintf("{\"cmd\":\"events\",\"limit\":%s}", limit));
    EXPECT_FALSE(reply.at("ok").as_bool()) << limit;
    EXPECT_EQ(reply.at("reason").as_string(), "bad_request") << limit;
  }
  for (const char* limit : {"0", "2147483647"}) {
    reply = client.request(
        strprintf("{\"cmd\":\"events\",\"limit\":%s}", limit));
    EXPECT_TRUE(reply.at("ok").as_bool()) << limit;
    EXPECT_FALSE(reply.at("events").as_array().empty()) << limit;
  }

  reply = client.request("{\"cmd\":\"ping\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  server.shutdown(false);
}

TEST(Serve, QueueFullRejectsWithReason) {
  ServeOptions options;
  options.workers = 1;
  options.max_queue = 1;
  Server server(options);
  server.start();

  // Occupy the single worker, then fill the single queue slot.
  const std::int64_t running = server.submit(slow_job("occupant"));
  ASSERT_TRUE(wait_state(server, running, JobState::kRunning));
  const std::int64_t queued = server.submit(slow_job("waiter"));
  EXPECT_EQ(server.queue_depth(), 1);

  Client client(server.port());
  util::Json reply = client.request(
      "{\"cmd\":\"submit\",\"job\":{\"source\":\"bench_gen\","
      "\"bench\":{\"gates\":50}}}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "queue_full");

  // Draining rejects even with queue space.
  server.cancel_job(queued);
  server.drain();
  reply = client.request(
      "{\"cmd\":\"submit\",\"job\":{\"source\":\"bench_gen\","
      "\"bench\":{\"gates\":50}}}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "draining");

  server.cancel_job(running);
  server.shutdown(false);
}

TEST(Serve, CancelThenStatus) {
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.port());

  const std::int64_t running = server.submit(slow_job("running"));
  ASSERT_TRUE(wait_state(server, running, JobState::kRunning));
  const std::int64_t queued = server.submit(slow_job("queued"));

  // Cancelling a queued job is immediate.
  util::Json reply = client.request(
      strprintf("{\"cmd\":\"cancel\",\"id\":%lld}",
                static_cast<long long>(queued)));
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("state").as_string(), "cancelled");
  reply = client.request(strprintf("{\"cmd\":\"status\",\"id\":%lld}",
                                   static_cast<long long>(queued)));
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("state").as_string(), "cancelled");
  EXPECT_EQ(reply.at("label").as_string(), "queued");

  // Cancelling the running job is cooperative; wait for it to land.
  reply = client.request(strprintf("{\"cmd\":\"cancel\",\"id\":%lld}",
                                   static_cast<long long>(running)));
  EXPECT_TRUE(reply.at("ok").as_bool());
  reply = client.request(
      strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                "\"timeout_s\":120}",
                static_cast<long long>(running)));
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("state").as_string(), "cancelled");
  EXPECT_EQ(server.jobs_finished(), 2);
  server.shutdown(false);
}

/// A netlist with an undriven signal fails its own job, with the reason,
/// and the daemon keeps serving: the next job still completes.
TEST(Serve, UndrivenSignalFailsOnlyThatJob) {
  std::ifstream in(std::string(AMDREL_FIXTURE_DIR) +
                   "/eq_guard_undriven.blif");
  ASSERT_TRUE(in);
  util::Json job = util::Json::make_object();
  job.set("source", "blif");
  job.set("text", std::string(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()));
  util::Json submit = util::Json::make_object();
  submit.set("cmd", "submit");
  submit.set("job", std::move(job));

  Server server;
  server.start();
  Client client(server.port());
  auto run = [&](const std::string& request) {
    util::Json reply = client.request(request);
    EXPECT_TRUE(reply.at("ok").as_bool()) << reply.dump();
    return client.request(
        strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                  "\"timeout_s\":120}",
                  static_cast<long long>(reply.at("id").as_int())));
  };
  util::Json reply = run(submit.dump());
  EXPECT_EQ(reply.at("state").as_string(), "failed") << reply.dump();
  EXPECT_NE(reply.at("error").as_string().find("undriven signal i1"),
            std::string::npos)
      << reply.dump();

  reply = run("{\"cmd\":\"submit\",\"job\":" + quick_job_json(6) + "}");
  EXPECT_EQ(reply.at("state").as_string(), "done") << reply.dump();
  server.shutdown(true);
}

/// A DUTYS text with no pad slots would size the grid forever inside a
/// worker, out of cancel's reach; it is answered bad_job at submit, and
/// the daemon keeps compiling.
TEST(Serve, BadArchIsRejectedAtSubmit) {
  Server server;
  server.start();
  Client client(server.port());
  util::Json job = util::parse_json(quick_job_json(7));
  job.set("arch", "io_per_tile 0\n");
  util::Json submit = util::Json::make_object();
  submit.set("cmd", "submit");
  submit.set("job", std::move(job));
  util::Json reply = client.request(submit.dump());
  EXPECT_FALSE(reply.at("ok").as_bool()) << reply.dump();
  EXPECT_EQ(reply.at("reason").as_string(), "bad_job") << reply.dump();
  EXPECT_NE(reply.at("error").as_string().find("io_per_tile"),
            std::string::npos)
      << reply.dump();

  reply = client.request("{\"cmd\":\"submit\",\"job\":" + quick_job_json(8) +
                         "}");
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  reply = client.request(
      strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                "\"timeout_s\":120}",
                static_cast<long long>(reply.at("id").as_int())));
  EXPECT_EQ(reply.at("state").as_string(), "done") << reply.dump();
  server.shutdown(true);
}

TEST(Serve, ShutdownDrainsInflightJobs) {
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  server.start();

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(server.submit(
        flow::parse_job_spec_json(quick_job_json(i))));
  }
  server.shutdown(true);  // drain: every queued job still runs

  EXPECT_EQ(server.jobs_finished(), static_cast<std::int64_t>(ids.size()));
  for (const std::int64_t id : ids) {
    const auto job = server.find_job(id);
    ASSERT_TRUE(job);
    EXPECT_EQ(state_of(job), JobState::kDone) << "job " << id;
  }
}

TEST(Serve, ShutdownNoDrainCancelsPendingJobs) {
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  server.start();

  const std::int64_t running = server.submit(slow_job("inflight"));
  ASSERT_TRUE(wait_state(server, running, JobState::kRunning));
  std::vector<std::int64_t> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(server.submit(slow_job("q")));

  server.shutdown(false);  // cancel everything pending first

  for (const std::int64_t id : queued) {
    EXPECT_EQ(state_of(server.find_job(id)), JobState::kCancelled);
  }
  // The in-flight job observed the cooperative cancel (or won the race
  // and completed); either way it is terminal and accounted for.
  EXPECT_TRUE(serve::job_state_terminal(state_of(server.find_job(running))));
  EXPECT_EQ(server.jobs_finished(), 4);
}

TEST(Serve, StatusAndResultReportQueueWaitAndRunWall) {
  Server server;
  server.start();
  Client client(server.port());

  util::Json reply = client.request(
      "{\"cmd\":\"submit\",\"job\":" + quick_job_json(1) + "}");
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const std::int64_t id = reply.at("id").as_int();

  reply = client.request(
      strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                "\"timeout_s\":120}",
                static_cast<long long>(id)));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  ASSERT_EQ(reply.at("state").as_string(), "done");
  EXPECT_GE(reply.at("queue_wait_s").as_number(), 0.0);
  EXPECT_GT(reply.at("run_wall_s").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(reply.at("run_wall_s").as_number(),
                   reply.at("wall_s").as_number());

  reply = client.request(strprintf("{\"cmd\":\"status\",\"id\":%lld}",
                                   static_cast<long long>(id)));
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_GE(reply.at("queue_wait_s").as_number(), 0.0);
  EXPECT_GT(reply.at("run_wall_s").as_number(), 0.0);
  server.shutdown(true);
}

TEST(Serve, QueuedCancelReportsZeroWallAndItsQueueWait) {
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.port());

  const std::int64_t running = server.submit(slow_job("occupant"));
  ASSERT_TRUE(wait_state(server, running, JobState::kRunning));
  const std::int64_t queued = server.submit(slow_job("victim"));
  server.cancel_job(queued);

  // A job cancelled while queued never ran: wall_s is an explicit 0 (not
  // a stale default) and queue_wait_s closes out the wait it did spend.
  util::Json reply = client.request(
      strprintf("{\"cmd\":\"result\",\"id\":%lld}",
                static_cast<long long>(queued)));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  EXPECT_EQ(reply.at("state").as_string(), "cancelled");
  EXPECT_DOUBLE_EQ(reply.at("wall_s").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(reply.at("run_wall_s").as_number(), 0.0);
  EXPECT_GE(reply.at("queue_wait_s").as_number(), 0.0);

  server.cancel_job(running);
  server.shutdown(false);
}

TEST(Serve, StatsSummarizesTheDaemon) {
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  server.start();
  Client client(server.port());

  util::Json reply = client.request(
      "{\"cmd\":\"submit\",\"job\":" + quick_job_json(2) + "}");
  const std::int64_t id = reply.at("id").as_int();
  client.request(strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                           "\"timeout_s\":120}",
                           static_cast<long long>(id)));

  util::Json stats = client.request("{\"cmd\":\"stats\"}");
  ASSERT_TRUE(stats.at("ok").as_bool()) << stats.dump();
  EXPECT_GE(stats.at("uptime_s").as_number(), 0.0);
  EXPECT_EQ(stats.at("workers").as_int(), 2);
  EXPECT_FALSE(stats.at("draining").as_bool());
  EXPECT_EQ(stats.at("queue_depth").at("total").as_int(), 0);
  EXPECT_EQ(stats.at("jobs").at("submitted").as_int(), 1);
  EXPECT_EQ(stats.at("jobs").at("done").as_int(), 1);
  EXPECT_EQ(stats.at("jobs").at("running").as_int(), 0);
  // Latency histograms come from the process-global registry, so other
  // servers in this test binary may have contributed: loose bounds only.
  EXPECT_GE(stats.at("queue_wait_s").at("count").as_int(), 1);
  EXPECT_GE(stats.at("run_wall_s").at("count").as_int(), 1);
  EXPECT_GE(stats.at("events").at("next_seq").as_int(), 3);
  server.shutdown(true);
}

TEST(Serve, EventsStreamRecordsTransitionsAndPages) {
  Server server;
  server.start();
  Client client(server.port());

  util::Json reply = client.request(
      "{\"cmd\":\"submit\",\"job\":" + quick_job_json(3) + "}");
  const std::int64_t id = reply.at("id").as_int();
  client.request(strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                           "\"timeout_s\":120}",
                           static_cast<long long>(id)));

  util::Json events = client.request("{\"cmd\":\"events\"}");
  ASSERT_TRUE(events.at("ok").as_bool()) << events.dump();
  std::vector<std::string> kinds;
  for (const util::Json& e : events.at("events").as_array()) {
    if (e.at("id").as_int() == id) kinds.push_back(e.at("kind").as_string());
  }
  ASSERT_EQ(kinds.size(), 3u) << events.dump();
  EXPECT_EQ(kinds[0], "submitted");
  EXPECT_EQ(kinds[1], "started");
  EXPECT_EQ(kinds[2], "done");
  EXPECT_EQ(events.at("dropped").as_int(), 0);

  // Paging: limit=1 returns the oldest unseen event and a cursor that
  // resumes exactly after it.
  util::Json page = client.request("{\"cmd\":\"events\",\"limit\":1}");
  ASSERT_EQ(page.at("events").as_array().size(), 1u);
  const std::int64_t first_seq =
      page.at("events").as_array()[0].at("seq").as_int();
  EXPECT_EQ(page.at("next_after").as_int(), first_seq);
  page = client.request(
      strprintf("{\"cmd\":\"events\",\"after\":%lld,\"limit\":1}",
                static_cast<long long>(first_seq)));
  ASSERT_EQ(page.at("events").as_array().size(), 1u);
  EXPECT_GT(page.at("events").as_array()[0].at("seq").as_int(), first_seq);
  server.shutdown(true);
}

TEST(Serve, EventRingIsBoundedAndCountsDrops) {
  ServeOptions options;
  options.workers = 1;
  options.event_buffer = 4;
  Server server(options);
  server.start();

  // 3 quick jobs × (submitted+started+done) = 9 events through a ring
  // of 4: the oldest are dropped and accounted for.
  for (int i = 0; i < 3; ++i) {
    server.submit(flow::parse_job_spec_json(quick_job_json(i)));
  }
  server.shutdown(true);
  const auto events = server.events_after(0);
  EXPECT_LE(events.size(), 4u);
  ASSERT_FALSE(events.empty());
  EXPECT_GT(events.front().seq, 1);  // seq gap ⇒ overflow happened
}

TEST(Serve, WatchdogFlagsSlowJobs) {
  ServeOptions options;
  options.workers = 1;
  options.slow_job_s = 0.05;
  Server server(options);
  server.start();

  const std::int64_t id = server.submit(slow_job("laggard"));
  ASSERT_TRUE(wait_state(server, id, JobState::kRunning));
  // The watchdog scans every slow_job_s/4; give it a few periods.
  bool flagged = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (!flagged && std::chrono::steady_clock::now() < deadline) {
    for (const auto& e : server.events_after(0)) {
      if (e.kind == "slow_job" && e.job_id == id) flagged = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(flagged);
  // One firing per job, not one per scan.
  server.cancel_job(id);
  server.shutdown(false);
  int firings = 0;
  for (const auto& e : server.events_after(0)) {
    if (e.kind == "slow_job" && e.job_id == id) ++firings;
  }
  EXPECT_EQ(firings, 1);
}

TEST(Serve, MetricsServesPrometheusTextExposition) {
  Server server;
  server.start();
  Client client(server.port());

  util::Json reply = client.request(
      "{\"cmd\":\"submit\",\"job\":" + quick_job_json(4) + "}");
  const std::int64_t id = reply.at("id").as_int();
  client.request(strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                           "\"timeout_s\":120}",
                           static_cast<long long>(id)));

  reply = client.request("{\"cmd\":\"metrics\",\"format\":\"prometheus\"}");
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  EXPECT_EQ(reply.at("format").as_string(), "prometheus");
  const std::string text = reply.at("text").as_string();
  EXPECT_NE(text.find("# TYPE amdrel_serve_jobs_submitted counter"),
            std::string::npos)
      << text.substr(0, 2000);
  EXPECT_NE(text.find("# TYPE amdrel_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("amdrel_serve_run_wall_s{quantile=\"0.5\"}"),
            std::string::npos);
  server.shutdown(true);
}

TEST(Serve, TraceCommandRequiresTraceDir) {
  Server server;  // no trace_dir: per-job tracing off
  server.start();
  Client client(server.port());
  util::Json reply = client.request(
      "{\"cmd\":\"submit\",\"job\":" + quick_job_json(5) + "}");
  const std::int64_t id = reply.at("id").as_int();
  client.request(strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                           "\"timeout_s\":120}",
                           static_cast<long long>(id)));
  reply = client.request(strprintf("{\"cmd\":\"trace\",\"id\":%lld}",
                                   static_cast<long long>(id)));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reason").as_string(), "no_trace");
  server.shutdown(true);
}

TEST(Serve, SoakConcurrentJobsMatchStandaloneBitstreams) {
  constexpr int kJobs = 72;  // ≥64 per the design contract
  const std::string trace_dir = ::testing::TempDir() + "/serve_soak_traces";
  ::mkdir(trace_dir.c_str(), 0755);
  ServeOptions options;
  options.workers = 4;
  options.max_queue = kJobs;
  options.trace_dir = trace_dir;
  Server server(options);
  server.start();
  Client client(server.port());

  // Submit everything through the protocol, mixed priorities.
  std::vector<std::int64_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    util::Json reply = client.request(
        "{\"cmd\":\"submit\",\"job\":" + quick_job_json(i) + "}");
    ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
    ids.push_back(reply.at("id").as_int());
  }
  // Mid-flight cancels: some land on queued jobs, some on running ones.
  std::vector<bool> cancelled(kJobs, false);
  for (int i = 0; i < kJobs; ++i) {
    if (i % 7 != 3) continue;
    cancelled[i] = true;
    util::Json reply = client.request(
        strprintf("{\"cmd\":\"cancel\",\"id\":%lld}",
                  static_cast<long long>(ids[i])));
    EXPECT_TRUE(reply.at("ok").as_bool());
  }

  int done = 0, cancelled_seen = 0;
  for (int i = 0; i < kJobs; ++i) {
    util::Json reply = client.request(
        strprintf("{\"cmd\":\"result\",\"id\":%lld,\"wait\":true,"
                  "\"timeout_s\":300}",
                  static_cast<long long>(ids[i])));
    ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
    const std::string state = reply.at("state").as_string();
    if (!cancelled[i]) {
      ASSERT_EQ(state, "done") << reply.dump();
    }
    if (state == "cancelled") {
      ++cancelled_seen;
      continue;
    }
    ASSERT_EQ(state, "done") << reply.dump();
    ++done;

    // Byte-identity against a standalone run of the same JobSpec.
    const flow::JobSpec spec = flow::parse_job_spec_json(quick_job_json(i));
    flow::FlowSession standalone(spec);
    ASSERT_EQ(standalone.run_until(spec.until), flow::SessionState::kDone);
    const util::Json expect =
        flow::job_result_to_json(spec, standalone.result());

    const util::Json& got = reply.at("result");
    for (const char* key : {"bitstream_fnv", "bitstream_bytes",
                            "config_bits", "channel_width", "luts"}) {
      ASSERT_NE(got.get(key), nullptr) << key << ": " << got.dump();
      EXPECT_EQ(got.at(key).dump(), expect.at(key).dump())
          << "job " << i << " key " << key;
    }
    if (spec.return_bitstream) {
      EXPECT_EQ(got.at("bitstream_hex").as_string(),
                expect.at("bitstream_hex").as_string())
          << "job " << i;
    }
  }
  EXPECT_EQ(done + cancelled_seen, kJobs);
  EXPECT_GE(done, kJobs - kJobs / 7 - 1);

  // Per-job trace purity: with 4 workers interleaving 72 jobs, every
  // spooled trace must contain only its own job's events — each line
  // tagged with that job's trace id, exactly one serve.job root, and the
  // flow stages reconstructed as its children.
  std::vector<std::string> trace_bodies;
  std::vector<std::string> trace_ids;
  int traced = 0;
  for (int i = 0; i < kJobs; ++i) {
    util::Json reply = client.request(
        strprintf("{\"cmd\":\"trace\",\"id\":%lld}",
                  static_cast<long long>(ids[i])));
    if (!reply.at("ok").as_bool()) {
      // Jobs cancelled while still queued never ran, so they have no
      // spool — the only acceptable failure.
      ASSERT_TRUE(cancelled[i]) << reply.dump();
      EXPECT_EQ(reply.at("reason").as_string(), "no_trace");
      continue;
    }
    ++traced;
    EXPECT_TRUE(reply.at("complete").as_bool());
    const std::string want_trace =
        strprintf("job-%lld", static_cast<long long>(ids[i]));
    const std::string& body = reply.at("trace_jsonl").as_string();
    std::istringstream lines(body);
    std::size_t n_lines = 0;
    for (std::string line; std::getline(lines, line); ++n_lines) {
      obs::TraceEvent e;
      ASSERT_TRUE(obs::parse_trace_line(line, &e)) << line;
      ASSERT_EQ(e.trace, want_trace) << "foreign event in job trace: "
                                     << line;
    }
    ASSERT_GT(n_lines, 0u);
    const std::string state =
        client.request(strprintf("{\"cmd\":\"status\",\"id\":%lld}",
                                 static_cast<long long>(ids[i])))
            .at("state")
            .as_string();
    if (state == "done" && trace_bodies.size() < 2) {
      trace_bodies.push_back(body);
      trace_ids.push_back(want_trace);
    }
  }
  EXPECT_GE(traced, done);

  // Concatenate two jobs' spools into one interleaved stream: the
  // id-based analyzer must reconstruct one exact serve.job tree per job,
  // with that job's stage spans as children.
  ASSERT_EQ(trace_bodies.size(), 2u);
  std::istringstream merged(trace_bodies[0] + trace_bodies[1]);
  const obs::TraceReport report = obs::analyze_trace(merged);
  EXPECT_EQ(report.traces, 2u);
  EXPECT_EQ(report.unmatched_ends, 0u);
  ASSERT_EQ(report.roots.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    const obs::SpanNode& root = report.roots[r];
    EXPECT_EQ(root.name, "serve.job");
    // The two roots complete in job-finish order; match by trace id.
    EXPECT_TRUE(root.trace == trace_ids[0] || root.trace == trace_ids[1])
        << root.trace;
    int stage_children = 0;
    for (const obs::SpanNode& child : root.children) {
      EXPECT_EQ(child.trace, root.trace);
      if (child.name.rfind("flow.", 0) == 0) ++stage_children;
    }
    EXPECT_EQ(stage_children, flow::kNumStages) << "root " << root.trace;
  }
  EXPECT_NE(report.roots[0].trace, report.roots[1].trace);

  // The registry-backed metrics reply accounts for every job.
  util::Json metrics = client.request("{\"cmd\":\"metrics\"}");
  EXPECT_TRUE(metrics.at("ok").as_bool());
  EXPECT_EQ(metrics.at("server").at("jobs_submitted").as_int(), kJobs);
  EXPECT_EQ(metrics.at("server").at("jobs_finished").as_int(), kJobs);
  EXPECT_EQ(static_cast<int>(metrics.at("jobs").as_array().size()), kJobs);

  client.request("{\"cmd\":\"shutdown\"}");
  EXPECT_TRUE(server.shutdown_requested());
  server.shutdown(true);
}

}  // namespace
}  // namespace amdrel
