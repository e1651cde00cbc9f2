#pragma once
// amdrel_serve — a long-lived compile service wrapping the Fig. 11 flow.
//
// The daemon accepts jobs over a newline-delimited JSON line protocol on
// a TCP socket (one request per line, one reply per line; DESIGN.md
// §13.3). Each job is a flow::JobSpec executed as a flow::FlowSession on
// the repo's ThreadPool behind a three-level priority queue with
// admission control: submits beyond `max_queue` waiting jobs are
// rejected with a machine-readable reason instead of queueing unbounded.
//
// Concurrent jobs share the process-wide read-only caches: the
// elaborated architecture (keyed on the job's DUTYS text, parsed once)
// and the deduplicated RR pattern templates
// (route::RrPatternTemplates::shared). Everything else a session touches
// is session-local, so jobs are bit-identical to standalone runs of the
// same spec — the soak test in tests/serve_test.cpp asserts exactly
// that across ≥64 concurrent jobs.
//
// Observability (DESIGN.md §13.3): every job records submitted/started/
// terminal timestamps; queue-wait and run-latency land in the PR-5
// metrics registry histograms (serve.queue_wait_s / serve.run_wall_s)
// alongside per-state and per-priority queue gauges. Structured daemon
// events (admission, rejection, state transitions, cancels, slow-job
// watchdog firings) accumulate in a bounded ring queryable via the
// `events` command; `stats` is the one-call operational summary. With
// ServeOptions::trace_dir set, each job runs under its own
// obs::TraceContext spooling `<trace_dir>/job-<id>.jsonl` tagged with
// trace id "job-<id>" (fetched over the wire with `trace`), and
// `metrics` additionally serves Prometheus text exposition with
// {"format":"prometheus"}.
//
// Lifecycle: cancel() is cooperative (FlowSession::cancel at the next
// stage/iteration boundary); shutdown(drain=true) — also triggered by
// SIGTERM in run_server — stops accepting connections and submits,
// finishes every queued and running job, then joins all threads.
// shutdown(drain=false) additionally cancels whatever is queued or
// in flight first.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace amdrel::serve {

struct ServeOptions {
  int port = 0;        ///< TCP port to listen on; 0 = ephemeral (tests)
  int workers = 0;     ///< concurrent flow sessions (0 = hw concurrency)
  int max_queue = 64;  ///< admission control: max *waiting* jobs
  /// Per-job trace spool directory (must exist). Empty = per-job tracing
  /// off. Each job writes `<trace_dir>/job-<id>.jsonl` under its own
  /// obs::TraceContext with trace id "job-<id>".
  std::string trace_dir;
  /// Ring-buffer capacity of the `events` command (oldest dropped).
  int event_buffer = 256;
  /// Slow-job watchdog: a running job that exceeds this wall time fires
  /// one `slow_job` daemon event and bumps serve.slow_jobs. 0 = off.
  double slow_job_s = 60.0;
};

/// Lifecycle of a submitted job.
enum class JobState : int {
  kQueued = 0,  ///< waiting in the priority queue
  kRunning,     ///< a worker is executing the FlowSession
  kDone,        ///< ran to spec.until; result available
  kFailed,      ///< a stage threw; error (+ failing stage) recorded
  kCancelled,   ///< cancelled while queued or mid-run
};
const char* job_state_name(JobState state);
bool job_state_terminal(JobState state);

/// One submitted job. All mutable fields are guarded by `mu`; `done_cv`
/// fires on every state change (the blocking `result` wait uses it).
struct Job {
  std::int64_t id = 0;
  flow::JobSpec spec;

  std::mutex mu;
  std::condition_variable done_cv;
  JobState state = JobState::kQueued;
  std::unique_ptr<flow::FlowSession> session;  ///< non-null while running
  util::Json result = util::Json::make_object();  ///< terminal payload
  std::string error;         ///< kFailed: the stage exception message
  std::string failed_stage;  ///< kFailed: machine-readable stage name
  std::chrono::steady_clock::time_point submitted_tp{};  ///< admission
  std::chrono::steady_clock::time_point started_tp{};    ///< run start
  /// Submission → run start (or → cancel for jobs cancelled while
  /// queued). Negative while still waiting in the queue.
  double queue_wait_s = -1.0;
  /// Run wall time. 0 until terminal — and explicitly 0 for a job
  /// cancelled while queued (it left the queue having run for 0s; the
  /// wait it did accumulate is queue_wait_s).
  double wall_s = 0.0;
  std::string trace_path;    ///< per-job spool file ("" = tracing off)
  bool cancel_requested = false;
  bool slow_reported = false;  ///< watchdog fired for this job already
};

/// One structured daemon event for the bounded `events` ring: admission,
/// rejection, state transitions, cancels, watchdog firings. `t_s` is
/// seconds since Server::start().
struct DaemonEvent {
  std::int64_t seq = 0;   ///< monotone from 1; gaps = ring overflow
  double t_s = 0.0;
  std::string kind;       ///< submitted|rejected|started|done|failed|
                          ///< cancelled|cancel_requested|slow_job|...
  std::int64_t job_id = 0;  ///< 0 when not job-specific (rejections)
  std::string detail;     ///< human-readable context ("" if none)
};

/// The embeddable server (tests construct it directly on port 0;
/// amdrel_serve wraps it in run_server with signal handling).
class Server {
 public:
  explicit Server(const ServeOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor and worker pool. Throws
  /// Error when the port cannot be bound.
  void start();
  /// The bound port (after start; the actual port when options.port = 0).
  int port() const { return port_; }

  /// Stops accepting connections and submits; waits for queued+running
  /// jobs (drain=true) or cancels them first (drain=false); joins every
  /// thread. Idempotent, callable from any thread — including a
  /// connection thread via the `shutdown` command, which defers to the
  /// owner through shutdown_requested().
  void shutdown(bool drain = true);

  /// True once a `shutdown` protocol command or request_shutdown() has
  /// fired; run_server polls this. `drain_out` receives the requested
  /// mode when non-null.
  bool shutdown_requested(bool* drain_out = nullptr) const;
  void request_shutdown(bool drain);

  /// Stop admitting new jobs (submits reject with reason "draining");
  /// running and queued jobs are unaffected.
  void drain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // ---- introspection (tests / the metrics command) ----
  int queue_depth() const;
  std::int64_t jobs_submitted() const;
  std::int64_t jobs_finished() const;  ///< done + failed + cancelled
  /// Ring-buffer events with seq > `after_seq`, oldest first, at most
  /// `limit` (≤0: no cap beyond the ring itself).
  std::vector<DaemonEvent> events_after(std::int64_t after_seq,
                                        int limit = 0) const;

  /// Direct (in-process) submit of an already-parsed spec — the same
  /// admission path the protocol uses. Returns the job id, or throws
  /// Error with the rejection reason.
  std::int64_t submit(const flow::JobSpec& spec);
  std::shared_ptr<Job> find_job(std::int64_t id) const;
  /// Requests cooperative cancellation; returns the state observed.
  JobState cancel_job(std::int64_t id);

 private:
  void accept_loop();
  void connection_loop(int fd);
  void worker_loop();
  void run_job(const std::shared_ptr<Job>& job);
  std::shared_ptr<Job> pop_job();
  void watchdog_loop();
  /// Appends to the bounded event ring (oldest dropped) and stamps seq.
  void push_event(const char* kind, std::int64_t job_id,
                  std::string detail = "");
  /// Refreshes the serve.queue_depth* / serve.jobs_running gauges.
  void update_gauges();
  double uptime_s() const;

  std::string handle_line(const std::string& line);
  util::Json cmd_submit(const util::Json& req);
  util::Json cmd_status(const util::Json& req);
  util::Json cmd_result(const util::Json& req);
  util::Json cmd_cancel(const util::Json& req);
  util::Json cmd_metrics(const util::Json& req) const;
  util::Json cmd_stats() const;
  util::Json cmd_events(const util::Json& req) const;
  util::Json cmd_trace(const util::Json& req) const;

  ServeOptions options_;
  /// Atomic: shutdown() closes + clears it while accept_loop reads it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  int workers_ = 0;  ///< resolved worker count (after start)
  std::chrono::steady_clock::time_point start_tp_{};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Job table + priority queue (one deque per JobPriority, popped
  // high→low, FIFO within a level).
  mutable std::mutex jobs_mu_;
  std::condition_variable queue_cv_;
  std::map<std::int64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::shared_ptr<Job>> queue_[3];
  std::int64_t next_id_ = 1;
  std::int64_t finished_ = 0;
  int running_ = 0;  ///< jobs currently in kRunning (guarded by jobs_mu_)
  bool queue_stopped_ = false;

  // Bounded daemon-event ring (its own lock: pushed under job->mu from
  // cancel paths, so it must never wrap back to jobs_mu_ or job->mu).
  mutable std::mutex events_mu_;
  std::deque<DaemonEvent> events_;
  std::int64_t next_event_seq_ = 1;
  std::int64_t events_dropped_ = 0;

  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;
  mutable std::mutex conns_mu_;
  std::vector<std::pair<int, std::thread>> conns_;

  std::thread watchdog_;
  mutable std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  mutable std::mutex shutdown_mu_;
  bool shutdown_requested_ = false;
  bool shutdown_drain_ = true;
};

/// The amdrel_serve main loop: start, wait for SIGTERM/SIGINT or a
/// `shutdown` command, drain, exit 0. Prints the bound port on stdout
/// ("listening on <port>") so scripts can scrape it.
int run_server(const ServeOptions& options);

}  // namespace amdrel::serve
