#include "serve/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "arch/arch.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::serve {

namespace {

using std::chrono::steady_clock;

/// Cap on one request line — inline VHDL/BLIF text lives in the line.
constexpr std::size_t kMaxLine = 16u << 20;

/// Longest `result` wait a client may ask for (one day).
constexpr double kMaxTimeoutS = 86400.0;

/// Process-wide cache of elaborated architectures, keyed on the exact
/// DUTYS text. Read_arch_string is deterministic, so every job with the
/// same arch text shares one parsed copy instead of re-elaborating per
/// job (the RR-side sharing lives in route::RrPatternTemplates).
const arch::ArchSpec& cached_arch(const std::string& text) {
  static std::mutex mu;
  static auto* cache = new std::unordered_map<std::string, arch::ArchSpec>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(text);
  if (it == cache->end()) {
    it = cache->emplace(text, arch::read_arch_string(text)).first;
  }
  return it->second;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

util::Json error_reply(const std::string& message,
                       const std::string& reason = "") {
  util::Json obj = util::Json::make_object();
  obj.set("ok", false);
  obj.set("error", message);
  if (!reason.empty()) obj.set("reason", reason);
  return obj;
}

std::int64_t req_job_id(const util::Json& req) {
  const util::Json* id = req.get("id");
  if (id == nullptr) throw Error("missing 'id'");
  return id->as_int();
}

double seconds_between(steady_clock::time_point a, steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One histogram from the registry snapshot as a JSON summary object
/// (zeros when the histogram was never registered). Registry metrics are
/// process-global, so in a multi-server process these aggregate across
/// every Server instance.
util::Json histogram_json(const obs::MetricsSnapshot& snap,
                          const std::string& name) {
  util::Json out = util::Json::make_object();
  for (const auto& h : snap.histograms) {
    if (h.name != name) continue;
    out.set("count", static_cast<std::int64_t>(h.count));
    out.set("sum", h.sum);
    out.set("min", h.min);
    out.set("max", h.max);
    out.set("p50", h.p50);
    out.set("p95", h.p95);
    return out;
  }
  out.set("count", static_cast<std::int64_t>(0));
  return out;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool job_state_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

Server::Server(const ServeOptions& options) : options_(options) {
  if (options_.max_queue < 1) options_.max_queue = 1;
  if (options_.event_buffer < 1) options_.event_buffer = 1;
}

Server::~Server() { shutdown(false); }

void Server::start() {
  AMDREL_CHECK_MSG(!started_.exchange(true), "server already started");
  start_tp_ = steady_clock::now();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw Error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(strprintf("serve: cannot listen on port %d", options_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  int workers = options_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1) workers = 1;
  }
  workers_ = workers;
  pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    pool_->submit([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  if (options_.slow_job_s > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket gone
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace_back(fd, std::thread([this, fd] { connection_loop(fd); }));
  }
}

void Server::connection_loop(int fd) {
  std::string buf;
  char chunk[65536];
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!send_all(fd, handle_line(line))) break;
      continue;
    }
    if (buf.size() > kMaxLine) {
      send_all(fd, error_reply("request line too long", "overflow").dump() +
                       "\n");
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF / error / shutdown kick
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
}

std::string Server::handle_line(const std::string& line) {
  util::Json reply;
  try {
    const util::Json req = util::parse_json(line);
    if (!req.is_object()) throw Error("expected a JSON object");
    const util::Json* cmd = req.get("cmd");
    if (cmd == nullptr) throw Error("missing 'cmd'");
    const std::string name = cmd->as_string();
    if (name == "ping") {
      reply = util::Json::make_object();
      reply.set("ok", true);
      reply.set("reply", "pong");
    } else if (name == "submit") {
      reply = cmd_submit(req);
    } else if (name == "status") {
      reply = cmd_status(req);
    } else if (name == "result") {
      reply = cmd_result(req);
    } else if (name == "cancel") {
      reply = cmd_cancel(req);
    } else if (name == "metrics") {
      reply = cmd_metrics(req);
    } else if (name == "stats") {
      reply = cmd_stats();
    } else if (name == "events") {
      reply = cmd_events(req);
    } else if (name == "trace") {
      reply = cmd_trace(req);
    } else if (name == "drain") {
      drain();
      reply = util::Json::make_object();
      reply.set("ok", true);
      reply.set("draining", true);
      reply.set("queue_depth", queue_depth());
    } else if (name == "shutdown") {
      const util::Json* d = req.get("drain");
      request_shutdown(d == nullptr || d->as_bool());
      reply = util::Json::make_object();
      reply.set("ok", true);
      reply.set("shutting_down", true);
    } else {
      throw Error("unknown command '" + name + "'");
    }
  } catch (const std::exception& e) {
    // Malformed requests answer with an error reply on the same line —
    // the connection stays usable (protocol test: garbage must not take
    // the daemon down).
    reply = error_reply(e.what(), "bad_request");
  }
  return reply.dump() + "\n";
}

void Server::push_event(const char* kind, std::int64_t job_id,
                        std::string detail) {
  std::lock_guard<std::mutex> lock(events_mu_);
  DaemonEvent e;
  e.seq = next_event_seq_++;
  e.t_s = uptime_s();
  e.kind = kind;
  e.job_id = job_id;
  e.detail = std::move(detail);
  events_.push_back(std::move(e));
  const auto cap = static_cast<std::size_t>(options_.event_buffer);
  while (events_.size() > cap) {
    events_.pop_front();
    ++events_dropped_;
  }
}

std::vector<DaemonEvent> Server::events_after(std::int64_t after_seq,
                                              int limit) const {
  std::lock_guard<std::mutex> lock(events_mu_);
  std::vector<DaemonEvent> out;
  for (const DaemonEvent& e : events_) {
    if (e.seq <= after_seq) continue;
    out.push_back(e);
    // Oldest-first page of `limit`: the client advances `after` to the
    // last seq it saw, so a capped reply never skips events.
    if (limit > 0 && static_cast<int>(out.size()) >= limit) break;
  }
  return out;
}

void Server::update_gauges() {
  static obs::Gauge& g_depth = obs::gauge("serve.queue_depth");
  static obs::Gauge& g_low = obs::gauge("serve.queue_depth_low");
  static obs::Gauge& g_normal = obs::gauge("serve.queue_depth_normal");
  static obs::Gauge& g_high = obs::gauge("serve.queue_depth_high");
  static obs::Gauge& g_running = obs::gauge("serve.jobs_running");
  int depth[3];
  int running;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (int p = 0; p < 3; ++p) depth[p] = static_cast<int>(queue_[p].size());
    running = running_;
  }
  g_low.set(depth[0]);
  g_normal.set(depth[1]);
  g_high.set(depth[2]);
  g_depth.set(depth[0] + depth[1] + depth[2]);
  g_running.set(running);
}

double Server::uptime_s() const {
  if (start_tp_ == steady_clock::time_point{}) return 0.0;
  return seconds_between(start_tp_, steady_clock::now());
}

std::int64_t Server::submit(const flow::JobSpec& spec) {
  static obs::Counter& c_submitted = obs::counter("serve.jobs_submitted");
  static obs::Counter& c_rejected = obs::counter("serve.jobs_rejected");
  if (!spec.runnable()) {
    c_rejected.add(1);
    push_event("rejected", 0, "bad_job: missing source");
    throw Error("job spec: missing 'source'");
  }
  if (draining() || stopping_.load(std::memory_order_acquire)) {
    c_rejected.add(1);
    push_event("rejected", 0, "draining");
    throw Error("server is draining; submit rejected");
  }
  auto job = std::make_shared<Job>();
  job->spec = spec;
  if (!spec.arch_text.empty()) {
    // Elaborated here, through the cache: a bad DUTYS text is rejected
    // at submit, before a worker could hang on it.
    try {
      job->spec.options.arch = cached_arch(spec.arch_text);
    } catch (const Error& e) {
      c_rejected.add(1);
      push_event("rejected", 0, std::string("bad_job: ") + e.what());
      throw;
    }
    job->spec.arch_text.clear();
  }
  job->submitted_tp = steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    int waiting = 0;
    for (const auto& q : queue_) waiting += static_cast<int>(q.size());
    if (waiting >= options_.max_queue) {
      c_rejected.add(1);
      push_event("rejected", 0,
                 strprintf("queue_full (%d waiting)", waiting));
      throw Error(strprintf("queue full (%d waiting jobs); retry later",
                            waiting));
    }
    job->id = next_id_++;
    jobs_[job->id] = job;
    queue_[static_cast<int>(spec.priority)].push_back(job);
  }
  c_submitted.add(1);
  push_event("submitted", job->id,
             spec.label.empty()
                 ? std::string(flow::job_priority_name(spec.priority))
                 : spec.label + " " + flow::job_priority_name(spec.priority));
  update_gauges();
  queue_cv_.notify_one();
  return job->id;
}

std::shared_ptr<Job> Server::find_job(std::int64_t id) const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobState Server::cancel_job(std::int64_t id) {
  static obs::Counter& c_cancelled = obs::counter("serve.jobs_cancelled");
  static obs::Histogram& h_wait = obs::histogram("serve.queue_wait_s");
  const std::shared_ptr<Job> job = find_job(id);
  if (!job) throw Error(strprintf("no such job %lld",
                                  static_cast<long long>(id)));
  JobState observed;
  bool cancelled_queued = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->cancel_requested = true;
    if (job->state == JobState::kQueued) {
      // Still waiting: cancel immediately; pop_job discards it later.
      // The job leaves the queue having run for 0 seconds — report that
      // explicitly (wall_s = 0, a terminal value) and close out the
      // queue wait it did accumulate.
      job->state = JobState::kCancelled;
      job->queue_wait_s =
          seconds_between(job->submitted_tp, steady_clock::now());
      job->wall_s = 0.0;
      {
        std::lock_guard<std::mutex> jl(jobs_mu_);
        ++finished_;
      }
      c_cancelled.add(1);
      h_wait.observe(job->queue_wait_s);
      cancelled_queued = true;
      job->done_cv.notify_all();
    } else if (job->state == JobState::kRunning && job->session) {
      job->session->cancel();  // cooperative; worker observes + finalizes
    }
    observed = job->state;
  }
  push_event("cancel_requested", id);
  if (cancelled_queued) {
    push_event("cancelled", id, "while queued");
    update_gauges();
  }
  return observed;
}

std::shared_ptr<Job> Server::pop_job() {
  std::unique_lock<std::mutex> lock(jobs_mu_);
  for (;;) {
    for (int p = 2; p >= 0; --p) {  // high → low, FIFO within a level
      auto& q = queue_[p];
      while (!q.empty()) {
        std::shared_ptr<Job> job = q.front();
        q.pop_front();
        return job;
      }
    }
    if (queue_stopped_) return nullptr;
    queue_cv_.wait(lock);
  }
}

void Server::worker_loop() {
  while (std::shared_ptr<Job> job = pop_job()) {
    run_job(job);
  }
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  static obs::Counter& c_done = obs::counter("serve.jobs_done");
  static obs::Counter& c_failed = obs::counter("serve.jobs_failed");
  static obs::Counter& c_cancelled = obs::counter("serve.jobs_cancelled");
  static obs::Histogram& h_wait = obs::histogram("serve.queue_wait_s");
  static obs::Histogram& h_run = obs::histogram("serve.run_wall_s");

  flow::JobSpec spec;
  double queue_wait_s = 0.0;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    job->state = JobState::kRunning;
    job->started_tp = steady_clock::now();
    job->queue_wait_s = seconds_between(job->submitted_tp, job->started_tp);
    queue_wait_s = job->queue_wait_s;
    spec = job->spec;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    ++running_;
  }
  h_wait.observe(queue_wait_s);
  push_event("started", job->id, strprintf("waited %.3fs", queue_wait_s));
  update_gauges();

  JobState final_state = JobState::kFailed;
  std::string error, failed_stage;
  util::Json result = util::Json::make_object();
  double wall_s = 0.0;
  {
    // Per-job trace spool: with trace_dir set, everything this job emits
    // while running — stage spans, kernel points — lands in its own
    // JSONL file under an obs::TraceContext tagged "job-<id>", wrapped
    // in one serve.job root span. The scope closes (ending the span and
    // flushing+closing the spool) before the terminal state is
    // committed, so a `trace` fetch after `result` sees a complete file.
    std::unique_ptr<obs::JsonlSink> spool;
    std::unique_ptr<obs::TraceContext> trace_ctx;
    if (!options_.trace_dir.empty()) {
      const std::string trace_id =
          strprintf("job-%lld", static_cast<long long>(job->id));
      const std::string path =
          options_.trace_dir + "/" + trace_id + ".jsonl";
      try {
        spool = std::make_unique<obs::JsonlSink>(path);
        trace_ctx = std::make_unique<obs::TraceContext>(spool.get(), trace_id);
        std::lock_guard<std::mutex> lock(job->mu);
        job->trace_path = path;
      } catch (const std::exception& e) {
        spool.reset();
        push_event("trace_error", job->id, e.what());
      }
    }
    obs::ScopedContext trace_scope(trace_ctx.get());
    const auto t0 = steady_clock::now();
    obs::Span job_span("serve.job", t0);
    job_span.metric("job_id", static_cast<double>(job->id));
    job_span.metric("priority",
                    static_cast<double>(static_cast<int>(spec.priority)));
    try {
      auto session = std::make_unique<flow::FlowSession>(spec);
      flow::FlowSession* raw = session.get();
      // The session carries the job's trace context onto whichever
      // thread runs it (this one) — redundant with trace_scope here,
      // but it is the contract resume-style callers rely on.
      raw->set_trace_context(trace_ctx.get());
      {
        std::lock_guard<std::mutex> lock(job->mu);
        job->session = std::move(session);
        // A cancel that arrived between admission and here must not be
        // lost: re-arm it on the live session.
        if (job->cancel_requested) raw->cancel();
      }
      const flow::SessionState state = raw->run_until(spec.until);
      result = flow::job_result_to_json(spec, raw->result());
      final_state = state == flow::SessionState::kCancelled
                        ? JobState::kCancelled
                        : JobState::kDone;
    } catch (const flow::StageInfeasibleError& e) {
      error = e.what();
      failed_stage = flow::stage_name(e.stage());
    } catch (const flow::StageError& e) {
      error = e.what();
      failed_stage = flow::stage_name(e.stage());
    } catch (const std::exception& e) {
      error = e.what();
    }
    const auto t1 = steady_clock::now();
    wall_s = seconds_between(t0, t1);
    job_span.freeze_duration(t1);
    job_span.metric("queue_wait_s", queue_wait_s);
    job_span.metric("wall_s", wall_s);
  }

  std::string terminal_detail = failed_stage;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->wall_s = wall_s;
    job->session.reset();  // free the artifacts; the JSON payload remains
    job->state = final_state;
    job->result = std::move(result);
    job->error = std::move(error);
    job->failed_stage = std::move(failed_stage);
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    ++finished_;
    --running_;
  }
  h_run.observe(wall_s);
  switch (final_state) {
    case JobState::kDone: c_done.add(1); break;
    case JobState::kCancelled: c_cancelled.add(1); break;
    default: c_failed.add(1); break;
  }
  push_event(job_state_name(final_state), job->id,
             std::move(terminal_detail));
  update_gauges();
  job->done_cv.notify_all();
}

void Server::watchdog_loop() {
  static obs::Counter& c_slow = obs::counter("serve.slow_jobs");
  const auto period = std::chrono::duration_cast<steady_clock::duration>(
      std::chrono::duration<double>(
          std::max(0.005, options_.slow_job_s / 4.0)));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, period);
    if (watchdog_stop_) break;
    lock.unlock();
    std::vector<std::shared_ptr<Job>> snapshot;
    {
      std::lock_guard<std::mutex> jl(jobs_mu_);
      snapshot.reserve(jobs_.size());
      for (const auto& [id, job] : jobs_) snapshot.push_back(job);
    }
    const auto now = steady_clock::now();
    for (const std::shared_ptr<Job>& job : snapshot) {
      double elapsed = 0.0;
      bool fire = false;
      {
        std::lock_guard<std::mutex> jm(job->mu);
        if (job->state == JobState::kRunning && !job->slow_reported) {
          elapsed = seconds_between(job->started_tp, now);
          if (elapsed > options_.slow_job_s) {
            job->slow_reported = true;
            fire = true;
          }
        }
      }
      if (fire) {
        c_slow.add(1);
        push_event("slow_job", job->id,
                   strprintf("running %.1fs (threshold %.1fs)", elapsed,
                             options_.slow_job_s));
      }
    }
    lock.lock();
  }
}

util::Json Server::cmd_submit(const util::Json& req) {
  const util::Json* job_json = req.get("job");
  if (job_json == nullptr) throw Error("missing 'job'");
  flow::JobSpec spec;
  try {
    spec = flow::job_spec_from_json(*job_json);
  } catch (const std::exception& e) {
    // The request line was valid JSON; the job description is what's
    // broken (unknown key, bad value, missing source).
    return error_reply(e.what(), "bad_job");
  }
  std::int64_t id = 0;
  try {
    id = submit(spec);
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string reason =
        what.find("queue full") != std::string::npos ? "queue_full"
        : what.find("draining") != std::string::npos ? "draining"
                                                     : "bad_job";
    return error_reply(what, reason);
  }
  util::Json reply = util::Json::make_object();
  reply.set("ok", true);
  reply.set("id", id);
  if (!spec.label.empty()) reply.set("label", spec.label);
  reply.set("state", job_state_name(JobState::kQueued));
  reply.set("queue_depth", queue_depth());
  return reply;
}

util::Json Server::cmd_status(const util::Json& req) {
  const std::shared_ptr<Job> job = find_job(req_job_id(req));
  if (!job) return error_reply("no such job", "not_found");
  util::Json reply = util::Json::make_object();
  reply.set("ok", true);
  reply.set("id", job->id);
  std::lock_guard<std::mutex> lock(job->mu);
  if (!job->spec.label.empty()) reply.set("label", job->spec.label);
  reply.set("state", job_state_name(job->state));
  if (job->queue_wait_s >= 0.0) {
    reply.set("queue_wait_s", util::Json::make_number(job->queue_wait_s));
  }
  if (job->state == JobState::kRunning && job->session) {
    const auto next = job->session->next_stage();
    if (next) reply.set("stage", flow::stage_name(*next));
  }
  if (job->state == JobState::kRunning) {
    // Live run wall time so far (wall_s stays the terminal value).
    reply.set("run_wall_s",
              util::Json::make_number(
                  seconds_between(job->started_tp, steady_clock::now())));
  }
  if (!job->error.empty()) reply.set("error", job->error);
  if (!job->failed_stage.empty()) reply.set("stage", job->failed_stage);
  if (job_state_terminal(job->state)) {
    reply.set("wall_s", util::Json::make_number(job->wall_s));
    reply.set("run_wall_s", util::Json::make_number(job->wall_s));
  }
  return reply;
}

util::Json Server::cmd_result(const util::Json& req) {
  const std::shared_ptr<Job> job = find_job(req_job_id(req));
  if (!job) return error_reply("no such job", "not_found");
  const util::Json* wait = req.get("wait");
  const util::Json* timeout = req.get("timeout_s");
  const double timeout_s =
      timeout != nullptr ? timeout->as_number() : 600.0;
  // Bounded so the cast to clock ticks below cannot overflow.
  if (!(timeout_s >= 0.0 && timeout_s <= kMaxTimeoutS)) {
    return error_reply(strprintf("'timeout_s' must be in [0, %.0f]",
                                 kMaxTimeoutS),
                       "bad_request");
  }

  std::unique_lock<std::mutex> lock(job->mu);
  if (wait != nullptr && wait->as_bool()) {
    const auto deadline =
        steady_clock::now() +
        std::chrono::duration_cast<steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    while (!job_state_terminal(job->state)) {
      if (job->done_cv.wait_until(lock, deadline) ==
          std::cv_status::timeout &&
          !job_state_terminal(job->state)) {
        util::Json reply = error_reply("timed out waiting", "timeout");
        reply.set("state", job_state_name(job->state));
        return reply;
      }
    }
  }
  if (!job_state_terminal(job->state)) {
    util::Json reply =
        error_reply("job not finished", "not_finished");
    reply.set("state", job_state_name(job->state));
    return reply;
  }
  util::Json reply = util::Json::make_object();
  reply.set("ok", true);
  reply.set("id", job->id);
  reply.set("state", job_state_name(job->state));
  reply.set("wall_s", util::Json::make_number(job->wall_s));
  reply.set("run_wall_s", util::Json::make_number(job->wall_s));
  if (job->queue_wait_s >= 0.0) {
    reply.set("queue_wait_s", util::Json::make_number(job->queue_wait_s));
  }
  if (!job->error.empty()) reply.set("error", job->error);
  if (!job->failed_stage.empty()) reply.set("stage", job->failed_stage);
  reply.set("result", job->result);
  return reply;
}

util::Json Server::cmd_cancel(const util::Json& req) {
  const std::int64_t id = req_job_id(req);
  util::Json reply = util::Json::make_object();
  try {
    const JobState state = cancel_job(id);
    reply.set("ok", true);
    reply.set("id", id);
    reply.set("state", job_state_name(state));
  } catch (const Error& e) {
    return error_reply(e.what(), "not_found");
  }
  return reply;
}

util::Json Server::cmd_metrics(const util::Json& req) const {
  const util::Json* fmt = req.get("format");
  if (fmt != nullptr && fmt->as_string() == "prometheus") {
    // Prometheus text exposition of the registry (DESIGN.md §13.3).
    // Refresh the serve gauges first so scrape-time queue depths are
    // current even if no job transitioned recently.
    const_cast<Server*>(this)->update_gauges();
    util::Json reply = util::Json::make_object();
    reply.set("ok", true);
    reply.set("format", "prometheus");
    reply.set("text", obs::snapshot_metrics().to_prometheus());
    return reply;
  }

  util::Json reply = util::Json::make_object();
  reply.set("ok", true);
  // The registry snapshot (DESIGN.md §8.2), embedded as an object.
  reply.set("metrics", obs::snapshot_metrics().to_json());

  util::Json server = util::Json::make_object();
  server.set("queue_depth", queue_depth());
  server.set("jobs_submitted", jobs_submitted());
  server.set("jobs_finished", jobs_finished());
  server.set("draining", draining());
  server.set("uptime_s", util::Json::make_number(uptime_s()));
  reply.set("server", std::move(server));

  // Per-job summaries; terminal jobs carry their StageMetrics payload.
  util::Json jobs = util::Json::make_array();
  std::vector<std::shared_ptr<Job>> snapshot;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    snapshot.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) snapshot.push_back(job);
  }
  for (const std::shared_ptr<Job>& job : snapshot) {
    std::lock_guard<std::mutex> lock(job->mu);
    util::Json j = util::Json::make_object();
    j.set("id", job->id);
    if (!job->spec.label.empty()) j.set("label", job->spec.label);
    j.set("priority", flow::job_priority_name(job->spec.priority));
    j.set("state", job_state_name(job->state));
    if (job->queue_wait_s >= 0.0) {
      j.set("queue_wait_s", util::Json::make_number(job->queue_wait_s));
    }
    if (job_state_terminal(job->state)) {
      j.set("wall_s", util::Json::make_number(job->wall_s));
      const util::Json* stages = job->result.get("stages");
      if (stages != nullptr) j.set("stages", *stages);
    }
    jobs.push_back(std::move(j));
  }
  reply.set("jobs", std::move(jobs));
  return reply;
}

util::Json Server::cmd_stats() const {
  util::Json reply = util::Json::make_object();
  reply.set("ok", true);
  reply.set("uptime_s", util::Json::make_number(uptime_s()));
  reply.set("workers", workers_);
  reply.set("max_queue", options_.max_queue);
  reply.set("draining", draining());
  reply.set("trace_dir", options_.trace_dir);
  reply.set("slow_job_s", util::Json::make_number(options_.slow_job_s));

  std::vector<std::shared_ptr<Job>> snapshot;
  std::int64_t submitted = 0, finished = 0;
  int depth[3], running = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (int p = 0; p < 3; ++p) depth[p] = static_cast<int>(queue_[p].size());
    running = running_;
    submitted = next_id_ - 1;
    finished = finished_;
    snapshot.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) snapshot.push_back(job);
  }
  util::Json queue = util::Json::make_object();
  queue.set("low", depth[0]);
  queue.set("normal", depth[1]);
  queue.set("high", depth[2]);
  queue.set("total", depth[0] + depth[1] + depth[2]);
  reply.set("queue_depth", std::move(queue));

  // Per-state census over the whole job table.
  std::int64_t by_state[5] = {0, 0, 0, 0, 0};
  for (const std::shared_ptr<Job>& job : snapshot) {
    std::lock_guard<std::mutex> lock(job->mu);
    ++by_state[static_cast<int>(job->state)];
  }
  util::Json jobs = util::Json::make_object();
  jobs.set("submitted", submitted);
  jobs.set("finished", finished);
  jobs.set("running", running);
  for (int s = 0; s < 5; ++s) {
    jobs.set(job_state_name(static_cast<JobState>(s)), by_state[s]);
  }
  reply.set("jobs", std::move(jobs));

  // Latency distributions from the registry (process-global: in a
  // multi-server test binary these aggregate across all instances).
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  reply.set("queue_wait_s", histogram_json(snap, "serve.queue_wait_s"));
  reply.set("run_wall_s", histogram_json(snap, "serve.run_wall_s"));
  reply.set("slow_jobs",
            static_cast<std::int64_t>(snap.counter("serve.slow_jobs")));
  reply.set("jobs_rejected",
            static_cast<std::int64_t>(snap.counter("serve.jobs_rejected")));

  {
    std::lock_guard<std::mutex> lock(events_mu_);
    util::Json events = util::Json::make_object();
    events.set("buffered", static_cast<std::int64_t>(events_.size()));
    events.set("next_seq", next_event_seq_);
    events.set("dropped", events_dropped_);
    reply.set("events", std::move(events));
  }
  return reply;
}

util::Json Server::cmd_events(const util::Json& req) const {
  std::int64_t after = 0;
  int limit = 100;
  if (const util::Json* a = req.get("after")) after = a->as_int();
  if (const util::Json* l = req.get("limit")) {
    // Checked before the narrowing: 0 means no cap, a negative or
    // wider-than-int limit is the client's error.
    const std::int64_t requested = l->as_int();
    if (requested < 0 || requested > std::numeric_limits<int>::max()) {
      return error_reply("'limit' must be in [0, 2147483647]",
                         "bad_request");
    }
    limit = static_cast<int>(requested);
  }
  const std::vector<DaemonEvent> events = events_after(after, limit);
  util::Json reply = util::Json::make_object();
  reply.set("ok", true);
  util::Json arr = util::Json::make_array();
  std::int64_t last_seq = after;
  for (const DaemonEvent& e : events) {
    util::Json j = util::Json::make_object();
    j.set("seq", e.seq);
    j.set("t_s", util::Json::make_number(e.t_s));
    j.set("kind", e.kind);
    if (e.job_id != 0) j.set("id", e.job_id);
    if (!e.detail.empty()) j.set("detail", e.detail);
    arr.push_back(std::move(j));
    last_seq = e.seq;
  }
  reply.set("events", std::move(arr));
  // Resume cursor for the next poll; `dropped` > 0 flags ring overflow
  // (a client that fell behind lost the difference).
  reply.set("next_after", last_seq);
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    reply.set("dropped", events_dropped_);
  }
  return reply;
}

util::Json Server::cmd_trace(const util::Json& req) const {
  const std::shared_ptr<Job> job = find_job(req_job_id(req));
  if (!job) return error_reply("no such job", "not_found");
  std::string path;
  JobState state;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    path = job->trace_path;
    state = job->state;
  }
  if (path.empty()) {
    return error_reply(
        "per-job tracing disabled (start the daemon with --trace-dir)",
        "no_trace");
  }
  std::ifstream in(path);
  if (!in) return error_reply("trace file unreadable: " + path, "no_trace");
  std::ostringstream ss;
  ss << in.rdbuf();
  util::Json reply = util::Json::make_object();
  reply.set("ok", true);
  reply.set("id", job->id);
  reply.set("state", job_state_name(state));
  reply.set("path", path);
  // False while the job still runs: the spool is open and buffered, so
  // the JSONL below may end mid-line (the analyzer skips such tails).
  reply.set("complete", job_state_terminal(state));
  reply.set("trace_jsonl", ss.str());
  return reply;
}

int Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  int waiting = 0;
  for (const auto& q : queue_) waiting += static_cast<int>(q.size());
  return waiting;
}

std::int64_t Server::jobs_submitted() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return next_id_ - 1;
}

std::int64_t Server::jobs_finished() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return finished_;
}

bool Server::shutdown_requested(bool* drain_out) const {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (drain_out != nullptr) *drain_out = shutdown_drain_;
  return shutdown_requested_;
}

void Server::request_shutdown(bool drain) {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_drain_ = drain;
}

void Server::shutdown(bool drain) {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) return;  // idempotent
  stopping_.store(true, std::memory_order_release);
  draining_.store(true, std::memory_order_release);

  // Stop the acceptor: closing the listen socket unblocks accept().
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (acceptor_.joinable()) acceptor_.join();

  if (!drain) {
    // Cancel everything still pending; workers then finish fast.
    std::vector<std::int64_t> ids;
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      for (const auto& [id, job] : jobs_) ids.push_back(id);
    }
    for (const std::int64_t id : ids) {
      try {
        cancel_job(id);
      } catch (const Error&) {
      }
    }
  }

  // Drain-and-stop the worker pool: pop_job returns null once the queue
  // is empty and stopped, so every queued job still runs first.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    queue_stopped_ = true;
  }
  queue_cv_.notify_all();
  if (pool_) {
    pool_->wait();
    pool_.reset();
  }

  // The watchdog keeps scanning through the drain (slow jobs still fire
  // events); stop it once the workers are done.
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();

  // Kick and join the connection threads (blocking recv gets EOF; any
  // result-wait already saw its job reach a terminal state above).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, thread] : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  for (;;) {
    std::pair<int, std::thread> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.back());
      conns_.pop_back();
    }
    if (conn.second.joinable()) conn.second.join();
  }
}

namespace {
volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }
}  // namespace

int run_server(const ServeOptions& options) {
  Server server(options);
  server.start();
  std::printf("listening on %d\n", server.port());
  std::fflush(stdout);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // Wait for SIGTERM/SIGINT or a `shutdown` protocol command. The
  // signal handler only flips a flag, so poll it alongside the
  // command-driven condition.
  bool drain = true;
  while (!g_signal && !server.shutdown_requested(&drain)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "amdrel_serve: draining (%lld jobs submitted)...\n",
               static_cast<long long>(server.jobs_submitted()));
  server.shutdown(drain);
  std::fprintf(stderr, "amdrel_serve: done (%lld jobs finished)\n",
               static_cast<long long>(server.jobs_finished()));
  return 0;
}

}  // namespace amdrel::serve
