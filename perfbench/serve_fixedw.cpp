// serve_fixedw: the amdrel_serve daemon with --workers 2, driven by a
// closed loop of 4 client connections (one per core of the reference
// machine) from this process. Each client submits one bench_gen JobSpec,
// waits for the blocking `result` reply, then submits the next. Jobs
// have 300-900 gates and 8-15 latches, a pinned `channel_width 32`
// architecture, formal proofs and return_bitstream, so the min-W search
// is bypassed entirely: a min-W gain must show no change here. The
// workload loads the serve layer (admission, queue wait, JSON protocol,
// the shared arch and RR-template caches) and place, route_all and
// verify under concurrency.
//
// Work counts are whole-run deltas of the daemon's registry, read with
// the `metrics` command before and after the window. The per-job
// `stages.*.counters` of a `result` reply are diffs of the process-global
// registry, so under --workers > 1 they mix concurrent jobs; they are
// never read.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_gen/bench_gen.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "flow/jobspec.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace amdrel;

namespace {

constexpr int kWorkers = 2;
constexpr int kClients = 4;
/// Traced runs replay this many jobs in-process.
constexpr int kReplayJobs = 2;

/// Job `i` of a run. Sizes step through 300..900 gates and 8..15
/// latches in a fixed cycle (offset by the seed), so every seed draws the
/// same size mix; the seed picks the circuits themselves.
flow::JobSpec job_spec(std::uint64_t seed, int i, bool small) {
  flow::JobSpec job;
  job.label = "job-" + std::to_string(i);
  job.source = flow::JobSpec::Source::kBenchGen;
  job.bench.name = job.label;
  job.bench.n_gates =
      small ? 300 : 300 + 50 * ((i * 5 + static_cast<int>(seed % 13)) % 13);
  job.bench.n_latches = 8 + (i * 3 + static_cast<int>(seed % 8)) % 8;
  // JobSpec JSON carries numbers as doubles: keep seeds exact.
  job.bench.seed = mix_seed(seed, static_cast<std::uint64_t>(i)) & 0xffffffffu;
  // W=28 left about one 900-gate job in a few hundred unroutable (one
  // needed W=29); 32 keeps every job routable.
  job.arch_text = "channel_width 32\n";
  job.options.verify_mode = flow::VerifyMode::kFormal;
  job.options.verify_seed = seed & 0xffffffffu;
  job.return_bitstream = true;
  return job;
}

struct JobRec {
  int index = -1;
  double latency_s = 0.0;     ///< submit sent → result reply received
  double submit_rtt_s = 0.0;  ///< submit sent → submit reply received
  double queue_wait_s = 0.0;
  double run_wall_s = 0.0;
  std::string error;
  util::Json result;
};

util::Json command(const char* cmd) {
  util::Json req = util::Json::make_object();
  req.set("cmd", cmd);
  return req;
}

JobRec run_job(LineClient& client, const flow::JobSpec& spec, int index) {
  JobRec rec;
  rec.index = index;
  util::Json submit = command("submit");
  submit.set("job", flow::job_spec_to_json(spec));
  const auto t0 = Clock::now();
  try {
    const util::Json reply = client.call(submit);
    rec.submit_rtt_s = seconds_since(t0);
    if (!reply.at("ok").as_bool()) {
      rec.latency_s = seconds_since(t0);
      rec.error = "rejected: " + reply.dump();
      return rec;
    }
    util::Json wait = command("result");
    wait.set("id", reply.at("id"));
    wait.set("wait", true);
    wait.set("timeout_s", 120);
    const util::Json res = client.call(wait);
    rec.latency_s = seconds_since(t0);
    if (!res.at("ok").as_bool() || res.at("state").as_string() != "done") {
      rec.error = "job did not finish: " + res.dump().substr(0, 400);
      return rec;
    }
    rec.queue_wait_s = res.at("queue_wait_s").as_number();
    rec.run_wall_s = res.at("run_wall_s").as_number();
    rec.result = res.at("result");
  } catch (const std::exception& e) {
    rec.latency_s = seconds_since(t0);
    rec.error = e.what();
  }
  return rec;
}

std::map<std::string, double> daemon_counters(LineClient& admin) {
  const util::Json reply = admin.call(command("metrics"));
  const util::Json& counters = reply.at("metrics").at("counters");
  std::map<std::string, double> out;
  for (const std::string& name : kCounterNames) {
    const util::Json* v = counters.get(name);
    out[name] = v != nullptr ? v->as_number() : 0.0;
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw Error("bad hex digit in bitstream_hex");
  };
  if (hex.size() % 2 != 0) throw Error("odd-length bitstream_hex");
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(nibble(hex[2 * i]) * 16 +
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

}  // namespace

RunResult run_serve_fixedw(const RunConfig& cfg) {
  RunResult run;
  run.info.set("workers", kWorkers);
  run.info.set("clients", kClients);

  // Set-up: start the daemon and run one fixed warm-up job through it,
  // which fills the shared arch and RR-template caches. The daemon of
  // the last repetition serves the window.
  flow::JobSpec warm = job_spec(0, 0, /*small=*/true);
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) {
      daemon->shutdown();
      daemon.reset();
    }
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(cfg.serve_bin, kWorkers);
    LineClient client(daemon->port());
    const JobRec rec = run_job(client, warm, -1);
    if (!rec.error.empty()) throw Error("warm-up job failed: " + rec.error);
    setup.push_back(seconds_since(t0));
  }
  run.e2e["setup_s"] = quantile(setup, 0.5);

  // QoR (per job) and the digest cover a fixed prefix of the job list,
  // which every full-size run completes. The daemon keeps every finished
  // job's result, bitstream included, so its RSS grows with the job
  // count: peak RSS is read when the prefix is done, after the same work
  // on every run.
  const int qor_jobs = cfg.small ? 2 : 48;
  LineClient admin(daemon->port());
  const auto before = daemon_counters(admin);
  std::atomic<int> next{0};
  std::mutex mu;
  std::vector<JobRec> recs;
  double rss_mb = 0.0;
  std::vector<std::string> client_errors;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        LineClient conn(daemon->port());
        while (Clock::now() < deadline) {
          const int i = next.fetch_add(1);
          JobRec rec = run_job(conn, job_spec(cfg.seed, i, cfg.small), i);
          std::lock_guard<std::mutex> lock(mu);
          recs.push_back(std::move(rec));
          if (static_cast<int>(recs.size()) == qor_jobs) {
            rss_mb = peak_rss_mb(daemon->pid());
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        client_errors.push_back(e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = seconds_since(start);
  const auto after = daemon_counters(admin);
  if (rss_mb == 0.0) rss_mb = peak_rss_mb(daemon->pid());
  run.e2e["peak_rss_mb"] = rss_mb;
  daemon->shutdown();
  if (!client_errors.empty()) throw Error("client: " + client_errors.front());
  std::sort(recs.begin(), recs.end(),
            [](const JobRec& a, const JobRec& b) { return a.index < b.index; });

  // Correctness, outside the window: the returned bytes hash to the
  // reported fingerprint and simulate like the source netlist.
  util::Json failures = util::Json::make_array();
  for (const JobRec& rec : recs) {
    ++run.attempted;
    std::string why = rec.error;
    if (why.empty()) {
      try {
        std::vector<std::uint8_t> bytes =
            from_hex(rec.result.at("bitstream_hex").as_string());
        if (flow::fnv1a64_hex(bytes) !=
            rec.result.at("bitstream_fnv").as_string()) {
          why = "bitstream_hex does not match bitstream_fnv";
        } else {
          if (cfg.corrupt_op == rec.index) corrupt(&bytes);
          const flow::JobSpec spec = job_spec(cfg.seed, rec.index, cfg.small);
          why = check_bitstream(bytes, bench_gen::generate(spec.bench),
                                mix_seed(cfg.seed, rec.index));
        }
      } catch (const std::exception& e) {
        why = e.what();
      }
    }
    if (!why.empty()) {
      ++run.failed;
      if (failures.as_array().size() < 4) {
        failures.push_back(util::Json::make_string(
            "job " + std::to_string(rec.index) + ": " + why));
      }
    }
  }
  run.info.set("failures", std::move(failures));

  // End-to-end figures.
  std::vector<double> latency, rtt, wait, wall, overhead;
  std::map<std::string, double> stage_total;
  double w_sum = 0.0, wires_sum = 0.0, fmax_sum = 0.0;
  std::uint64_t digest = kFnvBasis;
  int done = 0;
  for (const JobRec& rec : recs) {
    latency.push_back(rec.latency_s);
    if (!rec.error.empty()) continue;
    ++done;
    rtt.push_back(rec.submit_rtt_s);
    wait.push_back(rec.queue_wait_s);
    wall.push_back(rec.run_wall_s);
    overhead.push_back(rec.latency_s - rec.queue_wait_s - rec.run_wall_s);
    const util::Json& stages = rec.result.at("stages");
    for (const std::string& stage : stages.keys()) {
      stage_total["flow." + stage + "_s"] +=
          stages.at(stage).at("wall_s").as_number();
    }
    if (rec.index < qor_jobs) {
      w_sum += rec.result.at("channel_width").as_number();
      wires_sum += rec.result.at("wires").as_number();
      fmax_sum += 1e3 / rec.result.at("critical_path_ns").as_number();
      digest = fnv_fold(digest, rec.result.at("bitstream_fnv").as_string());
    }
  }
  run.e2e["op_latency_p50_s"] = quantile(latency, 0.5);
  run.e2e["op_latency_p90_s"] = quantile(latency, 0.9);
  run.e2e["ops_per_s"] = static_cast<double>(recs.size()) / elapsed;
  const int qor_n = std::max(1, std::min(qor_jobs, done));
  run.e2e["channel_width_per_op"] = w_sum / qor_n;
  run.e2e["wire_nodes_per_op"] = wires_sum / qor_n;
  run.e2e["fmax_mhz_mean"] = fmax_sum / qor_n;
  run.info.set("bitstream_digest", hex64(digest));
  run.info.set("qor_jobs", qor_n);
  run.info.set("jobs_per_s", run.e2e["ops_per_s"]);
  run.info.set("job_latency_p50_s", run.e2e["op_latency_p50_s"]);
  run.info.set("job_latency_p90_s", run.e2e["op_latency_p90_s"]);
  if (!cfg.trace) return run;

  // Per-layer figures from the reply fields and the registry deltas.
  run.layer["serve.submit_rtt_s"] = quantile(rtt, 0.5);
  run.layer["serve.queue_wait_s"] = quantile(wait, 0.5);
  run.layer["serve.run_wall_s"] = quantile(wall, 0.5);
  run.layer["serve.overhead_s"] = quantile(overhead, 0.5);
  if (done > 0) {
    for (const auto& [name, s] : stage_total) run.layer[name] = s / done;
  }
  add_counts(counter_delta(before, after), static_cast<double>(recs.size()),
             &run);

  // Kernel replay: the first jobs again, in this process, once in one
  // run_until call and once stage by stage; the staged session must
  // reproduce the daemon's width and bitstream hash.
  KernelTimes kt;
  std::vector<double> one_shot, staged, stage_sum;
  for (int i = 0; i < kReplayJobs && i < static_cast<int>(recs.size()); ++i) {
    if (!recs[static_cast<std::size_t>(i)].error.empty()) continue;
    const util::Json& daemon_result = recs[static_cast<std::size_t>(i)].result;
    const flow::JobSpec spec = job_spec(cfg.seed, i, cfg.small);
    auto t0 = Clock::now();
    flow::FlowSession plain(spec);
    plain.run_until(flow::Stage::kBitgen);
    one_shot.push_back(seconds_since(t0));

    t0 = Clock::now();
    flow::FlowSession session(spec);
    double sum = 0.0;
    for (int s = 0; s < flow::kNumStages; ++s) {
      const auto ts = Clock::now();
      session.run_until(static_cast<flow::Stage>(s));
      sum += seconds_since(ts);
    }
    staged.push_back(seconds_since(t0));
    stage_sum.push_back(sum);
    const flow::FlowResult& r = session.result();
    if (flow::fnv1a64_hex(r.bitstream_bytes) !=
            daemon_result.at("bitstream_fnv").as_string() ||
        r.channel_width != daemon_result.at("channel_width").as_number()) {
      kt.mismatch("job " + std::to_string(i) +
                  ": in-process run differs from the daemon's");
    }
    replay_flow(r, session.options(), /*min_width=*/false, &kt);
    ++kt.n_ops;
  }
  run.layer["trace.op_wall_s"] = mean(staged);
  run.layer["trace.stage_sum_s"] = mean(stage_sum);
  run.layer["trace.overhead_ratio"] = mean(staged) / mean(one_shot) - 1.0;
  add_kernel_metrics(kt, &run);
  if (kt.n_ops == 0) run.replay_ok = false;
  return run;
}

}  // namespace perfbench
