// flow_minw: one JobSpec→bitstream compile at a time, a closed loop with
// one caller, over the flow_qor subset of the MCNC-like suite with the
// minimum-channel-width search, formal hand-off proofs and the lint
// barriers on. This is the reference profile: the min-W search, the
// proofs and the anneal do most of the work.
//
// One op is one pass over the suite. The circuits and their placement
// seed are fixed, so the QoR figures are the flow_qor reference numbers;
// --seed drives the proof seed (verify_seed) and the check vectors.

#include <array>
#include <memory>

#include "bench_gen/bench_gen.hpp"
#include "common.hpp"
#include "flow/jobspec.hpp"

namespace perfbench {

using namespace amdrel;

namespace {

struct Compile {
  double wall_s = 0.0;
  std::array<double, flow::kNumStages> stage_s{};  ///< traced passes only
  int width = 0;
  int wires = 0;
  double crit_ns = 0.0;
  std::string fnv;
  std::vector<std::uint8_t> bytes;
  std::string error;
};

struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<Compile> compiles;
  std::map<std::string, double> counts;  ///< registry deltas (traced)
};

}  // namespace

RunResult run_flow_minw(const RunConfig& cfg) {
  RunResult run;
  std::vector<bench_gen::BenchSpec> suite = bench_gen::mcnc_like_suite();
  suite.resize(cfg.small ? 1 : 4);
  std::vector<flow::JobSpec> jobs;
  for (const bench_gen::BenchSpec& b : suite) {
    flow::JobSpec job;
    job.label = b.name;
    job.source = flow::JobSpec::Source::kBenchGen;
    job.bench = b;
    job.options.verify_mode = flow::VerifyMode::kFormal;
    job.options.verify_seed = cfg.seed;
    job.options.check_invariants = true;
    job.options.search_min_channel_width = true;
    jobs.push_back(job);
  }

  // Set-up: the source netlists for the correctness check, and one
  // warm-up compile of the smallest circuit (page faults, allocator,
  // RR template cache) without proofs.
  std::vector<netlist::Network> sources;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    sources.clear();
    for (const flow::JobSpec& job : jobs) {
      sources.push_back(flow::resolve_job_network(job));
    }
    flow::JobSpec warm = jobs.front();
    warm.options.verify_mode = flow::VerifyMode::kOff;
    flow::FlowSession session(warm);
    session.run_until(flow::Stage::kBitgen);
    setup.push_back(seconds_since(t0));
  }
  run.e2e["setup_s"] = quantile(setup, 0.5);

  // Timed window. Traced runs alternate untraced passes (one run_until
  // per compile) with traced ones (one timed run_until per stage) and
  // keep the last traced pass's sessions for the kernel replay.
  std::vector<Pass> passes;
  std::vector<std::unique_ptr<flow::FlowSession>> kept;
  int n_traced = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  while (Clock::now() < deadline || passes.empty() ||
         (cfg.trace && (n_traced == 0 ||
                        n_traced == static_cast<int>(passes.size())))) {
    Pass pass;
    pass.traced = cfg.trace && passes.size() % 2 == 1;
    std::vector<std::unique_ptr<flow::FlowSession>> sessions;
    const auto before = counter_snapshot();
    const auto t_pass = Clock::now();
    for (const flow::JobSpec& job : jobs) {
      Compile c;
      const auto t0 = Clock::now();
      try {
        auto session = std::make_unique<flow::FlowSession>(job);
        if (pass.traced) {
          for (int s = 0; s < flow::kNumStages; ++s) {
            const auto ts = Clock::now();
            session->run_until(static_cast<flow::Stage>(s));
            c.stage_s[static_cast<std::size_t>(s)] = seconds_since(ts);
          }
        } else {
          session->run_until(flow::Stage::kBitgen);
        }
        c.wall_s = seconds_since(t0);
        const flow::FlowResult& r = session->result();
        c.width = r.channel_width;
        c.wires = r.routing.total_wire_nodes;
        c.crit_ns = r.timing.critical_path_s * 1e9;
        c.bytes = r.bitstream_bytes;
        c.fnv = flow::fnv1a64_hex(r.bitstream_bytes);
        if (pass.traced) sessions.push_back(std::move(session));
      } catch (const std::exception& e) {
        c.wall_s = seconds_since(t0);
        c.error = e.what();
      }
      pass.compiles.push_back(std::move(c));
    }
    pass.wall_s = seconds_since(t_pass);
    if (pass.traced) {
      pass.counts = counter_delta(before, counter_snapshot());
      ++n_traced;
      if (sessions.size() == jobs.size()) kept = std::move(sessions);
    }
    passes.push_back(std::move(pass));
  }
  run.e2e["peak_rss_mb"] = peak_rss_mb();

  // Correctness, outside the window: every compile's bitstream against
  // its source netlist, and every pass byte-identical to the first.
  const Pass* ref = nullptr;
  for (const Pass& p : passes) {
    bool clean = true;
    for (const Compile& c : p.compiles) clean = clean && c.error.empty();
    if (clean) {
      ref = &p;
      break;
    }
  }
  util::Json failures = util::Json::make_array();
  for (std::size_t k = 0; k < passes.size(); ++k) {
    ++run.attempted;
    std::string why;
    for (std::size_t i = 0; i < jobs.size() && why.empty(); ++i) {
      const Compile& c = passes[k].compiles[i];
      if (!c.error.empty()) {
        why = c.error;
        break;
      }
      std::vector<std::uint8_t> bytes = c.bytes;
      if (cfg.corrupt_op == static_cast<int>(k) && i == 0) corrupt(&bytes);
      why = check_bitstream(bytes, sources[i], mix_seed(cfg.seed, k * 64 + i));
      if (why.empty() && ref != nullptr && c.fnv != ref->compiles[i].fnv) {
        why = "bitstream differs from the first pass";
      }
      if (!why.empty()) why = jobs[i].label + ": " + why;
    }
    if (!why.empty()) {
      ++run.failed;
      if (failures.as_array().size() < 4) {
        failures.push_back(util::Json::make_string(why));
      }
    }
  }
  run.info.set("failures", std::move(failures));

  // End-to-end figures. Op latency is a suite pass; with few passes per
  // run, its quantiles are taken per circuit and summed.
  double p50 = 0.0, p90 = 0.0, total = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::vector<double> lat;
    for (const Pass& p : passes) lat.push_back(p.compiles[i].wall_s);
    p50 += quantile(lat, 0.5);
    p90 += quantile(lat, 0.9);
  }
  for (const Pass& p : passes) total += p.wall_s;
  run.e2e["op_latency_p50_s"] = p50;
  run.e2e["op_latency_p90_s"] = p90;
  run.e2e["ops_per_s"] = static_cast<double>(passes.size()) / total;
  std::uint64_t digest = kFnvBasis;
  double w_sum = 0.0, wires_sum = 0.0, fmax_sum = 0.0;
  if (ref != nullptr) {
    for (const Compile& c : ref->compiles) {
      w_sum += c.width;
      wires_sum += c.wires;
      fmax_sum += 1e3 / c.crit_ns;
      digest = fnv_fold(digest, c.fnv);
    }
  }
  run.e2e["channel_width_per_op"] = w_sum;
  run.e2e["wire_nodes_per_op"] = wires_sum;
  run.e2e["fmax_mhz_mean"] =
      ref != nullptr ? fmax_sum / static_cast<double>(jobs.size()) : 0.0;
  run.info.set("bitstream_digest", hex64(digest));
  run.info.set("compile_s", p50);
  run.info.set("passes", static_cast<int>(passes.size()));
  run.info.set("compiles_per_pass", static_cast<int>(jobs.size()));
  if (!cfg.trace) return run;

  // Per-layer figures: stage spans and registry counts per traced pass,
  // then the kernel replay on the last traced pass's artifacts.
  std::vector<double> traced_wall, untraced_wall, stage_sum;
  std::array<double, flow::kNumStages> stage_total{};
  std::map<std::string, double> count_total;
  for (const Pass& p : passes) {
    if (!p.traced) {
      untraced_wall.push_back(p.wall_s);
      continue;
    }
    traced_wall.push_back(p.wall_s);
    double sum = 0.0;
    for (const Compile& c : p.compiles) {
      for (int s = 0; s < flow::kNumStages; ++s) {
        stage_total[static_cast<std::size_t>(s)] +=
            c.stage_s[static_cast<std::size_t>(s)];
        sum += c.stage_s[static_cast<std::size_t>(s)];
      }
    }
    stage_sum.push_back(sum);
    for (const auto& [name, v] : p.counts) count_total[name] += v;
  }
  const double n = static_cast<double>(traced_wall.size());
  for (int s = 0; s < flow::kNumStages; ++s) {
    run.layer[std::string("flow.") + flow::stage_name(static_cast<flow::Stage>(s)) + "_s"] =
        stage_total[static_cast<std::size_t>(s)] / n;
  }
  add_counts(count_total, n, &run);
  run.layer["trace.op_wall_s"] = mean(traced_wall);
  run.layer["trace.stage_sum_s"] = mean(stage_sum);
  run.layer["trace.overhead_ratio"] =
      mean(traced_wall) / mean(untraced_wall) - 1.0;

  KernelTimes kt;
  for (const auto& session : kept) {
    replay_flow(session->result(), session->options(), /*min_width=*/true,
                &kt);
  }
  kt.n_ops = kept.empty() ? 0 : 1;  // the replay covers one whole pass
  add_kernel_metrics(kt, &run);
  if (kept.empty()) run.replay_ok = false;
  return run;
}

}  // namespace perfbench
