// Reproduces the flow-level evaluation implied by Fig. 11: every tool of
// the VHDL→bitstream pipeline exercised stage by stage on a benchmark
// suite, reporting per-stage QoR and runtime — the table an architecture
// paper built on this toolset would show.
//
// Runs the pipeline through flow::FlowSession, so the per-stage runtimes
// come from the session's own StageMetrics and --trace/--progress expose
// the full obs event stream (flow spans plus the kernel spans beneath).
// Each circuit is described as a flow::JobSpec (source bench_gen) — the
// same description an amdrel_serve client would submit.

#include <cstdint>
#include <cstdio>
#include <exception>

#include "bench_common.hpp"
#include "bench_gen/bench_gen.hpp"
#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "netlist/blif.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amdrel;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (args.spec.until != flow::Stage::kBitgen) {
    std::fprintf(stderr,
                 "usage: %s [--json] ...: only --until bitgen (the table "
                 "reads every stage)\n",
                 argv[0]);
    return 2;
  }
  auto trace_guard = bench::install_trace(args);
  bench::ScopedMetricsFile metrics_guard(args);

  if (!args.json) {
    std::printf("Fig. 11 flow evaluation: per-stage QoR and runtime\n\n");
  }

  Table table({"circuit", "gates", "LUTs", "CLBs", "W", "wires", "bits",
               "crit ns", "mW", "runtime s", "verified", "formal"});
  util::Json circuits = util::Json::make_array();

  int failures = 0;
  // A compact subset of the suite (the full suite runs in mcnc_flow).
  auto suite = bench_gen::mcnc_like_suite();
  suite.resize(4);
  for (const auto& spec : suite) {
    try {
      auto net = bench_gen::generate(spec);
      flow::JobSpec job = args.spec;  // shared CLI knobs (--seed etc.)
      job.label = spec.name;
      job.source = flow::JobSpec::Source::kBenchGen;
      job.bench = spec;
      job.options.search_min_channel_width = true;
      flow::FlowSession session(job);
      session.run_until(job.until);
      const flow::FlowResult& r = session.result();
      double secs = 0.0;
      std::uint64_t formal_checks = 0;
      for (int s = 0; s < flow::kNumStages; ++s) {
        const auto& sm = r.stage_metrics[static_cast<std::size_t>(s)];
        secs += sm.wall_s;
        formal_checks += sm.counter("verify.formal_checks");
      }
      // The proof ledger: one SAT proof per artifact at synth, map, pack,
      // place and route (power and bitgen add none).
      const bool formally_verified = formal_checks == 5;
      if (args.json) {
        util::Json c = util::Json::make_object();
        c.set("name", spec.name);
        c.set("gates", static_cast<int>(net.gates().size()));
        c.set("luts", r.map_stats.luts);
        c.set("clbs", static_cast<int>(r.packed->clusters().size()));
        c.set("channel_width", r.channel_width);
        c.set("wires", r.routing.total_wire_nodes);
        c.set("config_bits",
              static_cast<std::int64_t>(r.bitstream.config_bits()));
        c.set("critical_path_ns", r.timing.critical_path_s * 1e9);
        c.set("power_mw", r.power.total_w * 1e3);
        c.set("runtime_s", secs);
        for (int s = 0; s < flow::kNumStages; ++s) {
          const auto stage = static_cast<flow::Stage>(s);
          const std::string key = std::string(flow::stage_name(stage)) + "_s";
          c.set(key, r.metrics(stage).wall_s);
        }
        c.set("peak_rss_kb", static_cast<std::int64_t>(
                                 r.metrics(flow::Stage::kBitgen).peak_rss_kb));
        c.set("verified", true);
        c.set("formally_verified", formally_verified);
        circuits.push_back(std::move(c));
      } else {
        table.add_row(
            {spec.name, std::to_string(static_cast<int>(net.gates().size())),
             std::to_string(r.map_stats.luts),
             std::to_string(static_cast<int>(r.packed->clusters().size())),
             std::to_string(r.channel_width),
             std::to_string(r.routing.total_wire_nodes),
             std::to_string(r.bitstream.config_bits()),
             strprintf("%.2f", r.timing.critical_path_s * 1e9),
             strprintf("%.2f", r.power.total_w * 1e3),
             strprintf("%.1f", secs), "yes",
             formally_verified ? "yes" : "no"});
        std::printf("  %-12s ok\n", spec.name.c_str());
      }
    } catch (const std::exception& e) {
      ++failures;
      if (args.json) {
        util::Json c = util::Json::make_object();
        c.set("name", spec.name);
        c.set("verified", false);
        c.set("formally_verified", false);
        c.set("error", e.what());
        circuits.push_back(std::move(c));
      } else {
        std::printf("  %-12s FAILED: %s\n", spec.name.c_str(), e.what());
      }
    }
  }

  if (args.json) {
    util::Json doc = util::Json::make_object();
    doc.set("bench", "flow_qor");
    doc.set("circuits", std::move(circuits));
    doc.set("failures", failures);
    std::printf("%s\n", doc.dump().c_str());
    return failures == 0 ? 0 : 1;
  }

  std::printf("\n%s", table.to_string().c_str());
  std::printf("\n'verified' = the compile passed every hand-off check of "
              "its verify mode (formal by default; --verify both adds random "
              "vectors)\n"
              "'formal'   = each artifact proven once by the SAT equivalence "
              "checker (synth, map, pack, place, route)\n");
  return failures == 0 ? 0 : 1;
}
