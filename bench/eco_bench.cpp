// ECO incremental-recompilation benchmark: the 1%-edit workload from the
// issue's acceptance bar. For each synthetic circuit we compile a base
// implementation, apply a ~1% mixed edit (truth-table retunes, rewires,
// added LUTs), then recompile it twice at the SAME channel width — once
// from scratch and once through FlowSession::resume_with_edit — and
// formally prove the ECO bitstream implements the edit.
//
// The headline columns: speedup (scratch wall / eco wall; the issue
// demands >= 10x) and reuse ratio (fraction of LUTs, clusters, block
// locations and routed nets carried over from the base implementation).
// `formally_verified` is the SAT proof of the ECO result against the
// edited netlist — the safety net that makes the reuse trustworthy.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "eco/eco.hpp"
#include "flow/session.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "verify/equiv.hpp"

namespace {

using namespace amdrel;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  auto trace_guard = bench::install_trace(args);
  bench::ScopedMetricsFile metrics_guard(args);

  if (!args.json) {
    std::printf("ECO incremental recompilation: ~1%% edits, equal W\n\n");
  }

  struct Workload {
    const char* name;
    int gates;
    int latches;
    std::uint64_t seed;
  };
  const std::vector<Workload> workloads = {
      {"eco_small", 600, 16, 101},
      {"eco_medium", 1000, 24, 202},
      {"eco_large", 1600, 32, 303},
      {"eco_xl", 3200, 48, 404},
  };

  Table table({"circuit", "gates", "dirty %", "W", "scratch s", "eco s",
               "speedup", "reuse %", "nets rerouted", "formal"});
  util::Json circuits = util::Json::make_array();

  int failures = 0;
  for (const auto& wl : workloads) {
    try {
      bench_gen::BenchSpec spec;
      spec.name = wl.name;
      spec.n_gates = wl.gates;
      spec.n_latches = wl.latches;
      spec.seed = wl.seed;
      const netlist::Network base = bench_gen::generate(spec);

      // ~1% of the gates touched: retunes, rewires and fresh LUTs.
      bench_gen::EditSpec edit;
      edit.flips = wl.gates / 200;
      edit.rewires = wl.gates / 400;
      edit.added_luts = wl.gates / 400;
      edit.seed = wl.seed + 1;
      const netlist::Network edited = bench_gen::perturb(base, edit);

      // Probe the minimum channel width of the base design, then run
      // every compile — base, scratch and ECO — at eco::headroom_width
      // (W* + ~15%): the margin an ECO fabric reserves so edits route in
      // spare capacity (and a fresh anneal of the edited design needs
      // margin too), and the same fabric for all three so the comparison
      // is apples-to-apples.
      // The probe and base compiles are JobSpec-described (source
      // bench_gen): the same job an amdrel_serve client would submit.
      flow::JobSpec probe_job = args.spec;  // shared CLI knobs
      probe_job.label = wl.name;
      probe_job.source = flow::JobSpec::Source::kBenchGen;
      probe_job.bench = spec;
      probe_job.options.verify_mode = flow::VerifyMode::kOff;
      // Invariant lint is a debug barrier, not part of the compile; it is
      // disabled on BOTH sides so the wall-clock comparison measures the
      // flow itself. The SAT proof below is the correctness check here.
      probe_job.options.check_invariants = false;
      probe_job.options.search_min_channel_width = true;
      flow::FlowSession probe(probe_job);
      probe.resume();
      const int min_width = probe.result().channel_width;
      const int channel_width = eco::headroom_width(min_width);

      flow::JobSpec base_job = probe_job;
      base_job.options.search_min_channel_width = false;
      base_job.options.arch.channel_width = channel_width;
      flow::FlowSession session(base_job);
      session.resume();

      // From-scratch recompile of the edit at the same channel width —
      // the denominator. (The edited network is in-memory only, so it
      // uses the network entry point with the same options.)
      const auto t_scratch = std::chrono::steady_clock::now();
      flow::FlowSession scratch_session(edited, base_job.options);
      scratch_session.resume();
      const flow::FlowResult scratch = scratch_session.take_result();
      const double scratch_s = seconds_since(t_scratch);

      eco::EcoStats stats;
      const auto t_eco = std::chrono::steady_clock::now();
      session.resume_with_edit(edited, &stats);
      const double eco_s = seconds_since(t_eco);
      const double speedup = eco_s > 0.0 ? scratch_s / eco_s : 0.0;

      // The safety net: SAT-prove the ECO bitstream against the edit (and
      // thereby against the scratch compile, which implements the same
      // netlist). The packing/placement-derived register map pins the
      // FF correspondence — unguided signature matching gets ambiguous
      // once a design has a few dozen latches.
      const netlist::Network eco_fabric =
          bitgen::decode_to_network(session.result().bitstream);
      verify::EquivOptions vopt;
      vopt.register_map = flow::fabric_register_map(session.result());
      const verify::EquivResult eq =
          verify::prove_equivalence(edited, eco_fabric, vopt);
      const bool formally_verified = eq.equivalent();
      if (!formally_verified) {
        ++failures;
        std::fprintf(stderr, "%s: NOT equivalent: %s (route_seeded=%d "
                     "incremental_map=%d fallbacks=%d)\n",
                     wl.name, eq.message.c_str(), stats.route_seeded ? 1 : 0,
                     stats.incremental_map ? 1 : 0, stats.fallbacks);
      }
      (void)scratch;

      if (args.json) {
        util::Json c = util::Json::make_object();
        c.set("name", wl.name);
        c.set("gates", static_cast<int>(base.gates().size()));
        c.set("dirty_pct", stats.entry_diff.dirty_pct());
        c.set("channel_width", stats.channel_width);
        c.set("scratch_s", scratch_s);
        c.set("eco_s", eco_s);
        c.set("speedup", speedup);
        c.set("reuse_ratio", stats.reuse_ratio());
        c.set("incremental_map", stats.incremental_map);
        c.set("luts_total", stats.luts_total);
        c.set("luts_reused", stats.luts_reused);
        c.set("clusters_total", stats.clusters_total);
        c.set("clusters_reused", stats.clusters_reused);
        c.set("blocks_total", stats.blocks_total);
        c.set("blocks_matched", stats.blocks_matched);
        c.set("nets_total", stats.nets_total);
        c.set("nets_seeded", stats.nets_seeded);
        c.set("nets_rerouted", stats.nets_rerouted);
        c.set("fallbacks", stats.fallbacks);
        c.set("formally_verified", formally_verified);
        circuits.push_back(std::move(c));
      } else {
        table.add_row({wl.name,
                       std::to_string(static_cast<int>(base.gates().size())),
                       strprintf("%.2f", 100.0 * stats.entry_diff.dirty_pct()),
                       std::to_string(stats.channel_width),
                       strprintf("%.3f", scratch_s), strprintf("%.3f", eco_s),
                       strprintf("%.1fx", speedup),
                       strprintf("%.1f", 100.0 * stats.reuse_ratio()),
                       strprintf("%d/%d", stats.nets_rerouted,
                                 stats.nets_total),
                       formally_verified ? "yes" : "NO"});
        std::printf("  %-10s ok\n", wl.name);
      }
    } catch (const std::exception& e) {
      ++failures;
      if (args.json) {
        util::Json c = util::Json::make_object();
        c.set("name", wl.name);
        c.set("formally_verified", false);
        c.set("error", e.what());
        circuits.push_back(std::move(c));
      } else {
        std::printf("  %-10s FAILED: %s\n", wl.name, e.what());
      }
    }
  }

  if (args.json) {
    util::Json doc = util::Json::make_object();
    doc.set("bench", "eco_bench");
    doc.set("circuits", std::move(circuits));
    doc.set("failures", failures);
    std::printf("%s\n", doc.dump().c_str());
    return failures == 0 ? 0 : 1;
  }

  std::printf("\n%s", table.to_string().c_str());
  std::printf("\n'speedup' = from-scratch wall / eco wall at equal channel "
              "width\n'formal'  = ECO bitstream SAT-proven equivalent to the "
              "edited netlist\n");
  return failures == 0 ? 0 : 1;
}
