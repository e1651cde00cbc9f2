// amdrel_cli — the command-line face of the toolset (the paper's GUI
// exposes exactly these six stages; each tool also runs standalone here,
// matching the paper's "modularity" requirement §4.1.iii).
//
//   amdrel_cli flow      <design.vhd|design.blif> <top> [outdir]
//                        [--verify off|formal|both]
//   amdrel_cli synth     <design.vhd> <top>         # VHDL → EDIF on stdout
//   amdrel_cli e2fmt     <design.edif>              # EDIF → BLIF on stdout
//   amdrel_cli map       <design.blif> [K]          # BLIF → K-LUT BLIF
//   amdrel_cli pack      <mapped.blif>              # → T-VPack .net text
//   amdrel_cli dutys     [K N W]                    # architecture file
//   amdrel_cli pnr       <mapped.blif>              # place+route report
//   amdrel_cli power     <mapped.blif>              # PowerModel report
//   amdrel_cli dagger    <mapped.blif> <out.bit>    # bitstream file
//   amdrel_cli lint      <design> [top] [--json]    # netlist lint report
//   amdrel_cli lint      <design A> <design B>      # equivalence lint (EQ0xx)
//   amdrel_cli verify    <design A> <design B> [--json] [--seed N]
//                        [--mode formal|both] [--time-limit S]
//   amdrel_cli eco       <base> <edited> [--json]   # incremental recompile
//   amdrel_cli bench_gen <name> <gates> [latches] [seed] [--edit N]
//   amdrel_cli trace-report <trace.jsonl>... [--json]  # analyze obs traces
//       (multiple files — e.g. the daemon's per-job spools — are analyzed
//       as one interleaved trace; span ids keep the trees separate)
//   amdrel_cli job       <spec.json|->              # run one flow::JobSpec
//
// Global flags (any command, removed from argv before dispatch by
// flow::parse_job_spec — the same layer amdrel_serve and the benches
// use):
//   --trace FILE    write the obs trace (JSON-lines) to FILE
//   --progress      human-readable trace spans on stderr while running
//   --metrics FILE  write the metrics-registry snapshot (JSON) on exit
//   --threads N --seed N --verify MODE --rr-dedup|--rr-dense
//   --until STAGE --priority low|normal|high
//
// `job` reads a JSON job description (flow/jobspec.hpp; '-' = stdin),
// runs it through FlowSession exactly as the amdrel_serve daemon would,
// and prints the same result JSON the daemon replies with (stage
// metrics, QoR summary, bitstream fingerprint) — the single-shot
// reference for daemon byte-identity checks.
//
// Designs load by extension: .vhd/.vhdl (synthesized), .edif, .bit
// (deserialized + fabric-decoded) and BLIF otherwise — so `verify` can
// prove e.g. a source BLIF against its programmed bitstream directly.
//
// `flow` and `job` verify with `formal` unless told otherwise: every
// hand-off is SAT-proven, and `--verify both` adds random vectors at
// each (`pnr`, `power` and `dagger` default to `off`). `verify` always
// proves; `--mode both` runs random vectors first, `--mode formal` (the
// default) does not.
//
// Exit codes: 0 success, 2 usage, 3 error (a design that cannot be read,
// a bad option value, a failed compile). Verdicts use the others: `lint`
// exits 1 when any error-severity diagnostic fires (0 when the design is
// clean or has only warnings/notes; --json emits the machine-readable
// report); `verify` exits 0 when the designs are proven equivalent, 1 on
// a proven mismatch and 4 when the result is inconclusive within the
// solver budget; `eco` exits 0 when proven equivalent, 1 otherwise.
//
// `eco` probes the minimum channel width of <base>, compiles it at that
// width plus ECO headroom (eco::headroom_width, the rule eco_bench uses),
// incrementally recompiles <edited> against the base artifacts (src/eco),
// formally proves the recompiled bitstream equivalent to <edited>, and
// reports the reuse statistics and the speedup over the base compile
// (the probe is not timed). `bench_gen` emits a deterministic synthetic
// circuit as BLIF on stdout; with --edit N it applies N small edits
// (retunes/rewires/added LUTs) to that circuit first — generate the base,
// then the edited copy, and feed both to eco.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "eco/eco.hpp"
#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "lint/equiv_rules.hpp"
#include "lint/netlist_rules.hpp"
#include "netlist/blif.hpp"
#include "netlist/edif.hpp"
#include "pack/pack.hpp"
#include "synth/lutmap.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "verify/equiv.hpp"
#include "vhdl/synth.hpp"

namespace {

using namespace amdrel;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::uint8_t> read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open: " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

netlist::Network load_design(const std::string& path, const std::string& top) {
  if (ends_with(path, ".vhd") || ends_with(path, ".vhdl")) {
    return vhdl::synthesize_vhdl(read_file(path), top, path);
  }
  if (ends_with(path, ".edif")) return netlist::read_edif_file(path);
  if (ends_with(path, ".bit")) {
    return bitgen::decode_to_network(bitgen::deserialize(read_binary_file(path)));
  }
  return netlist::read_blif_file(path);
}

/// True when `arg` names a loadable design (pair-mode detection for lint).
bool looks_like_design(const std::string& arg) {
  return ends_with(arg, ".vhd") || ends_with(arg, ".vhdl") ||
         ends_with(arg, ".edif") || ends_with(arg, ".bit") ||
         ends_with(arg, ".blif");
}

/// Exit code of every error path; no command uses it as a verdict.
constexpr int kErrorExit = 3;

int usage() {
  std::fprintf(stderr,
               "usage: amdrel_cli "
               "{flow|synth|e2fmt|map|pack|dutys|pnr|power|dagger|lint|"
               "verify|eco|bench_gen|trace-report|job} "
               "args... [--trace FILE] [--progress] [--metrics FILE]\n"
               "see the header of examples/amdrel_cli.cpp\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ScopedSink trace_guard;
  flow::RuntimeMetricsGuard metrics_guard;
  flow::JobSpecCli cli;
  try {
    cli = flow::parse_job_spec(&argc, argv);
    trace_guard = flow::install_runtime_trace(cli.runtime);
    metrics_guard.path = cli.runtime.metrics;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kErrorExit;
  }
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "flow") {
      flow::JobSpec job = cli.spec;  // --verify/--seed/--rr-* already in
      job.options.search_min_channel_width = true;
      if (argc < 4) return usage();
      if (argc > 4) job.options.artifact_dir = argv[4];
      job.source = flow::JobSpec::Source::kFile;
      job.path = argv[2];
      job.top = argv[3];
      flow::FlowSession session(job);
      session.run_until(job.until);
      const flow::FlowResult& result = session.result();
      std::printf("%s", result.report().c_str());
      if (!result.lint.empty()) {
        std::printf("--- lint ---\n%s", result.lint.to_text().c_str());
      }
      return 0;
    }
    if (cmd == "job") {
      if (argc < 3) return usage();
      const std::string text =
          std::strcmp(argv[2], "-") == 0
              ? std::string(std::istreambuf_iterator<char>(std::cin),
                            std::istreambuf_iterator<char>())
              : read_file(argv[2]);
      const flow::JobSpec job = flow::parse_job_spec_json(text);
      flow::FlowSession session(job);
      session.run_until(job.until);
      util::Json result = flow::job_result_to_json(job, session.result());
      result.set("state", "done");
      std::printf("%s\n", result.dump().c_str());
      return 0;
    }
    if (cmd == "synth") {
      if (argc < 4) return usage();
      auto net = vhdl::synthesize_vhdl(read_file(argv[2]), argv[3], argv[2]);
      netlist::write_edif(net, std::cout);
      return 0;
    }
    if (cmd == "e2fmt") {
      if (argc < 3) return usage();
      auto net = netlist::read_edif_file(argv[2]);
      netlist::write_blif(net, std::cout);
      return 0;
    }
    if (cmd == "map") {
      if (argc < 3) return usage();
      auto net = netlist::read_blif_file(argv[2]);
      net.validate();  // e.g. an undriven signal: exit 1 with the reason
      synth::LutMapOptions options;
      if (argc > 3) options.k = parse_int(argv[3], "map K");
      synth::LutMapStats stats;
      auto mapped = synth::map_to_luts(net, options, &stats);
      std::fprintf(stderr, "# %d LUTs, depth %d\n", stats.luts, stats.depth);
      netlist::write_blif(mapped, std::cout);
      return 0;
    }
    if (cmd == "pack") {
      if (argc < 3) return usage();
      auto net = netlist::read_blif_file(argv[2]);
      net.validate();
      arch::ArchSpec spec;
      pack::PackedNetlist packed(net, spec);
      std::printf("%s", pack::write_net_string(packed).c_str());
      std::fprintf(stderr, "# %s\n", packed.stats().c_str());
      return 0;
    }
    if (cmd == "dutys") {
      arch::ArchSpec spec;
      if (argc > 2) spec.k = parse_int(argv[2], "dutys K");
      if (argc > 3) spec.n = parse_int(argv[3], "dutys N");
      if (argc > 4) spec.channel_width = parse_int(argv[4], "dutys W");
      arch::write_arch(spec, std::cout);
      return 0;
    }
    if (cmd == "lint") {
      if (argc < 3) return usage();
      bool json = false;
      std::string top = "top";
      std::string other;  // second design ⇒ equivalence lint
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json = true;
        else if (looks_like_design(argv[i])) other = argv[i];
        else top = argv[i];
      }
      auto net = load_design(argv[2], top);
      lint::Report report;
      if (other.empty()) {
        report.set_stage("netlist");
        lint::lint_network(net, &report);
      } else {
        auto net_b = load_design(other, top);
        report.set_stage("equiv");
        lint::EquivCheckOptions options;
        lint::check_equivalence_pair(net, net_b, options, &report);
      }
      std::printf("%s", (json ? report.to_json().dump() + "\n"
                              : report.to_text()).c_str());
      return report.has_errors() ? 1 : 0;
    }
    if (cmd == "verify") {
      if (argc < 4) return usage();
      bool json = false;
      lint::EquivCheckOptions options;
      options.run_random = false;
      // --seed is stripped by the shared parser; --mode stays local so
      // `verify --mode` and the flow-level --verify keep distinct roles.
      if (cli.seed_given) options.formal.seed = cli.spec.options.seed;
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
          json = true;
        } else if (std::strcmp(argv[i], "--time-limit") == 0 && i + 1 < argc) {
          options.formal.time_limit_s =
              parse_double(argv[++i], "--time-limit");
        } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
          const flow::VerifyMode mode = flow::parse_verify_mode(argv[++i]);
          if (mode == flow::VerifyMode::kOff) return usage();
          options.run_random = mode == flow::VerifyMode::kBoth;
        } else {
          return usage();
        }
      }
      auto net_a = load_design(argv[2], "top");
      auto net_b = load_design(argv[3], "top");
      lint::Report report;
      report.set_stage("equiv");
      const verify::EquivResult result =
          lint::check_equivalence_pair(net_a, net_b, options, &report);
      std::printf("%s", (json ? result.to_json().dump() + "\n"
                              : result.to_text()).c_str());
      if (!json && !report.empty()) std::printf("%s", report.to_text().c_str());
      switch (result.status) {
        case verify::EquivStatus::kEquivalent: return 0;
        case verify::EquivStatus::kNotEquivalent: return 1;
        case verify::EquivStatus::kUnknown: return 4;
      }
      return 4;
    }
    if (cmd == "bench_gen") {
      if (argc < 4) return usage();
      flow::JobSpec job;
      job.source = flow::JobSpec::Source::kBenchGen;
      job.bench.name = argv[2];
      job.bench.n_gates = parse_int(argv[3], "bench_gen gates");
      int pos = 0;  // positional: [latches] [seed]
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--edit") == 0 && i + 1 < argc) {
          job.bench_edits = parse_int(argv[++i], "--edit");
        } else if (pos == 0) {
          job.bench.n_latches = parse_int(argv[i], "bench_gen latches");
          ++pos;
        } else if (pos == 1) {
          job.bench.seed = parse_u64(argv[i], "bench_gen seed");
          ++pos;
        } else {
          return usage();
        }
      }
      netlist::write_blif(flow::resolve_job_network(job), std::cout);
      return 0;
    }
    if (cmd == "eco") {
      if (argc < 4) return usage();
      bool json = false;
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json = true;
        else return usage();
      }
      auto base = load_design(argv[2], "top");
      auto edited = load_design(argv[3], "top");
      base.validate();
      edited.validate();

      flow::FlowOptions options;
      options.verify_mode = flow::VerifyMode::kOff;  // proven below instead
      {
        flow::FlowOptions probe = options;
        probe.search_min_channel_width = true;
        flow::FlowSession session(base, probe);
        session.run_until(flow::Stage::kRoute);
        options.arch.channel_width =
            eco::headroom_width(session.result().channel_width);
      }
      using clock = std::chrono::steady_clock;
      const auto t0 = clock::now();
      flow::FlowSession session(base, options);
      if (session.resume() != flow::SessionState::kDone) {
        throw Error("eco: base compile did not complete");
      }
      const auto t1 = clock::now();
      eco::EcoStats stats;
      if (session.resume_with_edit(edited, &stats) !=
          flow::SessionState::kDone) {
        throw Error("eco: incremental recompile did not complete");
      }
      const auto t2 = clock::now();

      // The safety net: the recompiled bitstream must implement the edit.
      // The packing/placement-derived register map pins FF matching.
      const netlist::Network fabric =
          bitgen::decode_to_network(session.result().bitstream);
      verify::EquivOptions vopt;
      vopt.register_map = flow::fabric_register_map(session.result());
      const verify::EquivResult eq =
          verify::prove_equivalence(edited, fabric, vopt);
      const double base_s = std::chrono::duration<double>(t1 - t0).count();
      const double eco_s = std::chrono::duration<double>(t2 - t1).count();
      const double speedup = eco_s > 0.0 ? base_s / eco_s : 0.0;
      if (json) {
        util::Json out = util::Json::make_object();
        out.set("cmd", "eco");
        out.set("base", argv[2]);
        out.set("edited", argv[3]);
        out.set("base_s", base_s);
        out.set("eco_s", eco_s);
        out.set("speedup", speedup);
        out.set("dirty_pct", stats.entry_diff.dirty_pct());
        out.set("reuse_ratio", stats.reuse_ratio());
        out.set("incremental_map", stats.incremental_map);
        out.set("luts_reused", stats.luts_reused);
        out.set("clusters_reused", stats.clusters_reused);
        out.set("blocks_matched", stats.blocks_matched);
        out.set("nets_seeded", stats.nets_seeded);
        out.set("nets_rerouted", stats.nets_rerouted);
        out.set("channel_width", stats.channel_width);
        out.set("fallbacks", stats.fallbacks);
        out.set("verified", eq.equivalent());
        std::printf("%s\n", out.dump().c_str());
      } else {
        std::printf("base compile   %.3fs (W=%d)\n", base_s,
                    stats.channel_width);
        std::printf("eco recompile  %.3fs (%.1fx speedup)\n", eco_s, speedup);
        std::printf("edit           %.2f%% of cells dirty\n",
                    100.0 * stats.entry_diff.dirty_pct());
        std::printf("reuse          %.1f%% (luts %d/%d, clusters %d/%d, "
                    "blocks %d/%d, nets %d/%d seeded)\n",
                    100.0 * stats.reuse_ratio(), stats.luts_reused,
                    stats.luts_total, stats.clusters_reused,
                    stats.clusters_total, stats.blocks_matched,
                    stats.blocks_total, stats.nets_seeded, stats.nets_total);
        std::printf("equivalence    %s\n", eq.message.c_str());
      }
      return eq.equivalent() ? 0 : 1;
    }
    if (cmd == "trace-report") {
      if (argc < 3) return usage();
      bool json = false;
      std::vector<const char*> files;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
          json = true;
        } else {
          files.push_back(argv[i]);
        }
      }
      if (files.empty()) return usage();
      // Several files (e.g. the daemon's per-job spools) concatenate into
      // one interleaved trace: span ids keep each job's tree exact, and
      // the report counts the distinct trace ids.
      std::stringstream all;
      for (const char* file : files) {
        std::ifstream in(file);
        if (!in) {
          std::fprintf(stderr, "amdrel_cli: cannot open '%s'\n", file);
          return kErrorExit;
        }
        all << in.rdbuf();
      }
      obs::TraceReport report = obs::analyze_trace(all);
      std::printf("%s", (json ? report.to_json().dump() + "\n"
                              : report.to_text()).c_str());
      return 0;
    }
    if (cmd == "pnr" || cmd == "power" || cmd == "dagger") {
      if (argc < 3) return usage();
      flow::JobSpec job = cli.spec;
      job.source = flow::JobSpec::Source::kFile;
      job.path = argv[2];
      job.options.search_min_channel_width = true;
      if (!cli.verify_given) job.options.verify_mode = flow::VerifyMode::kOff;
      flow::FlowSession session(job);
      // `power` needs nothing past the power/timing stage; the other two
      // report on (or write) the programming file.
      session.run_until(cmd == "power" ? flow::Stage::kPower
                                       : flow::Stage::kBitgen);
      const flow::FlowResult& result = session.result();
      if (cmd == "pnr") {
        std::printf("%s", result.report().c_str());
      } else if (cmd == "power") {
        std::printf("%s\n", result.power.summary().c_str());
      } else {
        if (argc < 4) return usage();
        std::ofstream out(argv[3], std::ios::binary);
        out.write(
            reinterpret_cast<const char*>(result.bitstream_bytes.data()),
            static_cast<std::streamsize>(result.bitstream_bytes.size()));
        std::printf("wrote %zu bytes (%lld config bits) to %s\n",
                    result.bitstream_bytes.size(),
                    result.bitstream.config_bits(), argv[3]);
      }
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kErrorExit;
  }
}
