#include "common.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <numeric>
#include <thread>

#include "bitgen/bitstream.hpp"
#include "flow/jobspec.hpp"
#include "lint/flow_rules.hpp"
#include "lint/netlist_rules.hpp"
#include "lint/rr_rules.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "obs/metrics.hpp"
#include "synth/opt.hpp"
#include "util/strings.hpp"
#include "verify/equiv.hpp"

namespace perfbench {

using namespace amdrel;

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"op_latency_p50_s", "s"},
    {"op_latency_p90_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"channel_width_per_op", "tracks"},
    {"wire_nodes_per_op", "count"},
    {"fmax_mhz_mean", "MHz"},
    {"ops_ok_ratio", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"flow.synth_s", "s"},
    {"flow.map_s", "s"},
    {"flow.pack_s", "s"},
    {"flow.place_s", "s"},
    {"flow.route_s", "s"},
    {"flow.power_s", "s"},
    {"flow.bitgen_s", "s"},
    {"route.minw_search_s", "s"},
    {"route.minw_search_share", "ratio"},
    {"route.minw_probes", "count/op"},
    {"route.rr_build_s", "s"},
    {"route.rr_build_share", "ratio"},
    {"route.route_all_s", "s"},
    {"route.route_all_share", "ratio"},
    {"route.iterations", "count/op"},
    {"verify.prove_s", "s"},
    {"verify.prove_share", "ratio"},
    {"verify.proofs", "count/op"},
    {"verify.sat_clauses", "count/op"},
    {"place.anneal_s", "s"},
    {"place.anneal_share", "ratio"},
    {"place.moves", "count/op"},
    {"lint.barriers_s", "s"},
    {"lint.barriers_share", "ratio"},
    {"synth.map_to_luts_s", "s"},
    {"synth.map_to_luts_share", "ratio"},
    {"pack.cluster_s", "s"},
    {"pack.cluster_share", "ratio"},
    {"timing.analyze_s", "s"},
    {"timing.analyze_share", "ratio"},
    {"power.estimate_s", "s"},
    {"power.estimate_share", "ratio"},
    {"bitgen.generate_s", "s"},
    {"bitgen.generate_share", "ratio"},
    {"bitgen.serialize_s", "s"},
    {"bitgen.serialize_share", "ratio"},
    {"bitgen.decode_s", "s"},
    {"bitgen.decode_share", "ratio"},
    {"eco.diff_s", "s"},
    {"eco.diff_share", "ratio"},
    {"eco.recompile_s", "s"},
    {"eco.recompile_share", "ratio"},
    {"eco.fallbacks", "count/op"},
    {"eco.nets_rerouted", "count/op"},
    {"eco.reuse_ratio", "ratio"},
    {"serve.submit_rtt_s", "s"},
    {"serve.queue_wait_s", "s"},
    {"serve.run_wall_s", "s"},
    {"serve.overhead_s", "s"},
    {"rr.tmpl_cache_hits", "count/op"},
    {"trace.op_wall_s", "s"},
    {"trace.stage_sum_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.replayed_ops", "count"},
    {"trace.replay_mismatches", "count"},
};

const std::vector<std::string> kCounterNames = {
    "route.minw_probes", "route.iterations",   "place.moves",
    "verify.formal_checks", "verify.sat_clauses", "rr.tmpl_cache_hits",
    "eco.fallbacks",     "eco.nets_rerouted",
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : strprintf("/proc/%d/status", pid);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "VmHWM:")) {
      return static_cast<double>(std::stol(line.substr(6))) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "model name")) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

int probe_threads() {
  return static_cast<int>(std::thread::hardware_concurrency());
}

util::Json fingerprint(const RunConfig& cfg) {
  util::Json fp = util::Json::make_object();
  fp.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  fp.set("cpu", cpu_model());
  struct utsname u {};
  if (uname(&u) == 0) {
    fp.set("kernel", std::string(u.sysname) + " " + u.release);
  }
  fp.set("compiler", PERFBENCH_COMPILER);
  fp.set("build_type", PERFBENCH_BUILD_TYPE);
  fp.set("probe_threads", probe_threads());
  fp.set("workload", cfg.workload);
  fp.set("seed", cfg.seed);
  fp.set("seconds", util::Json::make_number(cfg.seconds));
  fp.set("trace", cfg.trace);
  fp.set("small", cfg.small);
  return fp;
}

std::uint64_t fnv_fold(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  return strprintf("%016llx", static_cast<unsigned long long>(h));
}

std::string check_bitstream(const std::vector<std::uint8_t>& bytes,
                            const netlist::Network& source,
                            std::uint64_t seed) {
  try {
    const netlist::Network fabric =
        bitgen::decode_to_network(bitgen::deserialize(bytes));
    const netlist::EquivalenceResult eq =
        netlist::check_equivalence(source, fabric, 8, 64, seed);
    return eq.equivalent ? "" : "not equivalent to source: " + eq.message;
  } catch (const std::exception& e) {
    return std::string("bitstream rejected: ") + e.what();
  }
}

void corrupt(std::vector<std::uint8_t>* bytes) {
  try {
    bitgen::Bitstream bits = bitgen::deserialize(*bytes);
    for (bitgen::ClbConfig& clb : bits.clbs) {
      bool touched = false;
      for (bitgen::BleConfig& ble : clb.bles) {
        if (!ble.used) continue;
        const int rows = 1 << bits.k;
        const std::uint32_t mask =
            rows >= 32 ? 0xffffffffu : ((1u << rows) - 1u);
        ble.lut_bits = ~ble.lut_bits & mask;
        touched = true;
      }
      if (touched) {
        *bytes = bitgen::serialize(bits);
        return;
      }
    }
  } catch (const std::exception&) {
  }
  bytes->resize(bytes->size() / 2);  // no LUT to flip: truncate instead
}

std::map<std::string, double> counter_snapshot() {
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  std::map<std::string, double> out;
  for (const std::string& name : kCounterNames) {
    out[name] = static_cast<double>(snap.counter(name));
  }
  return out;
}

std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    out[name] = v - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

void add_counts(const std::map<std::string, double>& totals, double n_ops,
                RunResult* run) {
  if (n_ops <= 0.0) return;
  for (const auto& [name, v] : totals) {
    const std::string key =
        name == "verify.formal_checks" ? "verify.proofs" : name;
    run->layer[key] = v / n_ops;
  }
}

void replay_flow(const flow::FlowResult& r, const flow::FlowOptions& options,
                 bool min_width, KernelTimes* out) {
  const arch::ArchSpec& arch = *r.arch;

  // Mapping: the SIS-role clean-up is input preparation, the LUT mapper
  // is the timed kernel.
  netlist::Network opt = synth::propagate_constants(r.synthesized);
  synth::sweep_dead_logic(opt);
  synth::LutMapStats map_stats;
  out->time("synth.map_to_luts_s", [&] {
    (void)synth::map_to_luts(opt, synth::LutMapOptions{arch.k, 8},
                             &map_stats);
  });
  if (map_stats.luts != r.map_stats.luts) {
    out->mismatch(strprintf("map: %d LUTs vs %d", map_stats.luts,
                            r.map_stats.luts));
  }

  std::unique_ptr<pack::PackedNetlist> packed;
  out->time("pack.cluster_s", [&] {
    packed = std::make_unique<pack::PackedNetlist>(*r.mapped, arch);
  });
  if (packed->clusters().size() != r.packed->clusters().size()) {
    out->mismatch("pack: cluster count differs");
  }

  place::Placement placement(*r.packed, arch);
  place::Placement::AnnealOptions popt;
  popt.seed = options.seed;
  place::Placement::AnnealStats place_stats;
  out->time("place.anneal_s", [&] { place_stats = placement.anneal(popt); });
  if (place_stats.final_cost != r.place_stats.final_cost) {
    out->mismatch("place: final cost differs");
  }

  // Routing on the session's placement: the replayed width and routing
  // feed the replayed bitstream, so its hash checks the whole route.
  route::RouteOptions ropt;
  ropt.rr.dedup = options.rr_dedup;
  ropt.probe_threads = probe_threads();
  int width = arch.channel_width;
  route::RouteResult routing;
  if (min_width) {
    out->time("route.minw_search_s", [&] {
      width = route::minimum_channel_width(*r.placement, arch, &routing, ropt);
    });
  }
  if (width != r.channel_width) {
    out->mismatch(strprintf("route: W=%d vs W=%d", width, r.channel_width));
    return;
  }
  std::unique_ptr<route::RrGraph> rr;
  out->time("route.rr_build_s", [&] {
    rr = std::make_unique<route::RrGraph>(*r.placement, arch, width, ropt.rr);
  });
  if (!min_width) {
    out->time("route.route_all_s",
          [&] { routing = route::route_all(*rr, *r.placement, ropt); });
  }
  if (!routing.success) {
    out->mismatch("route: replay did not route");
    return;
  }

  timing::TimingReport timing;
  out->time("timing.analyze_s", [&] {
    timing = timing::analyze_timing(*r.packed, *r.placement, *rr, routing,
                                    arch);
  });
  if (timing.critical_path_s != r.timing.critical_path_s) {
    out->mismatch("timing: critical path differs");
  }
  out->time("power.estimate_s", [&] {
    (void)power::estimate_power(*r.packed, *r.placement, *rr, routing, arch,
                                options.power);
  });

  bitgen::Bitstream bits;
  out->time("bitgen.generate_s", [&] {
    bits = bitgen::generate_bitstream(*r.packed, *r.placement, *rr, routing,
                                      arch);
  });
  std::vector<std::uint8_t> bytes;
  out->time("bitgen.serialize_s", [&] { bytes = bitgen::serialize(bits); });
  if (flow::fnv1a64_hex(bytes) != flow::fnv1a64_hex(r.bitstream_bytes)) {
    out->mismatch("bitgen: bitstream hash differs");
  }
  netlist::Network fabric;
  out->time("bitgen.decode_s", [&] {
    fabric = bitgen::decode_to_network(bitgen::deserialize(bytes));
  });

  // The flow's seven formal hand-offs (verify=formal, network entry),
  // each proof timed alone; its inputs are built outside the timer.
  if (options.verify_mode == flow::VerifyMode::kFormal ||
      options.verify_mode == flow::VerifyMode::kBoth) {
    verify::EquivOptions eopt;
    eopt.seed = options.verify_seed;
    eopt.time_limit_s = options.verify_time_limit_s;
    const auto regmap = flow::fabric_register_map(r);
    auto prove = [&](const char* what, const netlist::Network& a,
                     const netlist::Network& b, bool pinned) {
      verify::EquivOptions o = eopt;
      if (pinned) o.register_map = regmap;
      verify::EquivResult res;
      out->time("verify.prove_s",
            [&] { res = verify::prove_equivalence(a, b, o); });
      if (!res.equivalent()) {
        out->mismatch(std::string("proof ") + what + ": " + res.message);
      }
    };
    const netlist::Network round_trip = netlist::read_blif_string(
        netlist::write_blif_string(r.synthesized));
    const netlist::Network from_pack = pack::reconstruct_network(*r.packed);
    const netlist::Network from_place =
        place::reconstruct_network(*r.placement);
    const netlist::Network routed = bitgen::decode_to_network(bits);
    prove("synth", r.synthesized, round_trip, false);
    prove("map", r.synthesized, *r.mapped, false);
    prove("pack", *r.mapped, from_pack, false);
    prove("place", *r.mapped, from_place, false);
    prove("route", *r.mapped, routed, true);
    prove("power", r.synthesized, from_pack, false);
    prove("bitgen", *r.mapped, fabric, true);
  }

  if (options.check_invariants) {
    lint::Report report;
    out->time("lint.barriers_s", [&] {
      lint::lint_network(*r.mapped, &report);
      lint::check_post_pack(*r.packed, &report);
      lint::check_post_place(*r.placement, &report);
      lint::lint_rr_graph(*r.rr_graph, &report);
      lint::check_post_route(*r.rr_graph, r.routing, &report);
      lint::check_post_bitgen(r.bitstream_bytes, *r.mapped, &report);
    });
    if (report.has_errors()) out->mismatch("lint: " + report.to_text());
  }
}

void add_kernel_metrics(const KernelTimes& kt, RunResult* run) {
  if (kt.n_ops == 0) return;
  for (const auto& [name, s] : kt.seconds) {
    run->layer[name] = s / kt.n_ops;
  }
  run->layer["trace.replayed_ops"] = kt.n_ops;
  run->layer["trace.replay_mismatches"] = kt.mismatches;
  if (kt.mismatches > 0) {
    run->replay_ok = false;
    util::Json notes = util::Json::make_array();
    for (const std::string& n : kt.notes) notes.push_back(util::Json::make_string(n));
    run->info.set("replay_mismatches", std::move(notes));
  }
}

}  // namespace perfbench
