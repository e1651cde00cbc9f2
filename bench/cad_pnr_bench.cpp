// CAD place & route kernel benchmark: placer move throughput, fixed-width
// routing time, and minimum-channel-width search wall time on the
// `mcnc_like_suite` subset, comparing the incremental kernels against
// their full-recompute oracle paths.
//
//   --json         machine-readable output (one JSON object on stdout)
//   --threads N    min-W probe wave width: probes run at once on the shared
//                  executor (0 = its size, one thread per core); results
//                  are independent of this value
//   --incremental  run only the incremental kernels (no oracle baseline)
//   --oracle       run only the oracle kernels (no speedup ratios)
//
// "e2e" is the routed flow — anneal plus routing at the relaxed width
// minW+2 (VPR's low-stress convention). The min-W binary search is timed
// as its own metric; both modes must agree on the width it returns.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_gen/bench_gen.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/pathfinder.hpp"
#include "route/rr_graph.hpp"
#include "synth/lutmap.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One mode's (incremental or oracle) measurements for one circuit.
struct ModeResult {
  double place_s = 0;
  long long moves = 0;
  double bbox_cost = 0;
  int min_w = -1;
  int wires = 0;
  double minw_s = 0;
  int route_w = 0;
  double route_s = 0;
  int route_iters = 0;

  double moves_per_s() const { return place_s > 0 ? moves / place_s : 0; }
  double e2e_s() const { return place_s + route_s; }
};

struct CircuitResult {
  std::string name;
  int blocks = 0;
  int nets = 0;
  ModeResult inc;
  ModeResult orc;
};

ModeResult run_mode(const amdrel::pack::PackedNetlist& packed,
                    const amdrel::arch::ArchSpec& spec, bool incremental,
                    int threads, int route_w_override) {
  using namespace amdrel;
  ModeResult r;

  place::Placement p(packed, spec);
  place::Placement::AnnealOptions ao;
  ao.incremental = incremental;
  auto t0 = Clock::now();
  auto stats = p.anneal(ao);
  r.place_s = secs_since(t0);
  r.moves = stats.moves;
  r.bbox_cost = stats.final_cost;

  route::RouteOptions ro;
  ro.incremental = incremental;
  ro.probe_threads = threads;
  route::RouteResult rr;
  t0 = Clock::now();
  r.min_w = route::minimum_channel_width(p, spec, &rr, ro);
  r.minw_s = secs_since(t0);
  r.wires = rr.total_wire_nodes;

  // Routed flow: one routing pass at a relaxed width (minW+2 unless the
  // caller pins a width so both modes use the same graph).
  r.route_w = route_w_override > 0 ? route_w_override : r.min_w + 2;
  route::RrGraph graph(p, spec, r.route_w);
  t0 = Clock::now();
  auto fixed = route::route_all(graph, p, ro);
  r.route_s = secs_since(t0);
  r.route_iters = fixed.iterations;
  route::verify_routing(graph, fixed);  // throws if illegal
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amdrel;
  bool run_inc = true, run_orc = true;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, " [--incremental] [--oracle]",
      [&](int, char** av, int* i) {
        if (std::strcmp(av[*i], "--incremental") == 0) {
          run_orc = false;
          return true;
        }
        if (std::strcmp(av[*i], "--oracle") == 0) {
          run_inc = false;
          return true;
        }
        return false;
      });
  if (!run_inc && !run_orc) run_inc = run_orc = true;
  auto trace_guard = bench::install_trace(args);
  bench::ScopedMetricsFile metrics_guard(args);
  const bool json = args.json;
  const int threads = args.threads;

  auto suite = bench_gen::mcnc_like_suite();
  suite.resize(4);  // the flow_qor subset

  std::vector<CircuitResult> results;
  bool widths_match = true;
  double tot[2][3] = {};  // [inc|orc][place, route, minw]
  for (const auto& bspec : suite) {
    auto net = synth::map_to_luts(bench_gen::generate(bspec),
                                  synth::LutMapOptions{4, 8});
    arch::ArchSpec spec;
    pack::PackedNetlist packed(net, spec);

    CircuitResult c;
    c.name = bspec.name;
    if (run_inc) c.inc = run_mode(packed, spec, true, threads, 0);
    if (run_orc) {
      // Pin the oracle's fixed-width pass to the incremental run's width
      // so the two route the same graph (they agree on min-W anyway).
      c.orc = run_mode(packed, spec, false, threads,
                       run_inc ? c.inc.route_w : 0);
    }
    {
      place::Placement p(packed, spec);
      c.blocks = static_cast<int>(p.blocks().size());
      c.nets = static_cast<int>(p.nets().size());
    }
    if (run_inc && run_orc && c.inc.min_w != c.orc.min_w) {
      widths_match = false;
    }
    tot[0][0] += c.inc.place_s;
    tot[0][1] += c.inc.route_s;
    tot[0][2] += c.inc.minw_s;
    tot[1][0] += c.orc.place_s;
    tot[1][1] += c.orc.route_s;
    tot[1][2] += c.orc.minw_s;
    results.push_back(std::move(c));
  }

  const bool both = run_inc && run_orc;
  if (json) {
    util::Json doc = util::Json::make_object();
    doc.set("bench", "cad_pnr");
    doc.set("suite", "mcnc_like_suite[0:4]");
    doc.set("threads", threads);
    doc.set("mode", both ? "both" : (run_inc ? "incremental" : "oracle"));
    util::Json circuits = util::Json::make_array();
    for (const CircuitResult& c : results) {
      util::Json j = util::Json::make_object();
      j.set("name", c.name);
      j.set("blocks", c.blocks);
      j.set("nets", c.nets);
      auto mode_fields = [&j](const std::string& p, const ModeResult& m) {
        j.set(p + "_place_s", m.place_s);
        j.set(p + "_moves_per_s", m.moves_per_s());
        j.set(p + "_bbox_cost", m.bbox_cost);
        j.set(p + "_min_w", m.min_w);
        j.set(p + "_wires", m.wires);
        j.set(p + "_minw_s", m.minw_s);
        j.set(p + "_route_w", m.route_w);
        j.set(p + "_route_s", m.route_s);
        j.set(p + "_e2e_s", m.e2e_s());
      };
      if (run_inc) mode_fields("inc", c.inc);
      if (run_orc) mode_fields("oracle", c.orc);
      if (both) {
        j.set("widths_match", c.inc.min_w == c.orc.min_w);
        j.set("bbox_dcost_pct",
              100.0 * (c.inc.bbox_cost - c.orc.bbox_cost) / c.orc.bbox_cost);
        j.set("speedup_place", c.orc.place_s / c.inc.place_s);
        j.set("speedup_route", c.orc.route_s / c.inc.route_s);
        j.set("speedup_minw", c.orc.minw_s / c.inc.minw_s);
        j.set("speedup_e2e", c.orc.e2e_s() / c.inc.e2e_s());
      }
      circuits.push_back(std::move(j));
    }
    doc.set("circuits", std::move(circuits));
    if (both) {
      doc.set("widths_match", widths_match);
      doc.set("speedup_place", tot[1][0] / tot[0][0]);
      doc.set("speedup_route", tot[1][1] / tot[0][1]);
      doc.set("speedup_minw", tot[1][2] / tot[0][2]);
      doc.set("speedup_e2e",
              (tot[1][0] + tot[1][1]) / (tot[0][0] + tot[0][1]));
      doc.set("speedup_full",
              (tot[1][0] + tot[1][1] + tot[1][2]) /
                  (tot[0][0] + tot[0][1] + tot[0][2]));
    }
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  std::printf("CAD P&R kernels: incremental vs oracle (mcnc_like_suite[0:4])\n\n");
  Table table({"circuit", "blocks", "mode", "place s", "Mmoves/s", "bbox",
               "minW", "wires", "minW s", "route W", "route s", "e2e s"});
  auto add_mode = [&table](const CircuitResult& c, const char* label,
                           const ModeResult& m) {
    table.add_row({c.name, std::to_string(c.blocks), label,
                   strprintf("%.3f", m.place_s),
                   strprintf("%.2f", m.moves_per_s() / 1e6),
                   strprintf("%.1f", m.bbox_cost), std::to_string(m.min_w),
                   std::to_string(m.wires), strprintf("%.3f", m.minw_s),
                   std::to_string(m.route_w), strprintf("%.3f", m.route_s),
                   strprintf("%.3f", m.e2e_s())});
  };
  for (const CircuitResult& c : results) {
    if (run_inc) add_mode(c, "inc", c.inc);
    if (run_orc) add_mode(c, "oracle", c.orc);
  }
  std::printf("%s\n", table.to_string().c_str());
  if (both) {
    std::printf(
        "suite speedups (oracle/incremental): place %.2fx, route %.2fx, "
        "min-W search %.2fx, e2e (place+route) %.2fx, full flow %.2fx\n",
        tot[1][0] / tot[0][0], tot[1][1] / tot[0][1], tot[1][2] / tot[0][2],
        (tot[1][0] + tot[1][1]) / (tot[0][0] + tot[0][1]),
        (tot[1][0] + tot[1][1] + tot[1][2]) /
            (tot[0][0] + tot[0][1] + tot[0][2]));
    std::printf("min channel widths %s\n",
                widths_match ? "identical across modes"
                             : "DIFFER across modes (QoR regression)");
  }
  return widths_match ? 0 : 1;
}
