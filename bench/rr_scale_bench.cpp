// RR-graph scale benchmark: the tile-pattern deduplicated representation
// against the dense per-node oracle, plus a giant-fabric tier that places,
// routes and streams a bitstream for a >=100k-LUT circuit in fixed memory.
//
//   --json           machine-readable output (one JSON object on stdout)
//   --reps N         RR-build repetitions per timing sample (default 20;
//                    the small-tier graphs build in microseconds)
//   --giant-gates N  generated gate count for the giant tier (default
//                    210000, ~104k LUTs after mapping; 0 skips the tier)
//   --giant-width W  starting channel width for the giant route (default
//                    72; grown 1.5x until routable, the final width is
//                    reported and gated)
//
// Small tiers run the full min-channel-width search twice — once per
// representation — and the two must agree exactly on width and routed
// wire count (the dedup build is bit-identical by construction; this
// bench is the performance regression gate on top of that equivalence).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "obs/obs.hpp"
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

struct TierResult {
  std::string name;
  int blocks = 0;
  int min_w = -1;            ///< dedup min channel width
  int min_w_dense = -1;      ///< dense oracle min channel width
  int wires = 0;
  int wires_dense = 0;
  int rr_nodes = 0;
  long long rr_edges = 0;
  int patterns = 0;
  double dedup_build_s = 0;  ///< per-build, averaged over --reps
  double dense_build_s = 0;
  long long dedup_bytes = 0;
  long long dense_bytes = 0;

  bool match() const {
    return min_w == min_w_dense && wires == wires_dense;
  }
  double build_speedup() const {
    return dedup_build_s > 0 ? dense_build_s / dedup_build_s : 0;
  }
  double mem_ratio() const {
    return dedup_bytes > 0 ? static_cast<double>(dense_bytes) / dedup_bytes
                           : 0;
  }
};

struct GiantResult {
  int gates = 0;
  int luts = 0;
  int clusters = 0;
  int nx = 0, ny = 0;
  int width = 0;
  int rr_nodes = 0;
  long long rr_edges = 0;
  int patterns = 0;
  long long rr_bytes = 0;
  double rr_build_s = 0;
  double place_s = 0;
  double route_s = 0;
  double bitgen_s = 0;
  int wires = 0;
  int route_iters = 0;
  long long bitstream_bytes = 0;
  std::string hash;          ///< FNV-1a of the streamed bitstream
};

TierResult run_tier(const amdrel::bench_gen::BenchSpec& bspec, int reps) {
  using namespace amdrel;
  auto net = synth::map_to_luts(bench_gen::generate(bspec),
                                synth::LutMapOptions{4, 8});
  arch::ArchSpec spec;
  pack::PackedNetlist packed(net, spec);
  place::Placement p(packed, spec);
  place::Placement::AnnealOptions ao;
  p.anneal(ao);

  TierResult r;
  r.name = bspec.name;
  r.blocks = static_cast<int>(p.blocks().size());

  // Min-W search per representation: the searches must agree exactly.
  route::RouteOptions ro;
  ro.rr.dedup = true;
  route::RouteResult rr_dd, rr_dense;
  r.min_w = route::minimum_channel_width(p, spec, &rr_dd, ro);
  r.wires = rr_dd.total_wire_nodes;
  ro.rr.dedup = false;
  r.min_w_dense = route::minimum_channel_width(p, spec, &rr_dense, ro);
  r.wires_dense = rr_dense.total_wire_nodes;

  // Build timing at the relaxed width minW+2 (the flow's routing width).
  const int w = r.min_w + 2;
  auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    route::RrGraph g(p, spec, w, route::RrOptions{true});
    r.rr_nodes = g.num_nodes();
    r.rr_edges = g.num_edges();
    r.patterns = g.unique_patterns();
    r.dedup_bytes = g.bytes_est();
  }
  r.dedup_build_s = secs_since(t0) / reps;
  t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    route::RrGraph g(p, spec, w, route::RrOptions{false});
    r.dense_bytes = g.bytes_est();
  }
  r.dense_build_s = secs_since(t0) / reps;
  return r;
}

// Locality-preserving order of the CLB locations: snake over BxB tile
// blocks, then snake within each block, flipping direction on odd rows at
// both levels so consecutive curve positions are always adjacent tiles.
// Distance d along the curve maps to Manhattan distance ~sqrt(d), so a
// cluster order with short-range affinity becomes a low-wirelength seed.
std::vector<amdrel::place::Loc> blocked_snake(
    std::vector<amdrel::place::Loc> locs, int block) {
  using amdrel::place::Loc;
  auto key = [block](const Loc& l) {
    const int bx = l.x / block, by = l.y / block;
    const int ex = (by & 1) ? (1 << 19) - bx : bx;
    const int iy = l.y % block;
    const int ix =
        ((by & 1) ^ (iy & 1)) ? (1 << 9) - l.x % block : l.x % block;
    return (static_cast<long long>(by) << 40) |
           (static_cast<long long>(ex) << 20) | (iy << 10) | ix;
  };
  std::sort(locs.begin(), locs.end(),
            [&](const Loc& a, const Loc& b) { return key(a) < key(b); });
  return locs;
}

GiantResult run_giant(int gates, int width) {
  using namespace amdrel;
  GiantResult r;
  r.gates = gates;

  bench_gen::BenchSpec bspec;
  bspec.name = "giant";
  bspec.n_inputs = 64;
  bspec.n_outputs = 32;
  bspec.n_gates = gates;
  bspec.n_latches = 0;
  // Bounded-window locality: channel demand must stay flat as the design
  // scales, or no fixed width routes the tier (see BenchSpec::window).
  bspec.locality = 0.99;
  bspec.window = 16;
  bspec.seed = 77;
  auto net = synth::map_to_luts(bench_gen::generate(bspec),
                                synth::LutMapOptions{4, 8});
  r.luts = static_cast<int>(net.gates().size());

  arch::ArchSpec spec;
  pack::PackedNetlist packed(net, spec);
  r.clusters = static_cast<int>(packed.clusters().size());
  place::Placement p(packed, spec);
  r.nx = p.nx();
  r.ny = p.ny();

  // Constructive placement: a full anneal from a random start is both too
  // slow at this scale and unable to rediscover the netlist's sequential
  // locality. Instead, rank clusters by their mean LUT creation index
  // (pack scrambles cluster order; the LUT index is the locality axis the
  // generator built in), lay the ranked clusters along a blocked snake
  // curve, then clean up with a short radius-limited anneal whose low
  // starting temperature preserves the curve's global structure.
  auto t0 = Clock::now();
  {
    const int nc = static_cast<int>(packed.clusters().size());
    std::vector<std::pair<double, int>> ranked(
        static_cast<std::size_t>(nc));
    for (int c = 0; c < nc; ++c) {
      double sum = 0;
      int cnt = 0;
      for (int bi : packed.clusters()[static_cast<std::size_t>(c)].bles) {
        const int lut = packed.bles()[static_cast<std::size_t>(bi)].lut_gate;
        if (lut >= 0) {
          sum += lut;
          ++cnt;
        }
      }
      ranked[static_cast<std::size_t>(c)] = {cnt ? sum / cnt : 0.0, c};
    }
    std::sort(ranked.begin(), ranked.end());
    const auto curve = blocked_snake(p.legal_clb_locs(), 8);
    for (int i = 0; i < nc; ++i) {
      p.set_location(p.block_of_cluster(ranked[static_cast<std::size_t>(i)]
                                            .second),
                     curve[static_cast<std::size_t>(i)]);
    }
    p.validate();
    place::Placement::AnnealOptions ao;
    ao.inner_num = 1.0;
    ao.rlim_max = 4.0;
    p.anneal(ao);
  }
  r.place_s = secs_since(t0);

  // Fixed-width route; grow W until routable so one bad guess does not
  // kill the run (the final width is a gated metric). A stall window
  // keeps a failing width from burning the full iteration budget.
  route::RouteOptions ro;
  ro.stall_window = 8;
  route::RouteResult routed;
  for (int w = width;; w += (w + 1) / 2) {
    t0 = Clock::now();
    route::RrGraph graph(p, spec, w, route::RrOptions{true});
    r.rr_build_s = secs_since(t0);
    r.width = w;
    r.rr_nodes = graph.num_nodes();
    r.rr_edges = graph.num_edges();
    r.patterns = graph.unique_patterns();
    r.rr_bytes = graph.bytes_est();

    t0 = Clock::now();
    routed = route::route_all(graph, p, ro);
    r.route_s = secs_since(t0);
    if (routed.success) {
      r.wires = routed.total_wire_nodes;
      r.route_iters = routed.iterations;

      t0 = Clock::now();
      bitgen::HashSink sink;
      bitgen::stream_bitstream(packed, p, graph, routed, spec, &sink);
      r.bitgen_s = secs_since(t0);
      r.bitstream_bytes = static_cast<long long>(sink.bytes_written());
      r.hash = strprintf("%016llx",
                         static_cast<unsigned long long>(sink.hash()));
      return r;
    }
    AMDREL_CHECK_MSG(w < 512, "giant tier unroutable at any sane width");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amdrel;
  int reps = 20;
  int giant_gates = 210000;
  int giant_width = 72;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, " [--reps N] [--giant-gates N] [--giant-width W]",
      [&](int argc2, char** av, int* i) {
        if (std::strcmp(av[*i], "--reps") == 0 && *i + 1 < argc2) {
          reps = std::max(1, parse_int(av[++*i], "--reps"));
          return true;
        }
        if (std::strcmp(av[*i], "--giant-gates") == 0 && *i + 1 < argc2) {
          giant_gates = parse_int(av[++*i], "--giant-gates");
          return true;
        }
        if (std::strcmp(av[*i], "--giant-width") == 0 && *i + 1 < argc2) {
          giant_width = std::max(4, parse_int(av[++*i], "--giant-width"));
          return true;
        }
        return false;
      });
  auto trace_guard = bench::install_trace(args);
  bench::ScopedMetricsFile metrics_guard(args);

  auto suite = bench_gen::mcnc_like_suite();
  suite.resize(4);  // the cad_pnr_bench / flow_qor subset

  std::vector<TierResult> tiers;
  bool all_match = true;
  for (const auto& bspec : suite) {
    tiers.push_back(run_tier(bspec, reps));
    all_match = all_match && tiers.back().match();
  }

  GiantResult giant;
  const bool run_the_giant = giant_gates > 0;
  if (run_the_giant) giant = run_giant(giant_gates, giant_width);
  const long peak_rss = obs::peak_rss_kb();

  if (args.json) {
    util::Json circuits = util::Json::make_array();
    for (const TierResult& t : tiers) {
      util::Json c = util::Json::make_object();
      c.set("name", t.name);
      c.set("blocks", t.blocks);
      c.set("channel_width", t.min_w);
      c.set("wires", t.wires);
      c.set("widths_match", t.match());
      c.set("rr_nodes", t.rr_nodes);
      c.set("rr_edges", static_cast<std::int64_t>(t.rr_edges));
      c.set("patterns", t.patterns);
      c.set("dedup_build_s", t.dedup_build_s);
      c.set("dense_build_s", t.dense_build_s);
      c.set("build_speedup", t.build_speedup());
      c.set("dedup_bytes", static_cast<std::int64_t>(t.dedup_bytes));
      c.set("dense_bytes", static_cast<std::int64_t>(t.dense_bytes));
      c.set("mem_ratio", t.mem_ratio());
      circuits.push_back(std::move(c));
    }
    if (run_the_giant) {
      util::Json c = util::Json::make_object();
      c.set("name", "giant_100k");
      c.set("gates", giant.gates);
      c.set("luts", giant.luts);
      c.set("clusters", giant.clusters);
      c.set("nx", giant.nx);
      c.set("ny", giant.ny);
      c.set("channel_width", giant.width);
      c.set("wires", giant.wires);
      c.set("rr_nodes", giant.rr_nodes);
      c.set("rr_edges", static_cast<std::int64_t>(giant.rr_edges));
      c.set("patterns", giant.patterns);
      c.set("rr_bytes", static_cast<std::int64_t>(giant.rr_bytes));
      c.set("rr_build_s", giant.rr_build_s);
      c.set("place_s", giant.place_s);
      c.set("route_s", giant.route_s);
      c.set("route_iters", giant.route_iters);
      c.set("bitgen_s", giant.bitgen_s);
      c.set("bitstream_bytes",
            static_cast<std::int64_t>(giant.bitstream_bytes));
      c.set("bitstream_hash", giant.hash);
      c.set("peak_rss_kb", static_cast<std::int64_t>(peak_rss));
      circuits.push_back(std::move(c));
    }
    util::Json doc = util::Json::make_object();
    doc.set("bench", "rr_scale");
    doc.set("reps", reps);
    doc.set("circuits", std::move(circuits));
    doc.set("widths_match", all_match);
    doc.set("peak_rss_kb", static_cast<std::int64_t>(peak_rss));
    std::printf("%s\n", doc.dump().c_str());
    return all_match ? 0 : 1;
  }

  std::printf("RR-graph scale: tile-pattern dedup vs dense oracle\n\n");
  Table table({"circuit", "blocks", "minW", "wires", "nodes", "patterns",
               "dedup us", "dense us", "speedup", "mem ratio"});
  for (const TierResult& t : tiers) {
    table.add_row({t.name, std::to_string(t.blocks), std::to_string(t.min_w),
                   std::to_string(t.wires), std::to_string(t.rr_nodes),
                   std::to_string(t.patterns),
                   strprintf("%.1f", t.dedup_build_s * 1e6),
                   strprintf("%.1f", t.dense_build_s * 1e6),
                   strprintf("%.1fx", t.build_speedup()),
                   strprintf("%.1fx", t.mem_ratio())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("min channel widths / wires %s across representations\n",
              all_match ? "identical" : "DIFFER (QoR regression)");
  if (run_the_giant) {
    std::printf(
        "\ngiant tier: %d gates -> %d LUTs -> %d CLBs on %dx%d, W=%d\n"
        "  RR: %d nodes, %lld edges, %d patterns, ~%lld KiB\n"
        "  build %.3fs, place %.1fs, route %.1fs (%d iters, %d wires), "
        "bitgen %.2fs\n"
        "  bitstream %lld bytes (fnv1a %s), peak RSS %ld MiB\n",
        giant.gates, giant.luts, giant.clusters, giant.nx, giant.ny,
        giant.width, giant.rr_nodes, giant.rr_edges, giant.patterns,
        giant.rr_bytes / 1024, giant.rr_build_s, giant.place_s,
        giant.route_s, giant.route_iters, giant.wires, giant.bitgen_s,
        giant.bitstream_bytes, giant.hash.c_str(), peak_rss / 1024);
  }
  return all_match ? 0 : 1;
}
