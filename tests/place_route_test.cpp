#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_gen/bench_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/pathfinder.hpp"
#include "route/route_files.hpp"
#include "route/rr_graph.hpp"
#include "synth/lutmap.hpp"
#include "util/error.hpp"

namespace amdrel {
namespace {

using arch::ArchSpec;
using netlist::Network;

struct Design {
  Network network;
  ArchSpec spec;
  pack::PackedNetlist packed;
  place::Placement placement;

  Design(int gates, int latches, std::uint64_t seed, ArchSpec s = {})
      : network(make_net(gates, latches, seed)),
        spec(s),
        packed(network, spec),
        placement(packed, spec) {}

  static Network make_net(int gates, int latches, std::uint64_t seed) {
    bench_gen::BenchSpec bspec;
    bspec.n_inputs = 10;
    bspec.n_outputs = 8;
    bspec.n_gates = gates;
    bspec.n_latches = latches;
    bspec.seed = seed;
    Network n = bench_gen::generate(bspec);
    return synth::map_to_luts(n, synth::LutMapOptions{4, 8});
  }
};

TEST(Place, InitialPlacementIsLegal) {
  Design d(200, 16, 31);
  d.placement.validate();
  EXPECT_GT(d.placement.nets().size(), 0u);
  EXPECT_GT(d.placement.total_cost(), 0.0);
}

TEST(Place, AnnealImprovesCost) {
  Design d(300, 0, 32);
  place::Placement::AnnealOptions opt;
  opt.seed = 3;
  auto stats = d.placement.anneal(opt);
  EXPECT_LT(stats.final_cost, stats.initial_cost);
  EXPECT_GT(stats.temperatures, 3);
  d.placement.validate();
}

TEST(Place, DeterministicForSeed) {
  Design d1(150, 8, 33);
  Design d2(150, 8, 33);
  place::Placement::AnnealOptions opt;
  opt.seed = 9;
  auto s1 = d1.placement.anneal(opt);
  auto s2 = d2.placement.anneal(opt);
  EXPECT_DOUBLE_EQ(s1.final_cost, s2.final_cost);
  // Bit-identical block locations, not just equal cost.
  ASSERT_EQ(d1.placement.blocks().size(), d2.placement.blocks().size());
  for (std::size_t b = 0; b < d1.placement.blocks().size(); ++b) {
    EXPECT_TRUE(d1.placement.location(static_cast<int>(b)) ==
                d2.placement.location(static_cast<int>(b)))
        << "block " << b << " placed differently across identical runs";
  }
}

TEST(Place, IncrementalCostMatchesScratchAfterAnneal) {
  // The annealer asserts incremental-vs-scratch agreement once per
  // temperature internally; this checks the end state on three circuits.
  for (std::uint64_t seed : {61u, 62u, 63u}) {
    Design d(250, 16, seed);
    place::Placement::AnnealOptions opt;
    opt.seed = 5;
    opt.incremental = true;
    auto stats = d.placement.anneal(opt);
    const double scratch = d.placement.total_cost();
    EXPECT_NEAR(stats.final_cost, scratch, 1e-6 * std::max(1.0, scratch));
    d.placement.validate();
  }
}

/// Anneals two copies of one design, one incremental and one with the
/// full-recompute oracle, and expects the same trajectory exactly: same
/// locations, moves, accepted moves and final cost.
void expect_oracle_match(Design* d_inc, Design* d_orc,
                         place::Placement::AnnealOptions opt,
                         const std::string& what) {
  opt.incremental = true;
  const auto s_inc = d_inc->placement.anneal(opt);
  opt.incremental = false;
  const auto s_orc = d_orc->placement.anneal(opt);
  EXPECT_EQ(s_inc.final_cost, s_orc.final_cost) << what;
  EXPECT_EQ(s_inc.moves, s_orc.moves) << what;
  EXPECT_EQ(s_inc.accepted, s_orc.accepted) << what;
  ASSERT_EQ(d_inc->placement.blocks().size(),
            d_orc->placement.blocks().size());
  for (std::size_t b = 0; b < d_inc->placement.blocks().size(); ++b) {
    EXPECT_TRUE(d_inc->placement.location(static_cast<int>(b)) ==
                d_orc->placement.location(static_cast<int>(b)))
        << what << ": block " << b
        << " diverged between incremental and oracle anneals";
  }
  d_inc->placement.validate();
  d_orc->placement.validate();
}

TEST(Place, IncrementalMatchesOracleAnneal) {
  // Same circuit, same seeds: the incremental bbox path and the
  // full-recompute oracle sum per-net cost deltas in the same order, so
  // they accept the same moves, consume the same rng stream, and anneal
  // along bit-identical trajectories — not just equal-quality ones.
  place::Placement::AnnealOptions opt;
  opt.seed = 7;
  for (std::uint64_t seed : {64u, 65u, 66u}) {
    Design d_inc(200, 8, seed);
    Design d_orc(200, 8, seed);
    expect_oracle_match(&d_inc, &d_orc, opt, "seed " + std::to_string(seed));
  }

  // A design with nets above 10 pins: the kernel rebuilds every net's box
  // the same way, whatever its pin count. Fewer moves per temperature
  // keep the oracle quick; the trajectory is compared all the same.
  {
    Design d_inc(500, 16, 6);
    Design d_orc(500, 16, 6);
    std::size_t max_pins = 0;
    for (const auto& net : d_inc.placement.nets()) {
      max_pins = std::max(max_pins, 1 + net.sinks.size());
    }
    ASSERT_GT(max_pins, 10u) << "no net above 10 pins left to cover";
    place::Placement::AnnealOptions big = opt;
    big.inner_num = 2.0;
    expect_oracle_match(&d_inc, &d_orc, big, "500 gates");
  }

  // ECO-style: a movable mask and a capped move radius, as the ECO
  // engine's locked re-anneal uses them. Locked blocks stay put.
  {
    Design d_inc(250, 16, 67);
    Design d_orc(250, 16, 67);
    const std::size_t n_blocks = d_inc.placement.blocks().size();
    std::vector<char> movable(n_blocks, 0);
    for (std::size_t b = 0; b < n_blocks; b += 4) movable[b] = 1;
    std::vector<place::Loc> before;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      before.push_back(d_inc.placement.location(static_cast<int>(b)));
    }
    place::Placement::AnnealOptions eco = opt;
    eco.movable = &movable;
    eco.rlim_max = 5.0;
    expect_oracle_match(&d_inc, &d_orc, eco, "locked re-anneal");
    for (std::size_t b = 0; b < n_blocks; ++b) {
      if (movable[b]) continue;
      EXPECT_TRUE(d_inc.placement.location(static_cast<int>(b)) == before[b])
          << "locked block " << b << " moved";
    }
  }
}

TEST(Place, DefaultBudgetKeepsCostInFewerMoves) {
  // The default move budget (inner_num 4) against VPR 4.30's 10, from the
  // same initial placement on designs of serve_fixedw's size: the final
  // bounding-box cost stays within 3% in at most 45% of the moves.
  for (const auto& [gates, latches, seed] :
       {std::tuple{300, 8, 81u}, std::tuple{600, 12, 82u},
        std::tuple{900, 15, 83u}}) {
    SCOPED_TRACE(testing::Message() << gates << "/" << latches << "/"
                                    << seed);
    Design d_default(gates, latches, seed);
    Design d_vpr(gates, latches, seed);
    place::Placement::AnnealOptions vpr;
    vpr.inner_num = 10.0;
    const auto s_default =
        d_default.placement.anneal(place::Placement::AnnealOptions{});
    const auto s_vpr = d_vpr.placement.anneal(vpr);
    ASSERT_EQ(s_default.initial_cost, s_vpr.initial_cost);
    EXPECT_LE(s_default.final_cost, 1.03 * s_vpr.final_cost);
    EXPECT_LE(s_default.moves, s_vpr.moves * 45 / 100);
  }
}

TEST(Place, BlockByNameFindsEveryBlock) {
  Design d(120, 8, 67);
  for (std::size_t b = 0; b < d.placement.blocks().size(); ++b) {
    EXPECT_EQ(d.placement.block_by_name(d.placement.blocks()[b].name),
              static_cast<int>(b));
  }
  EXPECT_EQ(d.placement.block_by_name("no_such_block"), -1);
}

TEST(Place, ClockNetIsGlobal) {
  Design d(150, 12, 34);
  // No placed net may carry the clock signal.
  netlist::SignalId clk = d.network.find_signal("clk");
  ASSERT_NE(clk, netlist::kNoSignal);
  for (const auto& net : d.placement.nets()) {
    EXPECT_NE(net.signal, clk);
  }
}

TEST(RrGraph, WellFormed) {
  Design d(150, 8, 35);
  // Dense oracle build: .nodes() materializes per-node edge lists.
  route::RrGraph graph(d.placement, d.spec, 10, route::RrOptions{false});
  const auto& nodes = graph.nodes();
  EXPECT_GT(nodes.size(), 100u);
  // Every edge target in range; IPINs feed exactly one sink.
  for (const auto& n : nodes) {
    for (int e : n.out_edges) {
      ASSERT_GE(e, 0);
      ASSERT_LT(e, static_cast<int>(nodes.size()));
    }
    if (n.type == route::RrType::kSink) {
      EXPECT_TRUE(n.out_edges.empty());
      EXPECT_GE(n.capacity, 1);
    }
  }
  // Net terminals exist for every net.
  for (std::size_t ni = 0; ni < d.placement.nets().size(); ++ni) {
    EXPECT_GE(graph.opin_of_net(static_cast<int>(ni)), 0);
  }
}

TEST(Route, SmallDesignRoutes) {
  Design d(120, 8, 36);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  route::RrGraph graph(d.placement, d.spec, d.spec.channel_width);
  auto result = route::route_all(graph, d.placement);
  ASSERT_TRUE(result.success) << result.message;
  route::verify_routing(graph, result);
  EXPECT_GT(result.total_wire_nodes, 0);
}

TEST(Route, MinimumChannelWidthSearch) {
  Design d(120, 0, 37);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  route::RouteResult result;
  int w = route::minimum_channel_width(d.placement, d.spec, &result);
  ASSERT_GT(w, 0);
  EXPECT_TRUE(result.success);
  // Must fail at w-1 if w > 4 (otherwise w was not minimal).
  if (w > 4) {
    route::RrGraph tight(d.placement, d.spec, w - 1);
    auto r2 = route::route_all(tight, d.placement);
    EXPECT_FALSE(r2.success);
  }
}

TEST(Route, BetterPlacementRoutesNarrower) {
  // Property: annealed placement needs no wider a channel than random.
  Design d(250, 16, 38);
  route::RouteResult r_random;
  int w_random =
      route::minimum_channel_width(d.placement, d.spec, &r_random);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  route::RouteResult r_annealed;
  int w_annealed =
      route::minimum_channel_width(d.placement, d.spec, &r_annealed);
  ASSERT_GT(w_random, 0);
  ASSERT_GT(w_annealed, 0);
  EXPECT_LE(w_annealed, w_random);
}

TEST(MultiSeed, SeedsStartFromDistinctInitialPlacements) {
  Design d(150, 0, 43);
  place::Placement p1(d.packed, d.spec, 1);
  place::Placement p2(d.packed, d.spec, 2);
  bool any_differ = false;
  for (std::size_t b = 0; b < p1.blocks().size() && !any_differ; ++b) {
    any_differ = !(p1.location(static_cast<int>(b)) ==
                   p2.location(static_cast<int>(b)));
  }
  EXPECT_TRUE(any_differ) << "different placement seeds gave the same "
                             "initial placement";
}

TEST(Route, IncrementalMatchesOracleRouter) {
  // Congestion-driven incremental rerouting must reach the same minimum
  // channel width as the rip-up-everything oracle, and both routings must
  // be fully legal, on several circuits.
  for (std::uint64_t seed : {71u, 72u, 73u}) {
    Design d(180, 8, seed);
    place::Placement::AnnealOptions popt;
    d.placement.anneal(popt);

    route::RouteOptions inc;
    inc.incremental = true;
    route::RouteResult r_inc;
    const int w_inc =
        route::minimum_channel_width(d.placement, d.spec, &r_inc, inc);

    route::RouteOptions orc;
    orc.incremental = false;
    route::RouteResult r_orc;
    const int w_orc =
        route::minimum_channel_width(d.placement, d.spec, &r_orc, orc);

    ASSERT_GT(w_inc, 0);
    EXPECT_EQ(w_inc, w_orc) << "seed " << seed;
    route::RrGraph g_inc(d.placement, d.spec, w_inc);
    route::verify_routing(g_inc, r_inc);
    route::RrGraph g_orc(d.placement, d.spec, w_orc);
    route::verify_routing(g_orc, r_orc);
  }
}

TEST(Route, IncrementalRerouteIsLegalAtFixedWidth) {
  for (std::uint64_t seed : {74u, 75u, 76u}) {
    Design d(150, 8, seed);
    place::Placement::AnnealOptions popt;
    d.placement.anneal(popt);
    route::RrGraph graph(d.placement, d.spec, d.spec.channel_width);
    route::RouteOptions inc;
    inc.incremental = true;
    // No cold retry, so the verdict and routing checked below are the
    // incremental kernel's own.
    const std::uint64_t retries =
        obs::snapshot_metrics().counter("route.cold_retries");
    auto r_inc = route::route_all(graph, d.placement, inc);
    EXPECT_EQ(obs::snapshot_metrics().counter("route.cold_retries"), retries)
        << "seed " << seed;
    route::RouteOptions orc;
    orc.incremental = false;
    auto r_orc = route::route_all(graph, d.placement, orc);
    ASSERT_EQ(r_inc.success, r_orc.success) << "seed " << seed;
    if (r_inc.success) {
      route::verify_routing(graph, r_inc);
      route::verify_routing(graph, r_orc);
    }
  }
}

TEST(Route, ColdRetryRoutesWhereIncrementalStalls) {
  // cad_pnr_bench's syn_apex4 at min W + 2: the partial rip-up router
  // ends its iteration budget still congested (the one retry counted), the
  // cold router routes the same graph, and route_all returns the cold
  // routing.
  bench_gen::BenchSpec bspec;
  for (const auto& b : bench_gen::mcnc_like_suite()) {
    if (b.name == "syn_apex4") bspec = b;
  }
  ASSERT_EQ(bspec.name, "syn_apex4");
  const Network net = synth::map_to_luts(bench_gen::generate(bspec),
                                         synth::LutMapOptions{4, 8});
  const ArchSpec spec;
  const pack::PackedNetlist packed(net, spec);
  place::Placement p(packed, spec);
  p.anneal(place::Placement::AnnealOptions{});
  const route::RrGraph graph(p, spec, 24);

  const auto retries = [] {
    return obs::snapshot_metrics().counter("route.cold_retries");
  };
  const std::uint64_t before = retries();
  const route::RouteResult r = route::route_all(graph, p);
  ASSERT_TRUE(r.success) << r.message;
  route::verify_routing(graph, r);
  EXPECT_EQ(retries(), before + 1);
}

/// One consumed min-W verdict, as the route.minw_probe point reports it.
struct Verdict {
  int width;
  bool success;
  bool oracle;
  bool operator==(const Verdict&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Verdict& v) {
  return os << (v.oracle ? "O" : "e") << v.width << (v.success ? "+" : "-");
}

/// Records one search's consumed verdict sequence and the probe counts of
/// its route.minw_search span. Thread-safe: wave probes emit their spans
/// from executor threads.
class MinwSink : public obs::Sink {
 public:
  void on_event(const obs::Event& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (e.kind == obs::Event::Kind::kPoint &&
        std::strcmp(e.name, "route.minw_probe") == 0) {
      verdicts.push_back(Verdict{static_cast<int>(metric(e, "width")),
                                 metric(e, "success") != 0.0,
                                 metric(e, "oracle") != 0.0});
    } else if (e.kind == obs::Event::Kind::kSpanEnd &&
               std::strcmp(e.name, "route.pathfinder") == 0) {
      runs.emplace_back(static_cast<int>(metric(e, "width")),
                        metric(e, "oracle") != 0.0);
    } else if (e.kind == obs::Event::Kind::kSpanEnd &&
               std::strcmp(e.name, "route.minw_search") == 0) {
      probes = metric(e, "probes");
      spec_probes = metric(e, "spec_probes");
      spec_abandoned = metric(e, "spec_abandoned");
    }
  }

  /// The oracle walk: the cold probes of the verdict sequence.
  std::vector<Verdict> oracle_walk() const {
    std::vector<Verdict> walk;
    for (const Verdict& v : verdicts) {
      if (v.oracle) walk.push_back(v);
    }
    return walk;
  }

  std::vector<Verdict> verdicts;
  /// (width, oracle) of every route.pathfinder span, launched or read.
  std::vector<std::pair<int, bool>> runs;
  double probes = -1, spec_probes = -1, spec_abandoned = -1;

 private:
  static double metric(const obs::Event& e, const char* key) {
    for (std::size_t i = 0; i < e.n_metrics; ++i) {
      if (std::strcmp(e.metrics[i].key, key) == 0) return e.metrics[i].value;
    }
    return -1.0;
  }
  std::mutex mu_;
};

/// Runs the incremental min-W search with the given wave width, tracing
/// into `sink` through a thread-local context (so concurrent searches
/// keep their traces apart).
int traced_search(const Design& d, int probe_threads,
                  route::RouteResult* routing, MinwSink* sink) {
  obs::TraceContext ctx(sink, "minw");
  obs::ScopedContext guard(&ctx);
  route::RouteOptions options;
  options.probe_threads = probe_threads;
  return route::minimum_channel_width(d.placement, d.spec, routing, options);
}

void expect_same_routes(const route::RouteResult& a,
                        const route::RouteResult& b) {
  EXPECT_EQ(a.total_wire_nodes, b.total_wire_nodes);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t ni = 0; ni < a.routes.size(); ++ni) {
    EXPECT_EQ(a.routes[ni].nodes, b.routes[ni].nodes) << "net " << ni;
    EXPECT_EQ(a.routes[ni].parent, b.routes[ni].parent) << "net " << ni;
  }
}

TEST(Route, MinWidthSearchIndependentOfThreads) {
  // Waves of 2, 3 and 4 probes must consume exactly the verdicts of the
  // one-probe-at-a-time search. The designs cover the walk shapes of the
  // oracle phase (names: gates/latches/seed):
  //   160/8/77  the start width routes and the one below fails;
  //   120/0/75  the start fails and the walk goes up two widths (as
  //             syn_apex4 does in flow_qor: 21 fails, 22 fails, 23
  //             routes);
  //   120/0/81  the walk goes down two widths before failing (as
  //             syn_misex does: 19 routes, 18 routes, 17 fails).
  enum class Walk { kOneDown, kUp, kTwoDown };
  struct Case {
    int gates, latches;
    std::uint64_t seed;
    Walk walk;
  };
  for (const Case& c : {Case{160, 8, 77, Walk::kOneDown},
                        Case{120, 0, 75, Walk::kUp},
                        Case{120, 0, 81, Walk::kTwoDown}}) {
    SCOPED_TRACE(testing::Message() << c.gates << "/" << c.latches << "/"
                                    << c.seed);
    Design d(c.gates, c.latches, c.seed);
    d.placement.anneal(place::Placement::AnnealOptions{});

    route::RouteResult r1;
    MinwSink s1;
    const int w1 = traced_search(d, 1, &r1, &s1);
    ASSERT_GT(w1, 0);
    // One probe per wave: every launched probe's verdict is read.
    EXPECT_EQ(s1.spec_probes, s1.probes);
    EXPECT_EQ(s1.spec_abandoned, 0);
    const std::vector<Verdict> walk = s1.oracle_walk();
    ASSERT_GE(walk.size(), 2u);
    switch (c.walk) {
      case Walk::kOneDown:
        EXPECT_TRUE(walk[0].success && !walk[1].success);
        break;
      case Walk::kUp:
        EXPECT_FALSE(walk[0].success);
        EXPECT_GE(walk.size(), 3u);
        EXPECT_TRUE(walk.back().success);
        break;
      case Walk::kTwoDown:
        ASSERT_GE(walk.size(), 3u);
        EXPECT_TRUE(walk[0].success && walk[1].success);
        EXPECT_FALSE(walk.back().success);
        break;
    }

    for (int threads : {2, 3, 4}) {
      SCOPED_TRACE(testing::Message() << "probe_threads " << threads);
      route::RouteResult r;
      MinwSink s;
      EXPECT_EQ(traced_search(d, threads, &r, &s), w1);
      EXPECT_EQ(s.verdicts, s1.verdicts);
      EXPECT_EQ(s.probes, s1.probes);
      // Every launched probe was either read or abandoned.
      EXPECT_EQ(s.spec_probes, s.probes + s.spec_abandoned);
      expect_same_routes(r, r1);
    }
  }
}

TEST(Route, ConcurrentMinWidthSearchesShareTheExecutor) {
  // Two searches at once on the one process-wide executor each give their
  // sequential result: waves join on their own probes only, never on the
  // other search's.
  Design a(160, 8, 77);
  Design b(120, 0, 73);
  a.placement.anneal(place::Placement::AnnealOptions{});
  b.placement.anneal(place::Placement::AnnealOptions{});
  route::RouteResult ra1, rb1;
  MinwSink sa1, sb1;
  const int wa1 = traced_search(a, 1, &ra1, &sa1);
  const int wb1 = traced_search(b, 1, &rb1, &sb1);

  route::RouteResult ra, rb;
  MinwSink sa, sb;
  int wa = -1, wb = -1;
  std::thread ta([&] { wa = traced_search(a, 4, &ra, &sa); });
  std::thread tb([&] { wb = traced_search(b, 4, &rb, &sb); });
  ta.join();
  tb.join();
  EXPECT_EQ(wa, wa1);
  EXPECT_EQ(wb, wb1);
  EXPECT_EQ(sa.verdicts, sa1.verdicts);
  EXPECT_EQ(sb.verdicts, sb1.verdicts);
  expect_same_routes(ra, ra1);
  expect_same_routes(rb, rb1);
}

TEST(Route, EveryConsumedProbeHasItsPathfinderSpan) {
  // A route.pathfinder span names its width and router, so a span run
  // inside a wave can be tied to the probe whose verdict was read.
  Design d(160, 8, 77);
  d.placement.anneal(place::Placement::AnnealOptions{});
  route::RouteResult r;
  MinwSink sink;
  ASSERT_GT(traced_search(d, 4, &r, &sink), 0);
  ASSERT_FALSE(sink.verdicts.empty());
  bool explorer = false, oracle = false;
  for (const Verdict& v : sink.verdicts) {
    EXPECT_NE(std::find(sink.runs.begin(), sink.runs.end(),
                        std::make_pair(v.width, v.oracle)),
              sink.runs.end())
        << v;
    (v.oracle ? oracle : explorer) = true;
  }
  EXPECT_TRUE(explorer && oracle);
  for (const auto& [width, is_oracle] : sink.runs) EXPECT_GT(width, 0);
}

TEST(RouteFiles, PlaceFileRoundTrip) {
  Design d(150, 8, 40);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  std::string text = route::write_place_string(d.placement);
  EXPECT_NE(text.find("Array size:"), std::string::npos);

  // Load the locations into a freshly shuffled placement: costs must agree.
  Design d2(150, 8, 40);
  route::read_place_string(text, &d2.placement);
  EXPECT_DOUBLE_EQ(d2.placement.total_cost(), d.placement.total_cost());
}

TEST(RouteFiles, PlaceFileRejectsGarbage) {
  Design d(80, 0, 41);
  EXPECT_THROW(route::read_place_string("nonsense 1 2 3\n", &d.placement),
               Error);
  EXPECT_THROW(route::read_place_string("", &d.placement), Error);
}

TEST(RouteFiles, PlaceFileCoordinatesAreParseErrors) {
  Design d(80, 0, 41);
  // The first block line of a written .place file, then its coordinates
  // replaced: not a number, past int, off the grid.
  const std::string text = route::write_place_string(d.placement);
  std::istringstream in(text);
  std::string line, name;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' ||
        line.find(':') != std::string::npos) {
      continue;
    }
    name = line.substr(0, line.find_first_of(" \t"));
    break;
  }
  ASSERT_FALSE(name.empty());
  for (const std::string& coords :
       {std::string("x1 1 0"), std::string("1 99999999999 0"),
        std::string("1 1 -1"), std::string("1 100000 0")}) {
    SCOPED_TRACE(coords);
    try {
      route::read_place_string("# header\n" + name + " " + coords + "\n",
                               &d.placement);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2);
    }
  }
}

TEST(RouteFiles, RouteFileListsEveryNet) {
  Design d(120, 8, 42);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  route::RrGraph graph(d.placement, d.spec, d.spec.channel_width);
  auto result = route::route_all(graph, d.placement);
  ASSERT_TRUE(result.success);
  std::string text = route::write_route_string(graph, d.placement, result);
  for (std::size_t ni = 0; ni < d.placement.nets().size(); ++ni) {
    EXPECT_NE(text.find("Net " + std::to_string(ni) + " ("),
              std::string::npos);
  }
  EXPECT_NE(text.find("OPIN"), std::string::npos);
  EXPECT_NE(text.find("SINK"), std::string::npos);
}

}  // namespace
}  // namespace amdrel
