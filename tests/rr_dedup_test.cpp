// A/B equivalence of the tile-pattern deduplicated RR graph against the
// dense per-node oracle: node ids, attributes, out-edge order, routing
// results, and bitstream bytes must be identical between the two builds.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "flow/session.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/pathfinder.hpp"
#include "route/rr_graph.hpp"
#include "synth/lutmap.hpp"
#include "util/error.hpp"

namespace amdrel {
namespace {

using arch::ArchSpec;
using netlist::Network;

Network make_net(int gates, int latches, std::uint64_t seed) {
  bench_gen::BenchSpec bspec;
  bspec.n_inputs = 10;
  bspec.n_outputs = 8;
  bspec.n_gates = gates;
  bspec.n_latches = latches;
  bspec.seed = seed;
  Network n = bench_gen::generate(bspec);
  return synth::map_to_luts(n, synth::LutMapOptions{4, 8});
}

/// A packed + placed design, optionally on a non-square grid override.
struct Design {
  Network network;
  ArchSpec spec;
  pack::PackedNetlist packed;
  place::Placement placement;

  Design(int gates, int latches, std::uint64_t seed, int nx = 0, int ny = 0)
      : network(make_net(gates, latches, seed)),
        spec(),
        packed(network, spec),
        placement(packed, spec, 1, nx, ny) {}
};

/// Field-by-field node equality (out_edges compared separately).
void expect_same_node(const route::RrNode& a, const route::RrNode& b,
                      int id) {
  EXPECT_EQ(static_cast<int>(a.type), static_cast<int>(b.type)) << "id " << id;
  EXPECT_EQ(a.x, b.x) << "id " << id;
  EXPECT_EQ(a.y, b.y) << "id " << id;
  EXPECT_EQ(a.track, b.track) << "id " << id;
  EXPECT_EQ(a.pin, b.pin) << "id " << id;
  EXPECT_EQ(a.block, b.block) << "id " << id;
  EXPECT_EQ(a.capacity, b.capacity) << "id " << id;
  EXPECT_DOUBLE_EQ(a.base_cost, b.base_cost) << "id " << id;
}

/// Every node attribute and every out-edge (in order) must match the
/// dense oracle. Covers corner/edge/interior wires and all block kinds.
void expect_graphs_identical(const place::Placement& placement,
                             const ArchSpec& spec, int width) {
  route::RrGraph dense(placement, spec, width, route::RrOptions{false});
  route::RrGraph dd(placement, spec, width, route::RrOptions{true});
  ASSERT_EQ(dd.num_nodes(), dense.num_nodes());
  ASSERT_EQ(dd.wire_count(), dense.wire_count());
  EXPECT_EQ(dd.num_edges(), dense.num_edges());
  EXPECT_GT(dd.unique_patterns(), 0);
  EXPECT_EQ(dense.unique_patterns(), 0);
  std::vector<int> edges;
  for (int id = 0; id < dense.num_nodes(); ++id) {
    const route::RrNode& oracle = dense.nodes()[static_cast<std::size_t>(id)];
    expect_same_node(dd.node_info(id), oracle, id);
    edges.clear();
    dd.append_out_edges(id, &edges);
    ASSERT_EQ(edges, oracle.out_edges) << "out-edge mismatch at id " << id;
    for (int e : oracle.out_edges) {
      EXPECT_TRUE(dd.has_edge(id, e));
    }
  }
  // Net terminals resolve to the same ids.
  for (std::size_t ni = 0; ni < placement.nets().size(); ++ni) {
    const int n = static_cast<int>(ni);
    EXPECT_EQ(dd.opin_of_net(n), dense.opin_of_net(n));
    EXPECT_EQ(dd.sinks_of_net(n), dense.sinks_of_net(n));
  }
}

TEST(RrDedup, MatchesDenseOnSquareGrid) {
  Design d(150, 8, 41);
  for (int w : {5, 8, 12}) {
    expect_graphs_identical(d.placement, d.spec, w);
  }
}

TEST(RrDedup, MatchesDenseOnNonSquareGrids) {
  // Wide and tall overrides exercise chanx/chany boundary classes that a
  // square grid's symmetry can mask.
  Design square(150, 8, 42);
  const int nx0 = square.placement.nx();
  const int ny0 = square.placement.ny();
  Design wide(150, 8, 42, nx0 + 3, ny0);
  ASSERT_NE(wide.placement.nx(), wide.placement.ny());
  expect_graphs_identical(wide.placement, wide.spec, 7);
  Design tall(150, 8, 42, nx0, ny0 + 4);
  ASSERT_NE(tall.placement.nx(), tall.placement.ny());
  expect_graphs_identical(tall.placement, tall.spec, 7);
}

TEST(RrDedup, IpinSinkTableFollowsTheOneOutEdge) {
  // The router tests an IPIN by the SINK its one out-edge reaches; both
  // builds fill that table in the SoA pass, and it must agree with the
  // edge lists.
  Design d(150, 8, 43);
  for (bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "dedup" : "dense");
    route::RrGraph graph(d.placement, d.spec, 6, route::RrOptions{dedup});
    std::vector<int> ipin_sink;
    graph.fill_soa(nullptr, nullptr, nullptr, nullptr, nullptr, &ipin_sink);
    const int wires = graph.wire_count();
    ASSERT_EQ(static_cast<int>(ipin_sink.size()), graph.num_nodes() - wires);
    int ipins = 0;
    std::vector<int> edges;
    for (int id = wires; id < graph.num_nodes(); ++id) {
      const int sink = ipin_sink[static_cast<std::size_t>(id - wires)];
      if (graph.node_type(id) != route::RrType::kIpin) {
        EXPECT_EQ(sink, -1) << "id " << id;
        continue;
      }
      ++ipins;
      edges.clear();
      graph.append_out_edges(id, &edges);
      EXPECT_EQ(edges, std::vector<int>{sink}) << "id " << id;
      EXPECT_EQ(graph.node_type(sink), route::RrType::kSink) << "id " << id;
    }
    EXPECT_GT(ipins, 0);
  }
}

TEST(RrDedup, RoutingResultIdentical) {
  Design d(150, 8, 43);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  route::RrGraph dense(d.placement, d.spec, d.spec.channel_width,
                       route::RrOptions{false});
  route::RrGraph dd(d.placement, d.spec, d.spec.channel_width,
                    route::RrOptions{true});
  auto r_dense = route::route_all(dense, d.placement);
  auto r_dd = route::route_all(dd, d.placement);
  ASSERT_TRUE(r_dense.success) << r_dense.message;
  ASSERT_TRUE(r_dd.success) << r_dd.message;
  EXPECT_EQ(r_dd.iterations, r_dense.iterations);
  EXPECT_EQ(r_dd.total_wire_nodes, r_dense.total_wire_nodes);
  ASSERT_EQ(r_dd.routes.size(), r_dense.routes.size());
  for (std::size_t i = 0; i < r_dense.routes.size(); ++i) {
    EXPECT_EQ(r_dd.routes[i].nodes, r_dense.routes[i].nodes) << "net " << i;
    EXPECT_EQ(r_dd.routes[i].parent, r_dense.routes[i].parent) << "net " << i;
  }
  route::verify_routing(dd, r_dd);
}

TEST(RrDedup, MinimumChannelWidthIdentical) {
  Design d(120, 0, 44);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  route::RouteOptions dense_opt;
  dense_opt.rr.dedup = false;
  route::RouteOptions dd_opt;
  dd_opt.rr.dedup = true;
  route::RouteResult r_dense, r_dd;
  const int w_dense =
      route::minimum_channel_width(d.placement, d.spec, &r_dense, dense_opt);
  const int w_dd =
      route::minimum_channel_width(d.placement, d.spec, &r_dd, dd_opt);
  EXPECT_EQ(w_dd, w_dense);
  EXPECT_EQ(r_dd.total_wire_nodes, r_dense.total_wire_nodes);
}

TEST(RrDedup, BitstreamBytesIdentical) {
  Design d(150, 8, 45);
  place::Placement::AnnealOptions popt;
  d.placement.anneal(popt);
  route::RrGraph dense(d.placement, d.spec, d.spec.channel_width,
                       route::RrOptions{false});
  route::RrGraph dd(d.placement, d.spec, d.spec.channel_width,
                    route::RrOptions{true});
  auto r_dense = route::route_all(dense, d.placement);
  auto r_dd = route::route_all(dd, d.placement);
  ASSERT_TRUE(r_dense.success && r_dd.success);
  const auto bytes_dense = bitgen::serialize(bitgen::generate_bitstream(
      d.packed, d.placement, dense, r_dense, d.spec));
  const auto bytes_dd = bitgen::serialize(
      bitgen::generate_bitstream(d.packed, d.placement, dd, r_dd, d.spec));
  EXPECT_EQ(bytes_dd, bytes_dense);

  // The streaming generator must emit exactly the same bytes without ever
  // materializing the Bitstream.
  bitgen::VectorSink streamed;
  bitgen::stream_bitstream(d.packed, d.placement, dd, r_dd, d.spec,
                           &streamed);
  EXPECT_EQ(streamed.bytes(), bytes_dense);
  EXPECT_EQ(streamed.bytes_written(), bytes_dense.size());

  // HashSink digests the same stream to the same FNV-1a value.
  bitgen::HashSink hashed;
  bitgen::stream_bitstream(d.packed, d.placement, dd, r_dd, d.spec, &hashed);
  std::uint64_t want = 1469598103934665603ull;
  for (std::uint8_t b : bytes_dense) {
    want ^= b;
    want *= 1099511628211ull;
  }
  EXPECT_EQ(hashed.hash(), want);
}

TEST(RrDedup, EcoRerouteEquivalentAcrossRepresentations) {
  // The same ECO edit, compiled incrementally on the dedup graph and on
  // the dense oracle, must converge to byte-identical bitstreams: seed
  // translation is pure id arithmetic, so nothing may drift.
  bench_gen::BenchSpec bspec;
  bspec.n_gates = 160;
  bspec.n_latches = 8;
  bspec.seed = 91;
  const Network base = bench_gen::generate(bspec);
  bench_gen::EditSpec edit;
  edit.flips = 2;
  edit.rewires = 1;
  edit.seed = 17;
  const Network edited = bench_gen::perturb(base, edit);

  std::vector<std::uint8_t> bytes[2];
  for (int pass = 0; pass < 2; ++pass) {
    flow::FlowOptions opt;
    opt.verify_mode = flow::VerifyMode::kOff;
    opt.rr_dedup = pass == 0;
    flow::FlowSession session(base, opt);
    ASSERT_EQ(session.resume(), flow::SessionState::kDone);
    ASSERT_EQ(session.resume_with_edit(edited), flow::SessionState::kDone);
    bytes[pass] = session.result().bitstream_bytes;
    ASSERT_FALSE(bytes[pass].empty());
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(RrDedup, CheckedNodeCountGuardsIdSpace) {
  // Fits comfortably: the usual test fabric.
  EXPECT_EQ(route::RrGraph::checked_node_count(10, 10, 8, 500),
            ((11 * 10) + (11 * 10)) * 8 + 500);
  // A giant fabric whose wire count overflows 32-bit ids must throw
  // instead of silently wrapping.
  EXPECT_THROW(route::RrGraph::checked_node_count(200000, 200000, 32, 0),
               Error);
}

TEST(RrDedup, StatsReportPatternCompression) {
  Design d(150, 8, 46);
  route::RrGraph dense(d.placement, d.spec, 8, route::RrOptions{false});
  route::RrGraph dd(d.placement, d.spec, 8, route::RrOptions{true});
  // The dedup representation must be dramatically smaller than the dense
  // one while describing the same graph.
  EXPECT_LT(dd.bytes_est() * 4, dense.bytes_est());
  EXPECT_GT(dd.unique_patterns(), 0);
  EXPECT_LT(dd.unique_patterns(), dd.num_nodes() / 10);
  EXPECT_FALSE(dd.stats().empty());
  // The dense table is only reachable through the oracle build.
  EXPECT_THROW(dd.nodes(), Error);
}

}  // namespace
}  // namespace amdrel
