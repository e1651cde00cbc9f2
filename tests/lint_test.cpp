#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench_gen/bench_gen.hpp"
#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "lint/flow_rules.hpp"
#include "lint/lint.hpp"
#include "lint/netlist_rules.hpp"
#include "lint/rr_rules.hpp"
#include "netlist/blif.hpp"
#include "synth/lutmap.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel {
namespace {

using lint::Report;
using lint::Severity;
using netlist::Network;
using netlist::SignalId;
using netlist::TruthTable;

std::string fixture(const std::string& name) {
  return std::string(AMDREL_FIXTURE_DIR) + "/" + name;
}

// ---------- engine ----------

TEST(LintEngine, RegistryCoversAllFamilies) {
  int netlist = 0, rr = 0, flow = 0, equiv = 0;
  for (const auto& r : lint::rule_registry()) {
    if (std::string(r.family) == "netlist") ++netlist;
    else if (std::string(r.family) == "rr-graph") ++rr;
    else if (std::string(r.family) == "flow") ++flow;
    else if (std::string(r.family) == "equiv") ++equiv;
    else FAIL() << "unknown family " << r.family;
  }
  EXPECT_EQ(netlist, 8);
  EXPECT_EQ(rr, 5);
  EXPECT_EQ(flow, 11);
  EXPECT_EQ(equiv, 5);
  EXPECT_NE(lint::find_rule(lint::rules::kCombCycle), nullptr);
  EXPECT_EQ(lint::find_rule("XX999"), nullptr);
}

TEST(LintEngine, AddUsesRegistryDefaultSeverityAndStage) {
  Report report;
  report.set_stage("unit");
  report.add(lint::rules::kCombCycle, "network 'x'", "boom");
  report.add(lint::rules::kUnusedInput, "signal 'a'", "idle");
  ASSERT_EQ(report.diagnostics().size(), 2u);
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kError);
  EXPECT_EQ(report.diagnostics()[0].stage, "unit");
  EXPECT_EQ(report.diagnostics()[1].severity, Severity::kInfo);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.fired(lint::rules::kCombCycle));
  EXPECT_FALSE(report.fired(lint::rules::kMultiDriven));
}

TEST(LintEngine, PerRuleCapKeepsExactCounts) {
  Report report;
  for (int i = 0; i < 250; ++i) {
    report.add(lint::rules::kDanglingOutput, strprintf("signal %d", i), "x");
  }
  EXPECT_EQ(report.count_rule(lint::rules::kDanglingOutput), 250);
  EXPECT_EQ(static_cast<int>(report.diagnostics().size()),
            Report::kMaxPerRule);
  EXPECT_EQ(report.count(Severity::kWarning), Report::kMaxPerRule);
}

TEST(LintEngine, TextAndJsonEmitters) {
  Report report;
  report.set_stage("netlist");
  report.add(lint::rules::kMultiDriven, "signal \"y\"", "driven by 2 sources");
  const std::string text = report.to_text();
  EXPECT_NE(text.find("error [NL002]"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
  const std::string json = report.to_json().dump();
  EXPECT_NE(json.find("\"rule\":\"NL002\""), std::string::npos);
  EXPECT_NE(json.find("\\\"y\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\":1"), std::string::npos);
}

TEST(LintEngine, MergeAccumulates) {
  Report a, b;
  a.add(lint::rules::kUnusedInput, "signal 'p'", "idle");
  b.add(lint::rules::kUnusedInput, "signal 'q'", "idle");
  b.add(lint::rules::kMultiDriven, "signal 'r'", "2 drivers");
  a.merge(b);
  EXPECT_EQ(a.count_rule(lint::rules::kUnusedInput), 2);
  EXPECT_EQ(a.count_rule(lint::rules::kMultiDriven), 1);
}

// ---------- netlist rules: seeded-defect fixtures ----------

Report lint_fixture(const std::string& name) {
  Network net = netlist::read_blif_file(fixture(name));
  Report report;
  report.set_stage("netlist");
  lint::lint_network(net, &report);
  return report;
}

TEST(NetlistLint, CombinationalLoopFixtureFiresNL001) {
  Report report = lint_fixture("defect_comb_loop.blif");
  EXPECT_TRUE(report.fired(lint::rules::kCombCycle));
  EXPECT_TRUE(report.has_errors());
}

TEST(NetlistLint, DoubleDrivenFixtureFiresNL002) {
  Report report = lint_fixture("defect_double_driven.blif");
  EXPECT_TRUE(report.fired(lint::rules::kMultiDriven));
  EXPECT_TRUE(report.has_errors());
}

TEST(NetlistLint, FloatingInputFixtureFiresNL003) {
  Report report = lint_fixture("defect_floating_input.blif");
  EXPECT_TRUE(report.fired(lint::rules::kUndrivenSignal));
  EXPECT_TRUE(report.has_errors());
}

TEST(NetlistLint, CleanFixtureHasZeroDiagnostics) {
  Report report = lint_fixture("clean_small.blif");
  EXPECT_TRUE(report.empty()) << report.to_text();
}

// ---------- netlist rules: in-code defects ----------

TEST(NetlistLint, DanglingOutputFiresNL004) {
  Network net("dangling");
  SignalId a = net.add_signal("a");
  SignalId y = net.add_signal("y");
  SignalId dead = net.add_signal("dead");
  net.add_input(a);
  net.add_gate("g_y", TruthTable::identity(), {a}, y);
  net.add_gate("g_dead", TruthTable::inverter(), {a}, dead);
  net.add_output(y);
  Report report;
  lint::lint_network(net, &report);
  EXPECT_TRUE(report.fired(lint::rules::kDanglingOutput));
  EXPECT_FALSE(report.has_errors());  // dangling is a warning
}

TEST(NetlistLint, ConstantLutFiresNL005) {
  Network net("constant");
  SignalId a = net.add_signal("a");
  SignalId y = net.add_signal("y");
  net.add_input(a);
  net.add_gate("g_const", TruthTable::constant(true).extend(1), {a}, y);
  net.add_output(y);
  Report report;
  lint::lint_network(net, &report);
  EXPECT_TRUE(report.fired(lint::rules::kConstantLut));
}

TEST(NetlistLint, DuplicateLutFiresNL006) {
  Network net("duplicate");
  SignalId a = net.add_signal("a");
  SignalId b = net.add_signal("b");
  SignalId y1 = net.add_signal("y1");
  SignalId y2 = net.add_signal("y2");
  net.add_input(a);
  net.add_input(b);
  net.add_gate("g1", TruthTable::and_n(2), {a, b}, y1);
  net.add_gate("g2", TruthTable::and_n(2), {a, b}, y2);
  net.add_output(y1);
  net.add_output(y2);
  Report report;
  lint::lint_network(net, &report);
  EXPECT_EQ(report.count_rule(lint::rules::kDuplicateLut), 1);
}

TEST(NetlistLint, GatedClockAndMultiClockFireNL007) {
  Network net("clocks");
  SignalId clk = net.add_signal("clk");
  SignalId clk2 = net.add_signal("clk2");
  SignalId en = net.add_signal("en");
  SignalId gated = net.add_signal("gated");
  SignalId d = net.add_signal("d");
  SignalId q1 = net.add_signal("q1");
  SignalId q2 = net.add_signal("q2");
  SignalId y = net.add_signal("y");
  net.add_input(clk);
  net.add_input(clk2);
  net.add_input(en);
  net.add_input(d);
  net.add_gate("g_gate", TruthTable::and_n(2), {clk, en}, gated);
  net.add_gate("g_data", TruthTable::and_n(2), {clk2, d}, y);
  net.add_latch("l1", d, q1, gated);
  net.add_latch("l2", d, q2, clk2);
  net.add_output(q1);
  net.add_output(q2);
  net.add_output(y);
  Report report;
  lint::lint_network(net, &report);
  // gated clock (`gated`) + clock-as-data (clk2 feeds g_data) + two
  // clock domains
  EXPECT_GE(report.count_rule(lint::rules::kClockSanity), 3);
}

TEST(NetlistLint, UnusedPrimaryInputFiresNL008) {
  Network net("unused");
  SignalId a = net.add_signal("a");
  SignalId idle = net.add_signal("idle");
  SignalId y = net.add_signal("y");
  net.add_input(a);
  net.add_input(idle);
  net.add_gate("g", TruthTable::identity(), {a}, y);
  net.add_output(y);
  Report report;
  lint::lint_network(net, &report);
  EXPECT_EQ(report.count_rule(lint::rules::kUnusedInput), 1);
  EXPECT_EQ(report.count(Severity::kInfo), 1);
}

// ---------- RR-graph rules ----------

route::RrNode wire_node(int x, int y, int track) {
  route::RrNode n;
  n.type = route::RrType::kChanX;
  n.x = x;
  n.y = y;
  n.track = track;
  return n;
}

TEST(RrLint, SymmetricPairIsClean) {
  std::vector<route::RrNode> nodes = {wire_node(1, 0, 0), wire_node(2, 0, 0)};
  nodes[0].out_edges = {1};
  nodes[1].out_edges = {0};
  Report report;
  lint::lint_rr_nodes(nodes, 1, &report);
  EXPECT_TRUE(report.empty()) << report.to_text();
}

TEST(RrLint, AsymmetricSwitchFiresRR003) {
  std::vector<route::RrNode> nodes = {wire_node(1, 0, 0), wire_node(2, 0, 0)};
  nodes[0].out_edges = {1};  // no return edge
  Report report;
  lint::lint_rr_nodes(nodes, 1, &report);
  EXPECT_TRUE(report.fired(lint::rules::kRrAsymmetricSwitch));
  // node 1 also has zero fanout and is only reachable one way
  EXPECT_TRUE(report.fired(lint::rules::kRrZeroFanoutWire));
}

TEST(RrLint, ChannelWidthMismatchFiresRR002) {
  // Declared W=2 but only one track present at (1,0); plus a track index
  // outside [0, W).
  std::vector<route::RrNode> nodes = {wire_node(1, 0, 0), wire_node(2, 0, 0),
                                      wire_node(2, 0, 5)};
  nodes[0].out_edges = {1};
  nodes[1].out_edges = {0};
  nodes[2].out_edges = {0};
  nodes[0].out_edges.push_back(2);
  Report report;
  lint::lint_rr_nodes(nodes, 2, &report);
  EXPECT_TRUE(report.fired(lint::rules::kRrChannelWidth));
  EXPECT_TRUE(report.has_errors());
}

TEST(RrLint, UnreachableNodeFiresRR001) {
  std::vector<route::RrNode> nodes = {wire_node(1, 0, 0), wire_node(2, 0, 0)};
  nodes[0].out_edges = {1};
  nodes[1].out_edges = {0};
  route::RrNode sink;
  sink.type = route::RrType::kSink;
  nodes.push_back(sink);  // nothing reaches it
  Report report;
  lint::lint_rr_nodes(nodes, 1, &report);
  EXPECT_TRUE(report.fired(lint::rules::kRrUnreachable));
}

TEST(RrLint, InvalidEdgesFireRR005) {
  std::vector<route::RrNode> nodes = {wire_node(1, 0, 0), wire_node(2, 0, 0)};
  nodes[0].out_edges = {1, 1, 0, 99};  // duplicate, self-loop, dangling
  nodes[1].out_edges = {0};
  Report report;
  lint::lint_rr_nodes(nodes, 1, &report);
  EXPECT_GE(report.count_rule(lint::rules::kRrInvalidEdge), 3);
}

/// The clean fixture through every stage, default options.
flow::FlowResult small_flow() {
  flow::FlowSession session(
      netlist::read_blif_file(fixture("clean_small.blif")));
  session.resume();
  return session.take_result();
}

TEST(RrLint, GeneratedGraphIsClean) {
  auto result = small_flow();
  Report report;
  lint::lint_rr_graph(*result.rr_graph, &report);
  EXPECT_TRUE(report.empty()) << report.to_text();
}

// ---------- flow invariants ----------

// Each FL1xx–FL3xx seeded defect below goes through both paths of its
// invariant: lint must fire exactly that rule, and the layer's throwing
// validator (PackedNetlist::validate, Placement::validate,
// route::verify_routing) must reject the same artifact.

std::set<std::string> rules_fired(const Report& report) {
  std::set<std::string> fired;
  for (const auto& d : report.diagnostics()) fired.insert(d.rule);
  return fired;
}

/// A mapped sequential design big enough to fill clusters.
Network mapped_design(int k) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 200;
  spec.n_latches = 8;
  spec.seed = 31;
  return synth::map_to_luts(bench_gen::generate(spec),
                            synth::LutMapOptions{k, 8});
}

TEST(FlowInvariants, CleanFlowPassesAllBarriers) {
  auto result = small_flow();
  EXPECT_TRUE(result.routing.success);
  EXPECT_TRUE(result.lint.empty()) << result.lint.to_text();
}

TEST(FlowInvariants, PackAndPlaceOfCleanFlowReportNothing) {
  auto result = small_flow();
  Report report;
  lint::check_post_pack(*result.packed, &report);
  lint::check_post_place(*result.placement, &report);
  EXPECT_TRUE(report.empty()) << report.to_text();
}

// A PackedNetlist checks against its ArchSpec by pointer, so tightening
// N or K after packing seeds the FL1xx defects.

TEST(FlowInvariants, OverfullClusterFiresFL101) {
  const Network mapped = mapped_design(4);
  arch::ArchSpec spec;
  const pack::PackedNetlist packed(mapped, spec);
  // N=2 with K=8 keeps I = (K/2)(N+1) = 12 and every BLE within K.
  spec.n = 2;
  spec.k = 8;
  Report report;
  lint::check_post_pack(packed, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kPackClusterSize});
  EXPECT_THROW(packed.validate(), Error);
}

TEST(FlowInvariants, ClusterInputsBeyondIFireFL102) {
  // 2-LUTs on the default CLB: five BLEs may read up to ten inputs.
  const Network mapped = mapped_design(2);
  arch::ArchSpec spec;
  const pack::PackedNetlist packed(mapped, spec);
  // K=2 cuts I to (K/2)(N+1) = 6 and leaves N and every BLE legal.
  spec.k = 2;
  Report report;
  lint::check_post_pack(packed, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kPackClusterInputs});
  EXPECT_THROW(packed.validate(), Error);
}

TEST(FlowInvariants, BleWiderThanKFiresFL104) {
  const Network mapped = mapped_design(4);
  arch::ArchSpec spec;
  const pack::PackedNetlist packed(mapped, spec);
  // K=3 makes every 4-input BLE too wide; N=11 keeps I = 12.
  spec.k = 3;
  spec.n = 11;
  Report report;
  lint::check_post_pack(packed, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kPackCoverage});
  EXPECT_THROW(packed.validate(), Error);
}

TEST(FlowInvariants, OverlappingBlocksFireFL201) {
  auto result = small_flow();
  place::Placement& pl = *result.placement;
  // Two pads, so the moved one stays on the ring: only the overlap is
  // wrong.
  std::vector<int> pads;
  for (std::size_t b = 0; b < pl.blocks().size(); ++b) {
    if (pl.blocks()[b].kind != place::BlockKind::kClb) {
      pads.push_back(static_cast<int>(b));
    }
  }
  ASSERT_GE(pads.size(), 2u);
  pl.set_location(pads[0], pl.location(pads[1]));
  Report report;
  lint::check_post_place(pl, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kPlaceOverlap});
  EXPECT_THROW(pl.validate(), Error);
}

TEST(FlowInvariants, OffGridBlockFiresFL202) {
  auto result = small_flow();
  result.placement->set_location(0, place::Loc{-3, 7, 0});
  Report report;
  lint::check_post_place(*result.placement, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kPlaceOffGrid});
  EXPECT_THROW(result.placement->validate(), Error);
}

TEST(FlowInvariants, CorruptedRouteOveruseFiresFL301) {
  auto result = small_flow();
  route::RouteResult corrupted = result.routing;
  // Duplicate a wire node inside one net's tree: its occupancy doubles
  // past capacity 1.
  bool seeded = false;
  for (auto& r : corrupted.routes) {
    for (std::size_t k = 0; k < r.nodes.size() && !seeded; ++k) {
      const route::RrType t = result.rr_graph->node_type(r.nodes[k]);
      if (t == route::RrType::kChanX || t == route::RrType::kChanY) {
        r.nodes.push_back(r.nodes[k]);
        r.parent.push_back(r.parent[k]);
        seeded = true;
      }
    }
    if (seeded) break;
  }
  ASSERT_TRUE(seeded) << "no wire node found in any route";
  Report report;
  lint::check_post_route(*result.rr_graph, corrupted, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kRouteOveruse});
  EXPECT_THROW(route::verify_routing(*result.rr_graph, corrupted), Error);
}

TEST(FlowInvariants, DroppedRouteFiresFL302) {
  auto result = small_flow();
  route::RouteResult corrupted = result.routing;
  bool seeded = false;
  for (std::size_t ni = 0; ni < corrupted.routes.size(); ++ni) {
    if (!result.rr_graph->sinks_of_net(static_cast<int>(ni)).empty()) {
      corrupted.routes[ni].nodes.clear();
      corrupted.routes[ni].parent.clear();
      seeded = true;
      break;
    }
  }
  ASSERT_TRUE(seeded);
  Report report;
  lint::check_post_route(*result.rr_graph, corrupted, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kRouteDisconnected});
  EXPECT_THROW(route::verify_routing(*result.rr_graph, corrupted), Error);
}

TEST(FlowInvariants, EdgeAbsentFromGraphFiresFL303) {
  auto result = small_flow();
  const route::RrGraph& graph = *result.rr_graph;
  route::RouteResult corrupted = result.routing;
  // Re-hang one tree node on its net's OPIN, which has no edge to it.
  bool seeded = false;
  for (auto& r : corrupted.routes) {
    for (std::size_t k = 1; k < r.nodes.size() && !seeded; ++k) {
      if (r.parent[k] != 0 && !graph.has_edge(r.nodes[0], r.nodes[k])) {
        r.parent[k] = 0;
        seeded = true;
      }
    }
    if (seeded) break;
  }
  ASSERT_TRUE(seeded);
  Report report;
  lint::check_post_route(graph, corrupted, &report);
  EXPECT_EQ(rules_fired(report),
            std::set<std::string>{lint::rules::kRouteBadEdge});
  EXPECT_THROW(route::verify_routing(graph, corrupted), Error);
}

TEST(FlowInvariants, FlippedLutBitsFireFL401) {
  auto result = small_flow();
  bitgen::Bitstream corrupted = result.bitstream;
  bool seeded = false;
  for (auto& clb : corrupted.clbs) {
    for (auto& ble : clb.bles) {
      if (ble.used) {
        ble.lut_bits = ~ble.lut_bits;
        seeded = true;
        break;
      }
    }
    if (seeded) break;
  }
  ASSERT_TRUE(seeded);
  Report report;
  lint::check_post_bitgen(bitgen::serialize(corrupted), *result.mapped,
                          &report);
  EXPECT_TRUE(report.fired(lint::rules::kBitgenRoundtrip));
}

TEST(FlowInvariants, TruncatedBitstreamFiresFL402) {
  auto result = small_flow();
  std::vector<std::uint8_t> bytes = result.bitstream_bytes;
  bytes.resize(bytes.size() / 2);
  Report report;
  lint::check_post_bitgen(bytes, *result.mapped, &report);
  EXPECT_TRUE(report.fired(lint::rules::kBitgenMalformed));
}

// ---------- the clean-flow acceptance test ----------

TEST(FlowInvariants, TrafficLightFlowLintsClean) {
  flow::JobSpec job;
  job.source = flow::JobSpec::Source::kFile;
  job.path = fixture("traffic_light.vhd");
  job.top = "traffic";
  job.options.check_invariants = true;
  flow::FlowSession session(job);
  session.run_until(job.until);
  EXPECT_TRUE(session.result().routing.success);
  EXPECT_TRUE(session.result().lint.empty())
      << session.result().lint.to_text();
}

}  // namespace
}  // namespace amdrel
