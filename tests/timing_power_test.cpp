#include <gtest/gtest.h>

#include "bench_gen/bench_gen.hpp"
#include "flow/session.hpp"
#include "power/power.hpp"
#include "timing/timing.hpp"

namespace amdrel {
namespace {

flow::FlowResult routed_design(int gates, int latches, std::uint64_t seed,
                               arch::ArchSpec spec = {}) {
  bench_gen::BenchSpec bspec;
  bspec.n_inputs = 10;
  bspec.n_outputs = 8;
  bspec.n_gates = gates;
  bspec.n_latches = latches;
  bspec.seed = seed;
  auto net = bench_gen::generate(bspec);
  flow::FlowOptions options;
  options.arch = spec;
  options.verify_mode = flow::VerifyMode::kOff;
  options.search_min_channel_width = true;
  flow::FlowSession session(net, options);
  session.resume();
  return session.take_result();
}

TEST(Timing, ElmoreDelayGrowsWithResistance) {
  auto r = routed_design(150, 8, 101);
  arch::ArchSpec slow = r.placement->spec();
  auto base = timing::compute_net_delays(*r.rr_graph, *r.placement,
                                         r.routing, slow);
  slow.r_switch *= 4;
  slow.r_wire_tile *= 4;
  auto slower = timing::compute_net_delays(*r.rr_graph, *r.placement,
                                           r.routing, slow);
  ASSERT_EQ(base.size(), slower.size());
  for (std::size_t ni = 0; ni < base.size(); ++ni) {
    for (const auto& [blk, d] : base[ni].to_block) {
      auto it = slower[ni].to_block.find(blk);
      ASSERT_NE(it, slower[ni].to_block.end());
      EXPECT_GT(it->second, d);
    }
  }
}

TEST(Timing, CriticalPathCoversBlockDelays) {
  auto r = routed_design(200, 16, 102);
  // Critical path must at least include one LUT + FF setup + some routing.
  const auto& spec = r.placement->spec();
  EXPECT_GE(r.timing.critical_path_s,
            spec.t_lut + spec.t_local_mux);
  EXPECT_FALSE(r.timing.critical_path.empty());
}

TEST(Timing, PurelyCombinationalDesignHasIoPath) {
  auto r = routed_design(120, 0, 103);
  // PI→PO path: two pad delays at minimum.
  EXPECT_GE(r.timing.critical_path_s, 2 * r.placement->spec().t_io);
}

TEST(Timing, FasterArchitectureGivesShorterCriticalPath) {
  arch::ArchSpec fast;
  fast.t_lut /= 2;
  fast.t_local_mux /= 2;
  auto slow_design = routed_design(200, 8, 104);
  auto fast_design = routed_design(200, 8, 104, fast);
  EXPECT_LT(fast_design.timing.critical_path_s,
            slow_design.timing.critical_path_s);
}

TEST(Power, HigherActivityMoreDynamicPower) {
  auto r = routed_design(200, 16, 105);
  power::PowerOptions quiet, busy;
  quiet.input_activity = 0.05;
  busy.input_activity = 0.9;
  auto pq = power::estimate_power(*r.packed, *r.placement, *r.rr_graph,
                                  r.routing, r.placement->spec(), quiet);
  auto pb = power::estimate_power(*r.packed, *r.placement, *r.rr_graph,
                                  r.routing, r.placement->spec(), busy);
  EXPECT_GT(pb.logic_w, pq.logic_w);
  EXPECT_GT(pb.routing_w, pq.routing_w);
  EXPECT_DOUBLE_EQ(pb.leakage_w, pq.leakage_w);
}

TEST(Power, GatingDisabledRemovesSavings) {
  auto r = routed_design(200, 24, 106);
  arch::ArchSpec ungated = r.placement->spec();
  ungated.gated_clock_ble = false;
  power::PowerOptions opt;
  opt.input_activity = 0.05;
  auto gated = power::estimate_power(*r.packed, *r.placement, *r.rr_graph,
                                     r.routing, r.placement->spec(), opt);
  auto plain = power::estimate_power(*r.packed, *r.placement, *r.rr_graph,
                                     r.routing, ungated, opt);
  EXPECT_LT(gated.clock_w, plain.clock_w);
  EXPECT_DOUBLE_EQ(plain.clock_w, plain.clock_ungated_w);
}

TEST(Power, DeterministicForSeed) {
  auto r = routed_design(150, 8, 107);
  power::PowerOptions opt;
  auto p1 = power::estimate_power(*r.packed, *r.placement, *r.rr_graph,
                                  r.routing, r.placement->spec(), opt);
  auto p2 = power::estimate_power(*r.packed, *r.placement, *r.rr_graph,
                                  r.routing, r.placement->spec(), opt);
  EXPECT_DOUBLE_EQ(p1.total_w, p2.total_w);
}

TEST(Power, SummaryMentionsAllComponents) {
  auto r = routed_design(120, 8, 108);
  auto s = r.power.summary();
  for (const char* key : {"logic", "routing", "clock", "leakage"}) {
    EXPECT_NE(s.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace amdrel
