#include <gtest/gtest.h>

#include <algorithm>

#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "netlist/simulate.hpp"
#include "power/power.hpp"
#include "timing/timing.hpp"
#include "util/error.hpp"

namespace amdrel {
namespace {

const char* kCounterVhdl = R"(
entity counter is
  port ( clk : in std_logic;
         rst : in std_logic;
         en  : in std_logic;
         q   : out std_logic_vector(3 downto 0) );
end counter;
architecture rtl of counter is
  signal count : std_logic_vector(3 downto 0);
begin
  process(clk, rst)
  begin
    if rst = '1' then
      count <= (others => '0');
    elsif rising_edge(clk) then
      if en = '1' then
        count <= count + 1;
      end if;
    end if;
  end process;
  q <= count;
end rtl;
)";

/// Runs every stage of a FlowSession over `net`.
flow::FlowResult compile(const netlist::Network& net,
                         const flow::FlowOptions& opt) {
  flow::FlowSession session(net, opt);
  session.resume();
  return session.take_result();
}

TEST(Flow, VhdlToBitstreamWithVerification) {
  flow::JobSpec job;
  job.source = flow::JobSpec::Source::kVhdl;
  job.text = kCounterVhdl;
  job.top = "counter";
  // Includes the formal bitstream proof.
  job.options.verify_mode = flow::VerifyMode::kBoth;
  flow::FlowSession session(job);
  session.run_until(job.until);
  const flow::FlowResult& result = session.result();
  EXPECT_TRUE(result.routing.success);
  EXPECT_GT(result.bitstream_bytes.size(), 0u);
  EXPECT_GT(result.timing.fmax_hz, 1e6);
  EXPECT_GT(result.power.total_w, 0.0);
  EXPECT_FALSE(result.report().empty());
}

TEST(Flow, SyntheticDesignEndToEnd) {
  bench_gen::BenchSpec spec;
  spec.n_inputs = 10;
  spec.n_outputs = 8;
  spec.n_gates = 220;
  spec.n_latches = 16;
  spec.seed = 77;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  auto result = compile(net, opt);
  EXPECT_TRUE(result.routing.success);
  // Timing sanity: critical path within a plausible 0.18 µm range.
  EXPECT_GT(result.timing.critical_path_s, 0.5e-9);
  EXPECT_LT(result.timing.critical_path_s, 200e-9);
  // Power sanity.
  EXPECT_GT(result.power.logic_w, 0.0);
  EXPECT_GT(result.power.routing_w, 0.0);
  EXPECT_GT(result.power.clock_w, 0.0);
  EXPECT_GT(result.power.leakage_w, 0.0);
}

TEST(Flow, MinChannelWidthMode) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 120;
  spec.seed = 78;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.search_min_channel_width = true;
  auto result = compile(net, opt);
  EXPECT_TRUE(result.routing.success);
  EXPECT_GT(result.channel_width, 0);
  EXPECT_LE(result.channel_width, 128);
}

TEST(Flow, ClockGatingReducesClockPower) {
  // The paper's central claim: gated clocks save power when registers are
  // often idle. Use a design whose FFs rarely toggle (low input activity).
  bench_gen::BenchSpec spec;
  spec.n_gates = 200;
  spec.n_latches = 32;
  spec.seed = 79;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.power.input_activity = 0.05;  // mostly idle
  opt.verify_mode = flow::VerifyMode::kOff;
  auto result = compile(net, opt);
  EXPECT_LT(result.power.clock_w, result.power.clock_ungated_w);
}

/// The bitgen stage's check in place of a second proof: the bytes must
/// read back as exactly the bitstream the route stage proved, so a single
/// flipped byte of a CLB frame fails it.
TEST(Bitstream, SerializeRoundTrip) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 100;
  spec.n_latches = 8;
  spec.seed = 80;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;
  auto result = compile(net, opt);

  const bitgen::Bitstream& b = result.bitstream;
  ASSERT_FALSE(b.clbs.empty());
  const auto bytes = bitgen::serialize(b);
  EXPECT_EQ(bytes, result.bitstream_bytes);
  EXPECT_TRUE(bitgen::deserialize(bytes) == b);

  // Locate a byte of the first CLB frame without restating the format:
  // it is where the bytes of a copy with one LUT bit flipped differ.
  bitgen::Bitstream moved = b;
  moved.clbs[0].bles[0].lut_bits ^= 1u;
  const auto moved_bytes = bitgen::serialize(moved);
  ASSERT_EQ(moved_bytes.size(), bytes.size());
  const auto at = static_cast<std::size_t>(
      std::mismatch(bytes.begin(), bytes.end(), moved_bytes.begin()).first -
      bytes.begin());
  ASSERT_LT(at, bytes.size());

  auto flipped = bytes;
  flipped[at] ^= 0xff;
  EXPECT_FALSE(bitgen::deserialize(flipped) == b);
}

TEST(Bitstream, DecodedFabricIsSequentiallyEquivalent) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 150;
  spec.n_latches = 12;
  spec.seed = 81;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;
  auto result = compile(net, opt);

  auto fabric = bitgen::decode_to_network(result.bitstream);
  auto r = netlist::check_equivalence(*result.mapped, fabric, 6, 64);
  EXPECT_TRUE(r.equivalent) << r.message;
}

TEST(Bitstream, RejectsCorruptedBytes) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 60;
  spec.seed = 82;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;
  auto result = compile(net, opt);
  auto bytes = result.bitstream_bytes;
  bytes[0] ^= 0xff;  // clobber magic
  EXPECT_THROW(bitgen::deserialize(bytes), Error);
  auto truncated = result.bitstream_bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(bitgen::deserialize(truncated), Error);
}

TEST(Timing, NetDelaysArePositiveAndBounded) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 150;
  spec.seed = 83;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;
  auto result = compile(net, opt);
  auto delays = timing::compute_net_delays(*result.rr_graph,
                                           *result.placement, result.routing,
                                           opt.arch);
  int counted = 0;
  for (const auto& nd : delays) {
    for (const auto& [blk, d] : nd.to_block) {
      EXPECT_GT(d, 0.0);
      EXPECT_LT(d, 50e-9);
      ++counted;
    }
  }
  EXPECT_GT(counted, 0);
}

TEST(Power, ScalesWithFrequency) {
  bench_gen::BenchSpec spec;
  spec.n_gates = 150;
  spec.n_latches = 8;
  spec.seed = 84;
  auto net = bench_gen::generate(spec);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;
  auto result = compile(net, opt);

  power::PowerOptions p1, p2;
  p1.clock_hz = 50e6;
  p2.clock_hz = 200e6;
  auto r1 = power::estimate_power(*result.packed, *result.placement,
                                  *result.rr_graph, result.routing, opt.arch,
                                  p1);
  auto r2 = power::estimate_power(*result.packed, *result.placement,
                                  *result.rr_graph, result.routing, opt.arch,
                                  p2);
  // Dynamic terms scale 4×; leakage does not.
  EXPECT_NEAR(r2.logic_w / r1.logic_w, 4.0, 0.01);
  EXPECT_NEAR(r2.routing_w / r1.routing_w, 4.0, 0.01);
  EXPECT_DOUBLE_EQ(r2.leakage_w, r1.leakage_w);
}

}  // namespace
}  // namespace amdrel
