#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "bench_gen/bench_gen.hpp"
#include "pack/pack.hpp"
#include "synth/lutmap.hpp"
#include "util/error.hpp"

namespace amdrel::pack {
namespace {

using arch::ArchSpec;
using netlist::Network;

Network mapped_bench(int gates, int latches, std::uint64_t seed) {
  bench_gen::BenchSpec spec;
  spec.n_inputs = 10;
  spec.n_outputs = 8;
  spec.n_gates = gates;
  spec.n_latches = latches;
  spec.seed = seed;
  Network n = bench_gen::generate(spec);
  return synth::map_to_luts(n, synth::LutMapOptions{4, 8});
}

TEST(Arch, Equation1ClusterInputs) {
  ArchSpec spec;
  // Paper Eq. (1): I = (K/2)(N+1) = 2*6 = 12 for K=4, N=5.
  EXPECT_EQ(spec.cluster_inputs(), 12);
  // 17:1 local muxes (12 inputs + 5 feedbacks).
  EXPECT_EQ(spec.local_mux_inputs(), 17);
  spec.k = 6;
  spec.n = 7;
  EXPECT_EQ(spec.cluster_inputs(), 24);
}

TEST(Arch, GridSizing) {
  ArchSpec spec;
  auto g = arch::size_grid(spec, 9, 10);
  EXPECT_GE(g.nx * g.ny, 9);
  EXPECT_GE(4 * g.nx * spec.io_per_tile, 10);
  // IO-dominated design forces a bigger grid.
  auto g2 = arch::size_grid(spec, 1, 100);
  EXPECT_GE(4 * g2.nx * spec.io_per_tile, 100);
}

TEST(Arch, FileRoundTrip) {
  ArchSpec spec;
  spec.k = 5;
  spec.n = 6;
  spec.channel_width = 24;
  spec.fc_in = 0.5;
  spec.switch_width_x = 16;
  ArchSpec back = arch::read_arch_string(arch::write_arch_string(spec));
  EXPECT_EQ(back.k, 5);
  EXPECT_EQ(back.n, 6);
  EXPECT_EQ(back.channel_width, 24);
  EXPECT_DOUBLE_EQ(back.fc_in, 0.5);
  EXPECT_DOUBLE_EQ(back.switch_width_x, 16);
}

TEST(Arch, RejectsBadFile) {
  EXPECT_THROW(arch::read_arch_string("nonsense_key 3\n"), ParseError);
  EXPECT_THROW(arch::read_arch_string("lut_inputs 99\n"), ParseError);
}

TEST(Arch, RejectsBadValuesNamingTheLine) {
  // Each of these once parsed, hung size_grid, or threw a bare
  // std::invalid_argument ("stoi").
  for (const char* bad :
       {"io_per_tile 0\n", "io_per_tile -3\n", "lut_inputs abc\n",
        "lut_inputs 4x\n", "fc_in nan\n", "fc_in -1\n", "fc_in 7\n",
        "fc_out 0\n", "switch_width_x inf\n", "t_lut -1e-9\n",
        "r_switch nan\n", "c_wire_tile -2e-15\n", "gated_clock_ble 2\n",
        "channel_width 1\n", "cluster_size 0\n"}) {
    const std::string text = std::string("# DUTYS\nname x\n") + bad;
    try {
      arch::read_arch_string(text);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3) << bad;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a ParseError for " << bad << ": " << e.what();
    }
  }
  // The edges of each range stay legal.
  const ArchSpec edge = arch::read_arch_string(
      "io_per_tile 1\nfc_in 1\nfc_out 0.25\nt_lut 0\nr_switch 0\n");
  EXPECT_EQ(edge.io_per_tile, 1);
  EXPECT_DOUBLE_EQ(edge.fc_out, 0.25);
}

TEST(Pack, CombinationalDesign) {
  Network n = mapped_bench(300, 0, 21);
  ArchSpec spec;
  PackedNetlist packed(n, spec);
  packed.validate();
  // All LUTs packed; cluster count near ceil(bles/N).
  int min_clusters =
      (static_cast<int>(packed.bles().size()) + spec.n - 1) / spec.n;
  EXPECT_GE(static_cast<int>(packed.clusters().size()), min_clusters);
  EXPECT_LE(static_cast<int>(packed.clusters().size()),
            3 * min_clusters);  // packing should not explode
}

TEST(Pack, SequentialPairsLutsWithFfs) {
  Network n = mapped_bench(300, 24, 22);
  ArchSpec spec;
  PackedNetlist packed(n, spec);
  packed.validate();
  // Some BLEs should contain both a LUT and a FF.
  int paired = 0;
  for (const auto& b : packed.bles()) {
    if (b.lut_gate >= 0 && b.latch >= 0) ++paired;
  }
  EXPECT_GT(paired, 0);
  EXPECT_EQ(packed.network().latches().size(), 24u);
}

TEST(Pack, Equation1PropertySweep) {
  // Property: for every (K, N) in the paper's exploration range, packing
  // respects I = (K/2)(N+1) and never exceeds N BLEs per cluster.
  for (int k : {3, 4, 5}) {
    for (int n_cluster : {2, 5, 8}) {
      bench_gen::BenchSpec bspec;
      bspec.n_inputs = 12;
      bspec.n_outputs = 8;
      bspec.n_gates = 250;
      bspec.n_latches = 10;
      bspec.seed = static_cast<std::uint64_t>(k * 100 + n_cluster);
      Network base = bench_gen::generate(bspec);
      Network lut = synth::map_to_luts(
          base, synth::LutMapOptions{k, 8});
      ArchSpec spec;
      spec.k = k;
      spec.n = n_cluster;
      PackedNetlist packed(lut, spec);
      packed.validate();  // checks N, I, clock constraints internally
      for (const auto& c : packed.clusters()) {
        EXPECT_LE(static_cast<int>(c.input_signals.size()),
                  spec.cluster_inputs());
        EXPECT_LE(static_cast<int>(c.bles.size()), spec.n);
      }
    }
  }
}

TEST(Pack, NetFileContainsClusters) {
  Network n = mapped_bench(120, 8, 23);
  ArchSpec spec;
  PackedNetlist packed(n, spec);
  std::string text = write_net_string(packed);
  EXPECT_NE(text.find(".clb cluster0"), std::string::npos);
  EXPECT_NE(text.find(".model"), std::string::npos);
}

TEST(Pack, RejectsUnmappedNetwork) {
  // A gate wider than K must be rejected (mapper required first).
  Network n = netlist::Network("wide");
  auto a = n.add_signal("a"), b = n.add_signal("b"), c = n.add_signal("c"),
       d = n.add_signal("d"), e = n.add_signal("e"), y = n.add_signal("y");
  for (auto s : {a, b, c, d, e}) n.add_input(s);
  n.add_gate("y", netlist::TruthTable::and_n(5), {a, b, c, d, e}, y);
  n.add_output(y);
  ArchSpec spec;  // k = 4
  EXPECT_THROW(PackedNetlist(n, spec), Error);
}

}  // namespace
}  // namespace amdrel::pack
