#include <gtest/gtest.h>

#include "netlist/blif.hpp"
#include "netlist/edif.hpp"
#include "netlist/network.hpp"
#include "netlist/simulate.hpp"
#include "netlist/truth_table.hpp"
#include "util/error.hpp"

namespace amdrel::netlist {
namespace {

TEST(TruthTable, BasicGates) {
  auto inv = TruthTable::inverter();
  EXPECT_TRUE(inv.get(0));
  EXPECT_FALSE(inv.get(1));

  auto and2 = TruthTable::and_n(2);
  EXPECT_FALSE(and2.get(0));
  EXPECT_FALSE(and2.get(1));
  EXPECT_FALSE(and2.get(2));
  EXPECT_TRUE(and2.get(3));

  auto xor3 = TruthTable::xor_n(3);
  for (std::uint64_t row = 0; row < 8; ++row) {
    EXPECT_EQ(xor3.get(row), (__builtin_popcountll(row) & 1) != 0);
  }

  auto mux = TruthTable::mux2();
  // (sel, a, b): sel=0 → a.
  EXPECT_FALSE(mux.get(0b000));
  EXPECT_TRUE(mux.get(0b010));   // a=1, sel=0
  EXPECT_FALSE(mux.get(0b010 | 1) /*sel=1,a=1,b=0*/);
  EXPECT_TRUE(mux.get(0b101));   // sel=1, b=1
}

TEST(TruthTable, ConstantsAndDependence) {
  auto c1 = TruthTable::constant(true);
  EXPECT_TRUE(c1.is_constant());
  EXPECT_TRUE(c1.constant_value());

  auto and2 = TruthTable::and_n(2);
  EXPECT_FALSE(and2.is_constant());
  EXPECT_TRUE(and2.depends_on(0));
  EXPECT_TRUE(and2.depends_on(1));

  // Table that ignores input 1: out = in0.
  TruthTable t(2);
  for (std::uint64_t row = 0; row < 4; ++row) t.set(row, row & 1);
  EXPECT_TRUE(t.depends_on(0));
  EXPECT_FALSE(t.depends_on(1));
}

TEST(TruthTable, Cofactor) {
  auto and2 = TruthTable::and_n(2);
  auto c0 = and2.cofactor(0, false);  // in0=0 → constant 0
  EXPECT_TRUE(c0.is_constant());
  EXPECT_FALSE(c0.constant_value());
  auto c1 = and2.cofactor(0, true);  // in0=1 → identity(in1)
  EXPECT_EQ(c1, TruthTable::identity());
}

TEST(TruthTable, PermuteAndInvert) {
  // out = in0 & !in1
  TruthTable t(2);
  t.set(0b01, true);
  auto p = t.permute({1, 0});  // swap inputs: out = in1 & !in0
  EXPECT_TRUE(p.get(0b10));
  EXPECT_FALSE(p.get(0b01));
  auto inv = t.invert();
  for (std::uint64_t row = 0; row < 4; ++row) {
    EXPECT_EQ(inv.get(row), !t.get(row));
  }
}

TEST(TruthTable, WideTables) {
  TruthTable t(10);
  EXPECT_EQ(t.n_rows(), 1024u);
  t.set(1023, true);
  EXPECT_TRUE(t.get(1023));
  EXPECT_FALSE(t.get(0));
  EXPECT_FALSE(t.is_constant());
}

TEST(Network, BuildAndValidate) {
  Network n("test");
  SignalId a = n.add_signal("a");
  SignalId b = n.add_signal("b");
  SignalId y = n.add_signal("y");
  n.add_input(a);
  n.add_input(b);
  n.add_gate("y", TruthTable::and_n(2), {a, b}, y);
  n.add_output(y);
  EXPECT_NO_THROW(n.validate());
  EXPECT_EQ(n.topo_order().size(), 1u);
}

TEST(Network, DetectsCombinationalCycle) {
  Network n("loop");
  SignalId a = n.add_signal("a");
  SignalId b = n.add_signal("b");
  n.add_gate("g1", TruthTable::inverter(), {a}, b);
  n.add_gate("g2", TruthTable::inverter(), {b}, a);
  EXPECT_THROW(n.topo_order(), InfeasibleError);
}

TEST(Network, DetectsDoubleDriver) {
  Network n("dd");
  SignalId a = n.add_signal("a");
  SignalId y = n.add_signal("y");
  n.add_input(a);
  n.add_gate("g1", TruthTable::inverter(), {a}, y);
  n.add_gate("g2", TruthTable::identity(), {a}, y);
  EXPECT_THROW(n.validate(), Error);
}

const char* kCounterBlif = R"(
# 2-bit counter with enable
.model counter2
.inputs en
.outputs q0 q1
.latch d0 q0 re clk 0
.latch d1 q1 re clk 0
.names en q0 d0
01 1
10 1
.names en q0 q1 d1
001 1
011 1
101 1
110 1
.names clk
0
.end
)";

TEST(Blif, ParsesCounter) {
  Network n = read_blif_string(kCounterBlif);
  EXPECT_EQ(n.name(), "counter2");
  EXPECT_EQ(n.inputs().size(), 1u);
  EXPECT_EQ(n.outputs().size(), 2u);
  EXPECT_EQ(n.latches().size(), 2u);
  EXPECT_EQ(n.gates().size(), 3u);
  n.validate();
}

TEST(Blif, RoundTrip) {
  Network n = read_blif_string(kCounterBlif);
  std::string text = write_blif_string(n);
  Network n2 = read_blif_string(text);
  auto r = check_equivalence(n, n2);
  EXPECT_TRUE(r.equivalent) << r.message;
}

TEST(Blif, CubesWithDontCares) {
  Network n = read_blif_string(R"(
.model dc
.inputs a b c
.outputs y
.names a b c y
1-- 1
-11 1
.end
)");
  const auto& t = n.gates()[0].table;
  // y = a | (b & c)
  for (std::uint64_t row = 0; row < 8; ++row) {
    bool a = row & 1, b = row & 2, c = row & 4;
    EXPECT_EQ(t.get(row), a || (b && c)) << row;
  }
}

TEST(Blif, OffSetCover) {
  Network n = read_blif_string(R"(
.model off
.inputs a b
.outputs y
.names a b y
11 0
.end
)");
  // y = NAND(a,b)
  EXPECT_EQ(n.gates()[0].table, TruthTable::and_n(2, true));
}

TEST(Blif, RejectsMalformed) {
  EXPECT_THROW(read_blif_string(".inputs a\n"), ParseError);
  EXPECT_THROW(read_blif_string(".model x\n01 1\n"), ParseError);
  EXPECT_THROW(read_blif_string(".model x\n.names a y\n2 1\n"), ParseError);
  EXPECT_THROW(
      read_blif_string(".model x\n.inputs a\n.outputs nothere\n.end\n"),
      ParseError);
}

TEST(Blif, Continuations) {
  Network n = read_blif_string(
      ".model c\n.inputs \\\na b\n.outputs y\n.names a b y\n11 1\n.end\n");
  EXPECT_EQ(n.inputs().size(), 2u);
}

TEST(Simulator, CounterCounts) {
  Network n = read_blif_string(kCounterBlif);
  Simulator sim(n);
  SignalId q0 = n.find_signal("q0"), q1 = n.find_signal("q1");
  sim.set_input_by_name("en", true);
  int expected = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    sim.propagate();
    EXPECT_EQ(sim.value(q0), (expected & 1) != 0) << cycle;
    EXPECT_EQ(sim.value(q1), (expected & 2) != 0) << cycle;
    sim.step_clock();
    expected = (expected + 1) & 3;
  }
  // With enable low the counter freezes.
  sim.set_input_by_name("en", false);
  sim.propagate();
  bool f0 = sim.value(q0), f1 = sim.value(q1);
  sim.step_clock();
  sim.propagate();
  EXPECT_EQ(sim.value(q0), f0);
  EXPECT_EQ(sim.value(q1), f1);
}

TEST(Simulator, ToggleCountsAccumulate) {
  Network n = read_blif_string(kCounterBlif);
  Simulator sim(n);
  sim.set_input_by_name("en", true);
  for (int i = 0; i < 16; ++i) {
    sim.propagate();
    sim.step_clock();
  }
  SignalId q0 = n.find_signal("q0");
  SignalId q1 = n.find_signal("q1");
  // q0 toggles every cycle, q1 every other.
  EXPECT_GT(sim.toggle_counts()[static_cast<std::size_t>(q0)],
            sim.toggle_counts()[static_cast<std::size_t>(q1)]);
}

TEST(Equivalence, DetectsDifference) {
  Network a = read_blif_string(
      ".model m\n.inputs x y\n.outputs z\n.names x y z\n11 1\n.end\n");
  Network b = read_blif_string(
      ".model m\n.inputs x y\n.outputs z\n.names x y z\n1- 1\n.end\n");
  auto r = check_equivalence(a, b);
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.message.empty());
}

TEST(Equivalence, NameSetMismatch) {
  Network a = read_blif_string(
      ".model m\n.inputs x\n.outputs z\n.names x z\n1 1\n.end\n");
  Network b = read_blif_string(
      ".model m\n.inputs w\n.outputs z\n.names w z\n1 1\n.end\n");
  auto r = check_equivalence(a, b);
  EXPECT_FALSE(r.equivalent);
}

TEST(Edif, RoundTripCombinational) {
  Network n = read_blif_string(R"(
.model comb
.inputs a b c
.outputs y z
.names a b t
11 1
.names t c y
10 1
01 1
.names a c z
00 1
.end
)");
  std::string edif = write_edif_string(n);
  EXPECT_NE(edif.find("(edifVersion 2 0 0)"), std::string::npos);
  Network n2 = read_edif_string(edif);
  auto r = check_equivalence(n, n2);
  EXPECT_TRUE(r.equivalent) << r.message;
}

TEST(Edif, RoundTripSequential) {
  Network n = read_blif_string(kCounterBlif);
  std::string edif = write_edif_string(n);
  Network n2 = read_edif_string(edif);
  auto r = check_equivalence(n, n2);
  EXPECT_TRUE(r.equivalent) << r.message;
}

TEST(Edif, RejectsGarbage) {
  EXPECT_THROW(read_edif_string("(hello world)"), ParseError);
  EXPECT_THROW(read_edif_string("((("), ParseError);
}

TEST(Edif, BadTruthPropertiesNameTheirLine) {
  // A LUT cell's "N:hex" truth property: N must parse, lie in [0, 16] and
  // match the cell's input ports, every digit must be hex and no bit may
  // address a row past the table. Each bad one is a ParseError naming the
  // property's line. An input port with no (direction ...) counts as an
  // input, as it does on the design's interface.
  const auto edif = [](int n_ports, const std::string& truth,
                       bool directions = true) {
    std::string lut_ports;
    std::string pin[2];
    for (int i = 0; i < n_ports; ++i) {
      lut_ports += " (port I";
      lut_ports += std::to_string(i);
      if (directions) lut_ports += " (direction INPUT)";
      lut_ports += ')';
      pin[i] = " (portRef I";
      pin[i] += std::to_string(i);
      pin[i] += " (instanceRef g))";
    }
    return "(edif t\n"
           " (library PRIMS\n"
           "  (cell LUT_x (cellType GENERIC)\n"
           "   (view netlist (viewType NETLIST)\n"
           "    (interface" +
           lut_ports +
           " (port O (direction OUTPUT)))\n"
           "    (property truth (string \"" +
           truth +
           "\")))))\n"
           " (library DESIGNS\n"
           "  (cell t (cellType GENERIC)\n"
           "   (view netlist (viewType NETLIST)\n"
           "    (interface (port a (direction INPUT))\n"
           "     (port b (direction INPUT)) (port y (direction OUTPUT)))\n"
           "    (contents\n"
           "     (instance g (viewRef netlist (cellRef LUT_x)))\n"
           "     (net a (joined (portRef a)" +
           pin[0] +
           "))\n"
           "     (net b (joined (portRef b)" +
           pin[1] +
           "))\n"
           "     (net y (joined (portRef y) (portRef O (instanceRef g))))))))\n"
           " (design t (cellRef t (libraryRef DESIGNS))))\n";
  };
  const auto table_of = [](const Network& net) {
    EXPECT_EQ(net.gates().size(), 1u);
    return net.gates().at(0).table;
  };
  EXPECT_TRUE(table_of(read_edif_string(edif(2, "2:8"))) ==
              TruthTable::and_n(2));
  EXPECT_TRUE(table_of(read_edif_string(edif(2, "2:8", false))) ==
              TruthTable::and_n(2));
  EXPECT_TRUE(table_of(read_edif_string(edif(1, "1:2"))) ==
              TruthTable::identity());
  EXPECT_TRUE(table_of(read_edif_string(edif(0, "0:1"))) ==
              TruthTable::constant(true));
  const std::vector<std::pair<int, const char*>> bad = {
      {2, "x2:8"}, {2, "99:8"}, {2, "3:80"}, {2, "2:!"},
      {2, "2:88"}, {2, "2"},    {0, "0:2"},  {1, "1:e"}};
  for (const auto& [n_ports, truth] : bad) {
    SCOPED_TRACE(truth);
    try {
      read_edif_string(edif(n_ports, truth));
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 6);
    }
  }
}

TEST(Edif, LutCellsCarryTruthTables) {
  // A 4-input gate that is no standard cell must round-trip via the
  // truth property.
  Network n("lut");
  SignalId a = n.add_signal("a"), b = n.add_signal("b"),
           c = n.add_signal("c"), d = n.add_signal("d"),
           y = n.add_signal("y");
  for (SignalId s : {a, b, c, d}) n.add_input(s);
  TruthTable t(4);
  t.set(0b0110, true);
  t.set(0b1001, true);
  t.set(0b1111, true);
  n.add_gate("y", t, {a, b, c, d}, y);
  n.add_output(y);
  Network n2 = read_edif_string(write_edif_string(n));
  auto r = check_equivalence(n, n2);
  EXPECT_TRUE(r.equivalent) << r.message;
}

}  // namespace
}  // namespace amdrel::netlist
