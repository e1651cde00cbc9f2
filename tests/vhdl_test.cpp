#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "util/error.hpp"
#include "vhdl/lexer.hpp"
#include "vhdl/parser.hpp"
#include "vhdl/synth.hpp"

namespace amdrel::vhdl {
namespace {

using netlist::Network;
using netlist::Simulator;

TEST(Lexer, TokenizesBasics) {
  auto tokens = lex_vhdl("entity Foo is -- comment\n  x <= '1'; y := \"01\";");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "entity");  // lower-cased
  EXPECT_EQ(tokens[1].text, "foo");
  // '1' char literal
  bool found_char = false, found_string = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kCharLit && t.text == "1") found_char = true;
    if (t.kind == TokenKind::kStringLit && t.text == "01") found_string = true;
  }
  EXPECT_TRUE(found_char);
  EXPECT_TRUE(found_string);
}

TEST(Lexer, DistinguishesTickUses) {
  auto tokens = lex_vhdl("clk'event and clk = '1'");
  // clk ' event and clk = '1'
  EXPECT_EQ(tokens[0].text, "clk");
  EXPECT_EQ(tokens[1].text, "'");
  EXPECT_EQ(tokens[2].text, "event");
  EXPECT_EQ(tokens[5].kind, TokenKind::kSymbol);
  EXPECT_EQ(tokens[6].kind, TokenKind::kCharLit);
}

TEST(Lexer, RejectsBadChar) {
  EXPECT_THROW(lex_vhdl("x @ y"), ParseError);
}

const char* kAndGate = R"(
library ieee;
use ieee.std_logic_1164.all;

entity and_gate is
  port ( a, b : in std_logic;
         y    : out std_logic );
end and_gate;

architecture rtl of and_gate is
begin
  y <= a and b;
end rtl;
)";

TEST(Parser, ParsesEntityAndArchitecture) {
  DesignFile df = parse_vhdl(kAndGate);
  ASSERT_EQ(df.entities.size(), 1u);
  EXPECT_EQ(df.entities[0].name, "and_gate");
  ASSERT_EQ(df.entities[0].ports.size(), 3u);
  EXPECT_TRUE(df.entities[0].ports[0].is_input);
  EXPECT_FALSE(df.entities[0].ports[2].is_input);
  ASSERT_EQ(df.architectures.size(), 1u);
  EXPECT_EQ(df.architectures[0].entity_name, "and_gate");
}

TEST(Parser, RejectsUnsupported) {
  EXPECT_THROW(parse_vhdl("entity e is generic (n : integer); end e;"),
               ParseError);
  EXPECT_THROW(parse_vhdl("entity e is port (x : inout std_logic); end e;"),
               ParseError);
}

TEST(Parser, IntegerLiteralPastRangeNamesItsLine) {
  // A literal past the 64-bit range, in an expression and in a vector
  // bound: a ParseError on the literal's line, not a bare std::out_of_range.
  const char* kExpr = R"(entity cmp is
  port ( a : in std_logic_vector(3 downto 0);
         eq : out std_logic );
end cmp;
architecture rtl of cmp is
begin
  eq <= '1' when a = 99999999999999999999 else '0';
end rtl;
)";
  const char* kBound = R"(entity wide is
  port ( a : in std_logic_vector(99999999999999999999 downto 0);
         y : out std_logic );
end wide;
)";
  for (const auto& [text, line] : {std::pair{kExpr, 7}, std::pair{kBound, 2}}) {
    try {
      parse_vhdl(text, "big.vhd");
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.file(), "big.vhd");
      EXPECT_EQ(e.line(), line);
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
  // The largest literal that fits still parses.
  EXPECT_NO_THROW(parse_vhdl(R"(entity cmp is
  port ( a : in std_logic_vector(3 downto 0);
         eq : out std_logic );
end cmp;
architecture rtl of cmp is
begin
  eq <= '1' when a = 9223372036854775807 else '0';
end rtl;
)"));
}

TEST(Synth, AndGate) {
  Network n = synthesize_vhdl(kAndGate, "and_gate");
  n.validate();
  Simulator sim(n);
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      sim.set_input_by_name("a", a);
      sim.set_input_by_name("b", b);
      sim.propagate();
      EXPECT_EQ(sim.value(n.find_signal("y")), (a && b)) << a << b;
    }
  }
}

TEST(Synth, VectorOpsAndConcat) {
  Network n = synthesize_vhdl(R"(
entity vec is
  port ( a : in std_logic_vector(3 downto 0);
         b : in std_logic_vector(3 downto 0);
         y : out std_logic_vector(3 downto 0);
         c : out std_logic_vector(7 downto 0) );
end vec;
architecture rtl of vec is
begin
  y <= a xor b;
  c <= a & b;   -- a is the high nibble
end rtl;
)",
                              "vec");
  Simulator sim(n);
  auto set_vec = [&](const std::string& name, int value, int width) {
    for (int i = 0; i < width; ++i) {
      sim.set_input_by_name(name + "_" + std::to_string(i), (value >> i) & 1);
    }
  };
  auto get_vec = [&](const std::string& name, int width) {
    int v = 0;
    for (int i = 0; i < width; ++i) {
      if (sim.value(n.find_signal(name + "_" + std::to_string(i)))) {
        v |= 1 << i;
      }
    }
    return v;
  };
  set_vec("a", 0b1100, 4);
  set_vec("b", 0b1010, 4);
  sim.propagate();
  EXPECT_EQ(get_vec("y", 4), 0b0110);
  EXPECT_EQ(get_vec("c", 8), 0b11001010);
}

TEST(Synth, AdderMatchesIntegers) {
  Network n = synthesize_vhdl(R"(
entity add8 is
  port ( a : in std_logic_vector(7 downto 0);
         b : in std_logic_vector(7 downto 0);
         s : out std_logic_vector(7 downto 0) );
end add8;
architecture rtl of add8 is
begin
  s <= a + b;
end rtl;
)",
                              "add8");
  Simulator sim(n);
  auto set_vec = [&](const std::string& name, int value) {
    for (int i = 0; i < 8; ++i) {
      sim.set_input_by_name(name + "_" + std::to_string(i), (value >> i) & 1);
    }
  };
  for (int a : {0, 1, 37, 200, 255}) {
    for (int b : {0, 1, 19, 128, 255}) {
      set_vec("a", a);
      set_vec("b", b);
      sim.propagate();
      int s = 0;
      for (int i = 0; i < 8; ++i) {
        if (sim.value(n.find_signal("s_" + std::to_string(i)))) s |= 1 << i;
      }
      EXPECT_EQ(s, (a + b) & 0xff) << a << "+" << b;
    }
  }
}

const char* kCounter = R"(
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

TEST(Synth, CounterWithResetAndEnable) {
  Network n = synthesize_vhdl(kCounter, "counter");
  EXPECT_EQ(n.latches().size(), 4u);
  Simulator sim(n);
  auto q = [&]() {
    int v = 0;
    for (int i = 0; i < 4; ++i) {
      if (sim.value(n.find_signal("q_" + std::to_string(i)))) v |= 1 << i;
    }
    return v;
  };
  sim.set_input_by_name("rst", false);
  sim.set_input_by_name("en", true);
  sim.set_input_by_name("clk", false);
  for (int cycle = 1; cycle <= 20; ++cycle) {
    sim.propagate();
    sim.step_clock();
    sim.propagate();
    EXPECT_EQ(q(), cycle & 0xf) << cycle;
  }
  // Enable low freezes.
  sim.set_input_by_name("en", false);
  sim.propagate();
  int frozen = q();
  sim.step_clock();
  sim.propagate();
  EXPECT_EQ(q(), frozen);
  // Reset clears (synthesized synchronously).
  sim.set_input_by_name("rst", true);
  sim.propagate();
  sim.step_clock();
  sim.propagate();
  EXPECT_EQ(q(), 0);
}

TEST(Synth, CaseStatementMux) {
  Network n = synthesize_vhdl(R"(
entity mux4 is
  port ( sel : in std_logic_vector(1 downto 0);
         a, b, c, d : in std_logic;
         y : out std_logic );
end mux4;
architecture rtl of mux4 is
begin
  process(sel, a, b, c, d)
  begin
    case sel is
      when "00" => y <= a;
      when "01" => y <= b;
      when "10" => y <= c;
      when others => y <= d;
    end case;
  end process;
end rtl;
)",
                              "mux4");
  Simulator sim(n);
  const char* names[] = {"a", "b", "c", "d"};
  for (int sel = 0; sel < 4; ++sel) {
    sim.set_input_by_name("sel_0", sel & 1);
    sim.set_input_by_name("sel_1", (sel >> 1) & 1);
    for (int i = 0; i < 4; ++i) sim.set_input_by_name(names[i], i == sel);
    sim.propagate();
    EXPECT_TRUE(sim.value(n.find_signal("y"))) << sel;
    for (int i = 0; i < 4; ++i) sim.set_input_by_name(names[i], i != sel);
    sim.propagate();
    EXPECT_FALSE(sim.value(n.find_signal("y"))) << sel;
  }
}

TEST(Synth, ConditionalAndSelectedAssigns) {
  Network n = synthesize_vhdl(R"(
entity sel is
  port ( s : in std_logic_vector(1 downto 0);
         a, b : in std_logic;
         y, z : out std_logic );
end sel;
architecture rtl of sel is
begin
  y <= a when s = "00" else
       b when s = "01" else
       '0';
  with s select
    z <= a when "10",
         b when "01" | "11",
         '1' when others;
end rtl;
)",
                              "sel");
  Simulator sim(n);
  auto run = [&](int s, bool a, bool b) {
    sim.set_input_by_name("s_0", s & 1);
    sim.set_input_by_name("s_1", (s >> 1) & 1);
    sim.set_input_by_name("a", a);
    sim.set_input_by_name("b", b);
    sim.propagate();
  };
  run(0, true, false);
  EXPECT_TRUE(sim.value(n.find_signal("y")));
  EXPECT_TRUE(sim.value(n.find_signal("z")));  // others → '1'
  run(1, false, true);
  EXPECT_TRUE(sim.value(n.find_signal("y")));   // b
  EXPECT_TRUE(sim.value(n.find_signal("z")));   // b
  run(2, false, true);
  EXPECT_FALSE(sim.value(n.find_signal("y")));  // else '0'
  EXPECT_FALSE(sim.value(n.find_signal("z")));  // a = 0
  run(3, true, false);
  EXPECT_FALSE(sim.value(n.find_signal("z")));  // b = 0
}

TEST(Synth, HierarchicalInstantiation) {
  Network n = synthesize_vhdl(R"(
entity half_adder is
  port ( a, b : in std_logic; s, c : out std_logic );
end half_adder;
architecture rtl of half_adder is
begin
  s <= a xor b;
  c <= a and b;
end rtl;

entity full_adder is
  port ( x, y, cin : in std_logic; sum, cout : out std_logic );
end full_adder;
architecture structural of full_adder is
  signal s1, c1, c2 : std_logic;
begin
  u1 : entity work.half_adder port map ( a => x, b => y, s => s1, c => c1 );
  u2 : entity work.half_adder port map ( a => s1, b => cin, s => sum, c => c2 );
  cout <= c1 or c2;
end structural;
)",
                              "full_adder");
  Simulator sim(n);
  for (int v = 0; v < 8; ++v) {
    sim.set_input_by_name("x", v & 1);
    sim.set_input_by_name("y", (v >> 1) & 1);
    sim.set_input_by_name("cin", (v >> 2) & 1);
    sim.propagate();
    int total = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
    EXPECT_EQ(sim.value(n.find_signal("sum")), total & 1) << v;
    EXPECT_EQ(sim.value(n.find_signal("cout")), (total >> 1) & 1) << v;
  }
}

TEST(Synth, ComparisonOperators) {
  Network n = synthesize_vhdl(R"(
entity cmp is
  port ( a : in std_logic_vector(3 downto 0);
         lt, ge, eq : out std_logic );
end cmp;
architecture rtl of cmp is
begin
  lt <= '1' when a < 5 else '0';
  ge <= '1' when a >= 10 else '0';
  eq <= '1' when a = 7 else '0';
end rtl;
)",
                              "cmp");
  Simulator sim(n);
  for (int a = 0; a < 16; ++a) {
    for (int i = 0; i < 4; ++i) {
      sim.set_input_by_name("a_" + std::to_string(i), (a >> i) & 1);
    }
    sim.propagate();
    EXPECT_EQ(sim.value(n.find_signal("lt")), a < 5) << a;
    EXPECT_EQ(sim.value(n.find_signal("ge")), a >= 10) << a;
    EXPECT_EQ(sim.value(n.find_signal("eq")), a == 7) << a;
  }
}

TEST(Synth, LatchInferenceRejected) {
  EXPECT_THROW(synthesize_vhdl(R"(
entity bad is
  port ( c, a : in std_logic; y : out std_logic );
end bad;
architecture rtl of bad is
begin
  process(c, a)
  begin
    if c = '1' then
      y <= a;
    end if;
  end process;
end rtl;
)",
                               "bad"),
               ParseError);
}

TEST(Synth, AssignToInputRejected) {
  EXPECT_THROW(synthesize_vhdl(R"(
entity bad2 is
  port ( a : in std_logic; y : out std_logic );
end bad2;
architecture rtl of bad2 is
begin
  a <= '1';
  y <= a;
end rtl;
)",
                               "bad2"),
               ParseError);
}

TEST(Synth, RoundTripThroughBlif) {
  Network n = synthesize_vhdl(kCounter, "counter");
  std::string blif = netlist::write_blif_string(n);
  Network n2 = netlist::read_blif_string(blif);
  auto r = netlist::check_equivalence(n, n2);
  EXPECT_TRUE(r.equivalent) << r.message;
}

}  // namespace
}  // namespace amdrel::vhdl
