// Domain example: a traffic-light controller FSM written in behavioural
// VHDL, implemented on the AMDREL fabric, then *executed from its
// bitstream*: the decoded fabric netlist is simulated cycle by cycle and
// the light sequence printed — demonstrating that the programmed FPGA
// behaves like the source design.

#include <cstdio>

#include "bitgen/bitstream.hpp"
#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "netlist/simulate.hpp"

namespace {

const char* kTrafficVhdl = R"(
entity traffic is
  port ( clk     : in std_logic;
         rst     : in std_logic;
         request : in std_logic;                      -- pedestrian button
         lights  : out std_logic_vector(2 downto 0)   -- R, Y, G
       );
end traffic;

architecture rtl of traffic is
  signal state : std_logic_vector(1 downto 0);  -- 00 G, 01 Y, 10 R, 11 RY
  signal timer : std_logic_vector(2 downto 0);
begin
  process(clk, rst)
  begin
    if rst = '1' then
      state <= "00";
      timer <= "000";
    elsif rising_edge(clk) then
      if timer = 0 then
        case state is
          when "00" =>
            if request = '1' then
              state <= "01";
              timer <= "001";
            end if;
          when "01" =>
            state <= "10";
            timer <= "011";
          when "10" =>
            state <= "11";
            timer <= "001";
          when others =>
            state <= "00";
            timer <= "000";
        end case;
      else
        timer <= timer - 1;
      end if;
    end if;
  end process;

  with state select
    lights <= "001" when "00",   -- green
              "010" when "01",   -- yellow
              "100" when "10",   -- red
              "110" when others; -- red+yellow
end rtl;
)";

const char* light_name(int bits) {
  switch (bits) {
    case 0b001: return "GREEN";
    case 0b010: return "YELLOW";
    case 0b100: return "RED";
    case 0b110: return "RED+YELLOW";
    default: return "?";
  }
}

}  // namespace

int main() {
  using namespace amdrel;
  std::printf("traffic-light FSM on the AMDREL FPGA\n\n");

  flow::JobSpec job;
  job.source = flow::JobSpec::Source::kVhdl;
  job.text = kTrafficVhdl;
  job.top = "traffic";
  // The default compile proves every hand-off formally (verify=formal).
  flow::FlowSession session(job);
  session.run_until(job.until);
  const flow::FlowResult& result = session.result();
  std::printf("%s\n", result.report().c_str());

  // Execute the *bitstream*: decode the configuration back into a fabric
  // netlist and clock it.
  netlist::Network fabric = bitgen::decode_to_network(result.bitstream);
  netlist::Simulator sim(fabric);
  auto set = [&](const char* name, bool v) { sim.set_input_by_name(name, v); };
  auto lights = [&]() {
    int v = 0;
    for (int i = 0; i < 3; ++i) {
      if (sim.value(fabric.find_signal("lights_" + std::to_string(i)))) {
        v |= 1 << i;
      }
    }
    return v;
  };

  set("rst", true);
  set("request", false);
  sim.propagate();
  sim.step_clock();
  set("rst", false);

  std::printf("cycle  button  lights (executed from the bitstream)\n");
  for (int cycle = 0; cycle < 16; ++cycle) {
    bool button = cycle == 2;
    set("request", button);
    sim.propagate();
    std::printf("%5d  %6s  %s\n", cycle, button ? "press" : "-",
                light_name(lights()));
    sim.step_clock();
  }
  return 0;
}
