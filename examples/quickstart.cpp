// Quickstart: the complete AMDREL flow on a small VHDL design.
//
//   $ ./examples/quickstart [artifact_dir]
//
// Synthesizes a 4-bit counter from VHDL, maps it to the paper's K=4/N=5
// CLB architecture, places, routes, estimates power/timing, generates the
// configuration bitstream, and verifies the programmed fabric is
// bit-exactly equivalent to the input design.

#include <cstdio>
#include <string>

#include "flow/jobspec.hpp"
#include "flow/session.hpp"

namespace {

const char* kCounterVhdl = R"(
library ieee;
use ieee.std_logic_1164.all;

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

}  // namespace

int main(int argc, char** argv) {
  amdrel::flow::JobSpec job;
  job.source = amdrel::flow::JobSpec::Source::kVhdl;
  job.text = kCounterVhdl;
  job.top = "counter";
  // Random vectors plus the formal proof at every hand-off.
  job.options.verify_mode = amdrel::flow::VerifyMode::kBoth;
  job.options.search_min_channel_width = true;
  if (argc > 1) job.options.artifact_dir = argv[1];

  std::printf("AMDREL quickstart: VHDL counter -> bitstream\n\n");
  try {
    amdrel::flow::FlowSession session(job);
    session.run_until(job.until);
    std::printf("%s\n", session.result().report().c_str());
    std::printf("all stage equivalence checks passed "
                "(synthesis = EDIF = BLIF = bitstream fabric)\n");
    if (argc > 1) {
      std::printf("artifacts written to %s (.edif .blif .net .arch .bit)\n",
                  argv[1]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flow failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
