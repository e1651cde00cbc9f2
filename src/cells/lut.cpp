#include "cells/lut.hpp"

#include <cmath>

#include "cells/primitives.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::cells {

using spice::Circuit;
using spice::kGround;
using spice::MosType;
using spice::NodeId;
using spice::TransientOptions;
using spice::TransientSim;
using spice::Waveform;

LutPorts add_lut(Circuit& c, const std::string& prefix, NodeId vdd, int k,
                 std::uint32_t truth_table) {
  AMDREL_CHECK(k >= 1 && k <= 5);
  const double w = c.tech().w_min_um;

  LutPorts ports;
  for (int i = 0; i < k; ++i) {
    NodeId in = c.node(strprintf("%s.in%d", prefix.c_str(), i));
    NodeId inb = c.node(strprintf("%s.inb%d", prefix.c_str(), i));
    add_inverter(c, strprintf("%s.cinv%d", prefix.c_str(), i), vdd, in, inb,
                 w);
    ports.inputs.push_back(in);
    ports.inputs_b.push_back(inb);
  }

  // Leaves: memory cells as static rail ties.
  const int n_leaves = 1 << k;
  std::vector<NodeId> level;
  for (int i = 0; i < n_leaves; ++i) {
    const bool bit = (truth_table >> i) & 1;
    level.push_back(bit ? vdd : kGround);
  }

  // Mux tree: level j collapses pairs differing in input j (LSB first).
  for (int j = 0; j < k; ++j) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      NodeId m = c.node(strprintf("%s.m%d_%zu", prefix.c_str(), j, i / 2));
      // input j = 0 selects level[i], = 1 selects level[i+1].
      c.add_mosfet(strprintf("%s.t%d_%zu", prefix.c_str(), j, i),
                   MosType::kNmos, level[i], ports.inputs_b[static_cast<std::size_t>(j)], m, w);
      c.add_mosfet(strprintf("%s.t%d_%zu", prefix.c_str(), j, i + 1),
                   MosType::kNmos, level[i + 1], ports.inputs[static_cast<std::size_t>(j)], m, w);
      next.push_back(m);
    }
    level = std::move(next);
  }
  NodeId tree_out = level[0];

  // Output: level-restoring buffer (inverter + weak PMOS feedback pulling
  // the degraded pass-transistor '1' back to the rail) + output inverter.
  NodeId inv1 = c.node(prefix + ".inv1");
  add_inverter(c, prefix + ".obuf1", vdd, tree_out, inv1, w);
  c.add_mosfet(prefix + ".restore", MosType::kPmos, tree_out, inv1, vdd, w,
               /*l_um=*/1.0);
  ports.out = c.node(prefix + ".out");
  add_inverter(c, prefix + ".obuf2", vdd, inv1, ports.out, 2 * w);
  return ports;
}

LutMetrics characterize_lut4(const process::Tech018& tech) {
  // XOR-style truth table: output toggles on every input change — the
  // worst case for energy, the standard case for delay.
  std::uint32_t tt = 0;
  for (int i = 0; i < 16; ++i) {
    int ones = __builtin_popcount(static_cast<unsigned>(i));
    if (ones & 1) tt |= (1u << i);
  }

  Circuit c(tech);
  NodeId vdd = c.node("vdd");
  c.add_vsource("vdd", vdd, kGround, Waveform::dc(tech.vdd));
  LutPorts lut = add_lut(c, "lut", vdd, 4, tt);

  // Drive input 3 (deepest from the leaves → worst delay); others static.
  const double period = 4e-9;
  const double ramp = 50e-12;
  c.add_vsource("vin", lut.inputs[3], kGround,
                Waveform::pulse(0, tech.vdd, period / 4, ramp, ramp,
                                period / 2 - ramp, period));
  for (int i = 0; i < 3; ++i) {
    c.add_vsource(strprintf("vk%d", i),
                  lut.inputs[static_cast<std::size_t>(i)], kGround,
                  Waveform::dc(0.0));
  }
  c.add_capacitor("cl", lut.out, kGround, 10e-15);

  TransientSim sim(c);
  TransientOptions topt;
  topt.t_stop = 2 * period;
  topt.dt = 2e-12;
  auto res = sim.run(topt);

  const double t_rise_in = period / 4 + ramp / 2 + period;
  const double t_fall_in = 3 * period / 4 + ramp / 2 + period;
  // With i3 the only toggling input and an odd-parity table, out follows i3
  // inverted or not depending on the static inputs (here: out = i3 parity →
  // rises with i3).
  double d1 = res.delay_from(t_rise_in, lut.out, tech.vdd / 2, true);
  double d2 = res.delay_from(t_fall_in, lut.out, tech.vdd / 2, false);
  AMDREL_CHECK_MSG(d1 > 0 && d2 > 0, "LUT output did not toggle");

  LutMetrics m{};
  m.delay_s = std::max(d1, d2);
  // Two output toggles per period; second period only (settled).
  m.energy_per_toggle_j = res.energy_from("vdd") / 2.0 / 2.0;
  m.input_cap_f =
      tech.gate_cap(tech.nmos, tech.w_min_um) * 8 +  // tree gates on in3...
      tech.gate_cap(tech.nmos, tech.w_min_um) * 2;   // ...plus the c-inverter
  return m;
}

}  // namespace amdrel::cells
