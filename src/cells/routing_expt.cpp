#include "cells/routing_expt.hpp"

#include <algorithm>
#include <cmath>
#include <string>

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

namespace {

/// Area charged per routing switch for its SRAM configuration cell [µm²]
/// (6T cell in 0.18 µm).
constexpr double kSramCellArea = 8.0;

constexpr double kRamp = 50e-12;

/// Adds the junction capacitance an off-state pass switch of width w hangs
/// on `node` (drain diffusion of the off device).
void add_off_switch_stub(Circuit& c, NodeId node, double w_um) {
  const auto& tech = c.tech();
  c.add_cap_to_ground(node, tech.junction_cap(tech.nmos, w_um));
}

struct BuiltExperiment {
  Circuit circuit;
  NodeId out;
  double switch_area = 0.0;
  int n_config_cells = 0;
  int n_segments = 0;
};

BuiltExperiment build(const RoutingExptOptions& options,
                      const process::Tech018& tech, double period) {
  const int n_segments = options.n_segments;
  const auto wire = tech.wire(options.wire_width, options.wire_spacing);
  const double w_sw = options.switch_width_x * tech.w_min_um;
  const double vdd_v = tech.vdd;

  BuiltExperiment b{Circuit(tech), 0, 0.0, 0, n_segments};
  Circuit& c = b.circuit;
  NodeId vdd = c.node("vdd");
  NodeId in = c.node("in");
  c.add_vsource("vdd", vdd, kGround, Waveform::dc(vdd_v));
  c.add_vsource("vin", in, kGround,
                Waveform::pulse(0, vdd_v, period / 4, kRamp, kRamp,
                                period / 2 - kRamp, period));

  // CLB output buffer: 2-stage tapered driver.
  NodeId drv = add_buffer_chain(c, "drv", vdd, in, 2, 1.12, 6.0);

  // Output-pin pass transistor onto the first track (same size as routing
  // switches, per the paper).
  NodeId track0 = c.node("track0");
  c.add_mosfet("opin", MosType::kNmos, drv, vdd, track0, w_sw);
  b.switch_area += tech.transistor_area_um2(w_sw);
  ++b.n_config_cells;

  // Build the chain of segments.
  NodeId seg_head = track0;
  NodeId tail = track0;
  for (int s = 0; s < n_segments; ++s) {
    if (s > 0) {
      // Routing switch joining the previous segment to this one.
      NodeId head = c.node(strprintf("track%d", s));
      if (options.style == SwitchStyle::kPassTransistor) {
        c.add_mosfet(strprintf("sw%d", s), MosType::kNmos, tail, vdd, head,
                     w_sw);
        b.switch_area += tech.transistor_area_um2(w_sw);
        ++b.n_config_cells;
      } else {
        // Pair of two-stage tri-state buffers, one per direction; only the
        // forward one is enabled. First stage: minimum-width inverter
        // (logic threshold adjustment, §3.3.2); second: tri-state of the
        // swept width.
        const std::string p = strprintf("buf%d", s);
        NodeId mid = c.node(p + ".mid");
        add_inverter(c, p + ".in", vdd, tail, mid, tech.w_min_um);
        add_tristate_inverter(c, p + ".out", vdd, mid, head, vdd, kGround,
                              TriStateType::kClockedAtOutput, w_sw);
        NodeId rmid = c.node(p + ".rmid");
        add_inverter(c, p + ".rin", vdd, head, rmid, tech.w_min_um);
        add_tristate_inverter(c, p + ".rout", vdd, rmid, tail, kGround, vdd,
                              TriStateType::kClockedAtOutput, w_sw);
        b.switch_area +=
            2 * (2 * tech.transistor_area_um2(tech.w_min_um) +
                 2 * tech.transistor_area_um2(w_sw) +
                 2 * tech.transistor_area_um2(w_sw * kPnRatio));
        b.n_config_cells += 2;
      }
      seg_head = head;
    }

    // Wire of this segment: one RC π per spanned tile. With Fc = 1 each
    // CLB pin touches a single track, so one wire sees one output-pin
    // switch and one connection-box switch per segment (not per tile).
    NodeId prev = seg_head;
    for (int t = 0; t < options.wire_length; ++t) {
      NodeId next = c.node(strprintf("w%d_%d", s, t));
      const double tile_um = tech.clb_tile_span_um;
      c.add_resistor(strprintf("rw%d_%d", s, t), prev, next,
                     wire.r_per_um * tile_um);
      const double cw = wire.c_per_um * tile_um;
      c.add_cap_to_ground(prev, cw / 2);
      c.add_cap_to_ground(next, cw / 2);
      prev = next;
    }
    tail = prev;
    add_off_switch_stub(c, seg_head, w_sw);  // CLB output pin (off)
    add_off_switch_stub(c, tail, w_sw);      // connection box (off)
    b.switch_area += 2 * tech.transistor_area_um2(w_sw);
    b.n_config_cells += 2;

    // Disjoint switch box at the segment end: Fs=3 → two additional off
    // switches hang on the wire end (the third is the on-path switch).
    add_off_switch_stub(c, tail, w_sw);
    add_off_switch_stub(c, tail, w_sw);
    b.switch_area += 2 * tech.transistor_area_um2(w_sw);
    b.n_config_cells += 2;
  }

  // Receiver: connection-box pass transistor into the CLB input buffer,
  // with a weak level-restoring PMOS recovering the degraded pass-
  // transistor '1' (standard island-style input circuitry).
  NodeId rx_in = c.node("rx_in");
  c.add_mosfet("cbox", MosType::kNmos, tail, vdd, rx_in, w_sw);
  b.switch_area += tech.transistor_area_um2(w_sw);
  ++b.n_config_cells;
  NodeId rx1 = c.node("rx1");
  add_inverter(c, "rxinv1", vdd, rx_in, rx1, 0.56);
  // Drawn long so the worst-case pull-down path (minimum-width switches in
  // series) still overpowers it.
  c.add_mosfet("rxrestore", MosType::kPmos, rx_in, rx1, vdd, 0.28,
               /*l_um=*/1.44);
  b.out = c.node("rx_out");
  add_inverter(c, "rxinv2", vdd, rx1, b.out, 1.12);
  return b;
}

}  // namespace

RoutingExptResult run_routing_experiment(const RoutingExptOptions& options,
                                         const process::Tech018& tech) {
  AMDREL_CHECK(options.n_segments >= 1);
  AMDREL_CHECK(options.wire_length >= 1);
  AMDREL_CHECK(options.switch_width_x >= 1.0);

  // Slow configurations (minimum-width switches on long wires) need a wider
  // stimulus period to settle; stretch and retry until the output switches.
  double period = options.period;
  double d_rise = -1, d_fall = -1, energy = 0, area = 0;
  for (int attempt = 0; attempt < 4; ++attempt, period *= 3) {
    BuiltExperiment b = build(options, tech, period);

    TransientSim sim(b.circuit, options.solver);
    TransientOptions topt;
    topt.t_stop = 2.0 * period;
    topt.dt = std::max(options.dt, period / 4000.0);
    topt.record = true;
    auto res = sim.run(topt);

    // Input edges (mid-swing) in the second cycle.
    const double t_rise_in = period / 4 + kRamp / 2 + period;
    const double t_fall_in = 3 * period / 4 + kRamp / 2 + period;
    // The receiver chain is non-inverting end to end.
    d_rise = res.delay_from(t_rise_in, b.out, tech.vdd / 2, true);
    d_fall = res.delay_from(t_fall_in, b.out, tech.vdd / 2, false);
    energy = res.energy_from("vdd") / 2.0;  // per cycle

    const auto wire = tech.wire(options.wire_width, options.wire_spacing);
    area = b.switch_area + kSramCellArea * b.n_config_cells +
           wire.pitch_um * options.wire_length * tech.clb_tile_span_um *
               b.n_segments;
    if (d_rise > 0 && d_fall > 0) break;
  }
  AMDREL_CHECK_MSG(d_rise > 0 && d_fall > 0,
                   "routing experiment: output did not switch");

  RoutingExptResult r{};
  r.delay_s = std::max(d_rise, d_fall);
  r.energy_j = energy;
  r.area_um2 = area;
  r.eda = r.delay_s * r.energy_j * r.area_um2;
  return r;
}

}  // namespace amdrel::cells
