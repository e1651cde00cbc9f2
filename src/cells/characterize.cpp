#include "cells/characterize.hpp"

#include <cmath>
#include <iterator>

#include "cells/detff.hpp"
#include "cells/primitives.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace amdrel::cells {

using spice::Circuit;
using spice::kGround;
using spice::NodeId;
using spice::TransientOptions;
using spice::TransientSim;
using spice::Waveform;

namespace {

/// Clock edge times (mid-swing) for a pulse clock with the given period,
/// first rising edge at period/2. rise/fall are 50 ps.
struct ClockPlan {
  Waveform wave;
  std::vector<double> edges;        ///< mid-swing times, alternating r/f
  std::vector<bool> edge_is_rising;
};

constexpr double kEdgeRamp = 50e-12;

ClockPlan make_clock(double period, int n_cycles, double vdd) {
  ClockPlan plan;
  const double width = period / 2 - kEdgeRamp;
  plan.wave = Waveform::pulse(0, vdd, period / 2, kEdgeRamp, kEdgeRamp, width,
                              period);
  for (int k = 0; k < n_cycles; ++k) {
    const double rise_mid = period / 2 + k * period + kEdgeRamp / 2;
    const double fall_mid =
        period / 2 + k * period + kEdgeRamp + width + kEdgeRamp / 2;
    plan.edges.push_back(rise_mid);
    plan.edge_is_rising.push_back(true);
    plan.edges.push_back(fall_mid);
    plan.edge_is_rising.push_back(false);
  }
  return plan;
}

/// D toggles a quarter period before every clock edge, so each edge captures
/// a fresh value and Q transitions on every edge (the paper's Fig-4 style
/// "all combinations" stimulus).
Waveform make_data(double period, int n_cycles, double vdd) {
  std::vector<std::pair<double, double>> pts;
  pts.push_back({0.0, 0.0});
  double level = 0.0;
  // Edges at period/2 + k*period/2; D toggles at period/4 + k*period/2.
  for (int k = 0; k <= 2 * n_cycles + 1; ++k) {
    const double t = period / 4 + k * (period / 2);
    pts.push_back({t, level});
    level = (level == 0.0) ? vdd : 0.0;
    pts.push_back({t + kEdgeRamp, level});
  }
  return Waveform::pwl(std::move(pts));
}

}  // namespace

DetffMetrics characterize_detff(DetffKind kind,
                                const DetffBenchOptions& options,
                                const process::Tech018& tech) {
  Circuit c(tech);
  const double vdd_v = tech.vdd;
  NodeId vdd = c.node("vdd");
  NodeId clk = c.node("clk");
  NodeId d = c.node("d");
  NodeId q = c.node("q");
  c.add_vsource("vdd", vdd, kGround, Waveform::dc(vdd_v));

  ClockPlan clock = make_clock(options.clock_period, options.n_cycles, vdd_v);
  c.add_vsource("vclk", clk, kGround, clock.wave);
  c.add_vsource("vd", d, kGround,
                make_data(options.clock_period, options.n_cycles, vdd_v));

  add_detff(c, "ff", vdd, kind, d, clk, q);
  c.add_capacitor("cload", q, kGround, options.load_fF * 1e-15);

  const int devices = static_cast<int>(c.mosfets().size());
  const double area = c.device_area_um2();

  TransientSim sim(c, options.solver);
  TransientOptions topt;
  topt.t_stop = (options.n_cycles + 0.5) * options.clock_period;
  topt.dt = options.dt;
  auto res = sim.run(topt);

  // Data source sampled value at each edge = expected Q after that edge.
  Waveform dwave = make_data(options.clock_period, options.n_cycles, vdd_v);

  DetffMetrics m{};
  m.kind = kind;
  m.transistors = devices;
  m.area_um2 = area;
  m.energy_j = res.energy_from("vdd");
  m.functional = true;
  m.delay_s = 0.0;

  const double half = options.clock_period / 2;
  for (std::size_t e = 0; e < clock.edges.size(); ++e) {
    const double te = clock.edges[e];
    if (te + half > topt.t_stop) break;
    const double expected = dwave.at(te);
    const bool q_rising = expected > vdd_v / 2;

    // Functional check: Q settled to the captured value before next edge.
    const double t_sample = te + 0.85 * half;
    std::size_t ks = static_cast<std::size_t>(t_sample / topt.dt);
    if (ks >= res.time.size()) ks = res.time.size() - 1;
    const double vq = res.v(q, ks);
    const bool ok = q_rising ? (vq > 0.75 * vdd_v) : (vq < 0.25 * vdd_v);
    if (!ok) m.functional = false;

    // CLK→Q delay for edges where Q changes (it changes on every edge with
    // this stimulus except possibly the very first).
    if (e == 0) continue;
    const double delay = res.delay_from(te, q, vdd_v / 2, q_rising);
    if (delay > 0 && delay < half) m.delay_s = std::max(m.delay_s, delay);
  }
  m.edp = m.energy_j * m.delay_s;
  return m;
}

std::vector<DetffMetrics> characterize_all_detffs(
    const DetffBenchOptions& options, const process::Tech018& tech) {
  std::vector<DetffMetrics> out(std::size(kAllDetffs));
  parallel_for(
      std::size(kAllDetffs),
      [&](std::size_t i) {
        out[i] = characterize_detff(kAllDetffs[i], options, tech);
      },
      static_cast<std::size_t>(options.n_threads));
  return out;
}

namespace {

/// Shared BLE clock-path testbench (Fig 5). `gated` selects NAND vs plain
/// inverter as the final clock stage; returns supply energy per clock cycle.
double ble_clock_energy(bool gated, bool enabled,
                        const DetffBenchOptions& options,
                        const process::Tech018& tech) {
  Circuit c(tech);
  const double vdd_v = tech.vdd;
  NodeId vdd = c.node("vdd");
  NodeId clk = c.node("clk");
  NodeId d = c.node("d");
  NodeId q = c.node("q");
  c.add_vsource("vdd", vdd, kGround, Waveform::dc(vdd_v));

  ClockPlan clock = make_clock(options.clock_period, options.n_cycles, vdd_v);
  c.add_vsource("vclk", clk, kGround, clock.wave);
  c.add_vsource("vd", d, kGround,
                make_data(options.clock_period, options.n_cycles, vdd_v));

  // Driver chain (the paper's shaded inverters): isolates the clock source
  // so the final stage's input capacitance is charged from vdd.
  NodeId drv = add_buffer_chain(c, "drv", vdd, clk, 2, 0.28, 2.0);

  NodeId ffclk = c.node("ffclk");
  if (gated) {
    NodeId en = c.node("en");
    c.add_vsource("ven", en, kGround, Waveform::dc(enabled ? vdd_v : 0.0));
    NodeId nand_out = c.node("nand_out");
    add_nand2(c, "gate", vdd, drv, en, nand_out, 0.42);
    add_inverter(c, "gateinv", vdd, nand_out, ffclk, 0.42);
  } else {
    // Matched two-inverter final stage (same polarity as the gated path).
    NodeId inv_out = c.node("inv_out");
    add_inverter(c, "stage", vdd, drv, inv_out, 0.42);
    add_inverter(c, "stageinv", vdd, inv_out, ffclk, 0.42);
  }

  add_detff(c, "ff", vdd, DetffKind::kLlopis1, d, ffclk, q);
  c.add_capacitor("cload", q, kGround, options.load_fF * 1e-15);

  TransientSim sim(c, options.solver);
  TransientOptions topt;
  topt.t_stop = (options.n_cycles + 0.5) * options.clock_period;
  topt.dt = options.dt;
  topt.record = false;
  auto res = sim.run(topt);
  return res.energy_from("vdd") / options.n_cycles;
}

}  // namespace

BleClockEnergy measure_ble_clock_gating(const DetffBenchOptions& options,
                                        const process::Tech018& tech) {
  BleClockEnergy e{};
  double* slots[] = {&e.single_clock_j, &e.gated_enabled_j,
                     &e.gated_disabled_j};
  const bool gated[] = {false, true, true};
  const bool enabled[] = {true, true, false};
  parallel_for(
      3,
      [&](std::size_t i) {
        *slots[i] = ble_clock_energy(gated[i], enabled[i], options, tech);
      },
      static_cast<std::size_t>(options.n_threads));
  return e;
}

namespace {

/// CLB local clock network testbench (Fig 6). Five BLE taps hang on a local
/// clock wire; each tap is a BLE-level gating NAND + inverter driving the
/// FF clock-pin capacitance. `clb_gated` inserts the CLB-level NAND at the
/// root. Returns supply energy per clock cycle.
double clb_clock_energy(bool clb_gated, int n_ffs_on,
                        const DetffBenchOptions& options,
                        const process::Tech018& tech) {
  constexpr int kBles = 5;
  AMDREL_CHECK(n_ffs_on >= 0 && n_ffs_on <= kBles);
  Circuit c(tech);
  const double vdd_v = tech.vdd;
  NodeId vdd = c.node("vdd");
  NodeId clk = c.node("clk");
  c.add_vsource("vdd", vdd, kGround, Waveform::dc(vdd_v));
  ClockPlan clock = make_clock(options.clock_period, options.n_cycles, vdd_v);
  c.add_vsource("vclk", clk, kGround, clock.wave);

  NodeId en_on = c.node("en_on");
  NodeId en_off = c.node("en_off");
  c.add_vsource("ven_on", en_on, kGround, Waveform::dc(vdd_v));
  c.add_vsource("ven_off", en_off, kGround, Waveform::dc(0.0));

  // Driver chain isolating the source, then the root stage.
  NodeId drv = add_buffer_chain(c, "drv", vdd, clk, 2, 0.28, 2.0);
  NodeId root_out = c.node("root_out");
  if (clb_gated) {
    // CLB enable = "any FF on".
    NodeId nand_out = c.node("clbnand_out");
    add_nand2(c, "clbgate", vdd, drv, n_ffs_on > 0 ? en_on : en_off, nand_out,
              0.84);
    add_inverter(c, "clbinv", vdd, nand_out, root_out, 0.84);
  } else {
    NodeId inv_out = c.node("rootinv_out");
    add_inverter(c, "root1", vdd, drv, inv_out, 0.84);
    add_inverter(c, "root2", vdd, inv_out, root_out, 0.84);
  }

  // Local clock wire: kBles segments of 6 µm metal-3 (min width, min
  // spacing), π model per segment; one BLE tap at each segment end.
  const auto wire = tech.wire(process::WireWidth::kMinimum,
                              process::WireSpacing::kMinimum);
  const double seg_um = 6.0;

  // FF clock-pin capacitance measured from a reference instance.
  double c_ffpin;
  {
    Circuit probe(tech);
    NodeId pvdd = probe.node("vdd");
    probe.add_vsource("vdd", pvdd, kGround, Waveform::dc(vdd_v));
    NodeId pd = probe.node("d"), pclk = probe.node("clk"), pq = probe.node("q");
    add_detff(probe, "ff", pvdd, DetffKind::kLlopis1, pd, pclk, pq);
    c_ffpin = detff_clock_pin_cap(probe, "ff", pclk);
  }

  NodeId prev = root_out;
  for (int b = 0; b < kBles; ++b) {
    NodeId tap = c.node(strprintf("tap%d", b));
    c.add_resistor(strprintf("rw%d", b), prev, tap,
                   wire.r_per_um * seg_um);
    const double cw = wire.c_per_um * seg_um;
    c.add_cap_to_ground(prev, cw / 2);
    c.add_cap_to_ground(tap, cw / 2);

    const bool on = b < n_ffs_on;
    NodeId bout = c.node(strprintf("bgate%d", b));
    NodeId bclk = c.node(strprintf("bclk%d", b));
    add_nand2(c, strprintf("blegate%d", b), vdd, tap, on ? en_on : en_off,
              bout, 0.28);
    add_inverter(c, strprintf("bleinv%d", b), vdd, bout, bclk, 0.28);
    c.add_cap_to_ground(bclk, c_ffpin);
    prev = tap;
  }

  TransientSim sim(c, options.solver);
  TransientOptions topt;
  topt.t_stop = (options.n_cycles + 0.5) * options.clock_period;
  topt.dt = options.dt;
  topt.record = false;
  auto res = sim.run(topt);
  return res.energy_from("vdd") / options.n_cycles;
}

}  // namespace

std::vector<ClbClockEnergy> measure_clb_clock_gating(
    const DetffBenchOptions& options, const process::Tech018& tech) {
  const int n_on_cases[] = {0, 1, 5};
  std::vector<ClbClockEnergy> rows(std::size(n_on_cases));
  // 3 conditions x {single, gated} = 6 independent testbench runs.
  parallel_for(
      2 * rows.size(),
      [&](std::size_t i) {
        const std::size_t row = i / 2;
        const bool gated = (i % 2) != 0;
        const int n_on = n_on_cases[row];
        const double e = clb_clock_energy(gated, n_on, options, tech);
        rows[row].n_ffs_on = n_on;
        (gated ? rows[row].gated_clock_j : rows[row].single_clock_j) = e;
      },
      static_cast<std::size_t>(options.n_threads));
  return rows;
}

}  // namespace amdrel::cells
