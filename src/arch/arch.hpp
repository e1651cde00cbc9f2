#pragma once
// DUTYS — FPGA architecture description for the paper's island-style
// platform, plus the architecture-file generator/parser.
//
// Defaults encode the CLB selected in §3 of the paper: clusters of N=5
// BLEs with K=4 LUTs, I=12 CLB inputs (Eq. 1), fully connected local
// crossbar (17:1 per LUT input), one clock + one asynchronous clear per
// CLB, DETFFs with BLE- and CLB-level clock gating; routing uses
// single-length segments joined by pass transistors of 10× minimum width
// in a disjoint switch box (Fs=3) with Fc=1 connection boxes.

#include <iosfwd>
#include <string>

namespace amdrel::arch {

struct ArchSpec {
  std::string name = "amdrel_clb5_lut4";

  // --- CLB (paper §3.1) ---
  int k = 4;             ///< LUT inputs
  int n = 5;             ///< BLEs per CLB (cluster size)
  bool gated_clock_ble = true;
  bool gated_clock_clb = true;

  /// CLB input count per the paper's Eq. (1): I = (K/2)·(N+1).
  int cluster_inputs() const { return (k / 2) * (n + 1); }
  /// Local crossbar mux width per LUT input: I + N feedbacks → 17:1.
  int local_mux_inputs() const { return cluster_inputs() + n; }

  // --- routing (paper §3.3) ---
  int channel_width = 16;     ///< tracks per channel (W)
  int segment_length = 1;     ///< logical wire length (paper selects 1)
  int fs = 3;                 ///< switch box flexibility (disjoint)
  double fc_in = 1.0;         ///< connection box flexibility, inputs
  double fc_out = 1.0;        ///< connection box flexibility, outputs
  double switch_width_x = 10; ///< routing pass transistor W / Wmin

  // --- IO ---
  int io_per_tile = 2;        ///< pad capacity of one perimeter tile

  // --- timing model (derived from the cells characterization, see
  //     src/cells; values are per the 0.18 µm process substitute) ---
  double t_lut = 0.45e-9;        ///< LUT delay [s]
  double t_local_mux = 0.12e-9;  ///< CLB local crossbar mux [s]
  double t_ff_clk_q = 0.31e-9;   ///< DETFF clock→Q [s] (Llopis1)
  double t_ff_setup = 0.10e-9;   ///< setup time [s]
  double r_switch = 2.8e3 / 10;  ///< routing switch on-resistance [ohm]
  double c_switch = 2.5e-15;     ///< switch junction cap on the wire [F]
  double r_wire_tile = 32.0;     ///< wire resistance per tile span [ohm]
  double c_wire_tile = 18e-15;   ///< wire capacitance per tile span [F]
  double t_io = 0.5e-9;          ///< pad delay [s]
};

/// Computes the smallest square CLB grid (nx == ny) that fits
/// `n_clusters` CLBs and `n_ios` perimeter pads.
struct GridSize {
  int nx = 1;
  int ny = 1;
};
GridSize size_grid(const ArchSpec& spec, int n_clusters, int n_ios);

/// Writes/reads the DUTYS architecture file (a documented key/value
/// format; every field of ArchSpec round-trips). The reader takes each
/// value whole and in range — K in [2, 8]; N, segment length, Fs and
/// pads per tile in [1, 64]; W in [2, 1024]; the clock-gating flags 0
/// or 1; 0 < Fc ≤ 1; a finite, positive switch width; finite,
/// non-negative delays, R and C — and throws ParseError naming the line
/// of the first value that is not.
void write_arch(const ArchSpec& spec, std::ostream& out);
std::string write_arch_string(const ArchSpec& spec);
ArchSpec read_arch(std::istream& in, const std::string& filename = "<arch>");
ArchSpec read_arch_string(const std::string& text);

}  // namespace amdrel::arch
