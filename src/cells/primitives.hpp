#pragma once
// Transistor-level cell primitives used to assemble the paper's experiment
// circuits (inverters, NAND, transmission gates, the two tri-state inverter
// types of Fig. 3, and tapered buffer chains).
//
// All builders append devices to an existing spice::Circuit under a name
// prefix and return the nodes a caller needs. Widths are in µm; the
// process minimum contacted width is 0.28 µm.

#include <string>
#include <vector>

#include "spice/circuit.hpp"

namespace amdrel::cells {

using spice::Circuit;
using spice::NodeId;

/// Default P/N width ratio compensating the mobility gap.
constexpr double kPnRatio = 2.0;

struct InverterPorts {
  NodeId in, out;
};

/// Static CMOS inverter. wn is the NMOS width; PMOS is wn*kPnRatio unless
/// wp is given explicitly.
InverterPorts add_inverter(Circuit& c, const std::string& prefix, NodeId vdd,
                           NodeId in, NodeId out, double wn, double wp = 0.0);

struct Nand2Ports {
  NodeId a, b, out;
};

/// Static CMOS 2-input NAND.
Nand2Ports add_nand2(Circuit& c, const std::string& prefix, NodeId vdd,
                     NodeId a, NodeId b, NodeId out, double wn, double wp = 0.0);

/// Transmission gate between `a` and `b`; on when en=1 (enb must be its
/// complement).
void add_tgate(Circuit& c, const std::string& prefix, NodeId a, NodeId b,
               NodeId en, NodeId enb, double wn, double wp = 0.0);

/// NMOS-only pass transistor between `a` and `b`, gate on `en`.
void add_pass_nmos(Circuit& c, const std::string& prefix, NodeId a, NodeId b,
                   NodeId en, double w);

/// The two tri-state inverter flavours of the paper's Fig. 3. Both drive
/// `out` with ~in when en=1 / enb=0 and float it otherwise; they differ in
/// whether the clocked devices sit next to the output or next to the rails,
/// which changes the parasitic charge on the internal series nodes.
enum class TriStateType { kClockedAtOutput, kClockedAtRails };

void add_tristate_inverter(Circuit& c, const std::string& prefix, NodeId vdd,
                           NodeId in, NodeId out, NodeId en, NodeId enb,
                           TriStateType type, double wn, double wp = 0.0);

/// Weak keeper: two cross-coupled inverters between `a` and its complement
/// node (created internally). Drawn long (default l = 6·Lmin) so normal
/// drivers overpower it.
void add_keeper(Circuit& c, const std::string& prefix, NodeId vdd, NodeId a,
                double l_um = 1.08);

/// Tapered buffer chain (n_stages inverters, taper factor per stage).
/// Returns the output node. n_stages >= 1; even counts buffer, odd invert.
NodeId add_buffer_chain(Circuit& c, const std::string& prefix, NodeId vdd,
                        NodeId in, int n_stages, double w_first,
                        double taper = 3.0);

}  // namespace amdrel::cells
