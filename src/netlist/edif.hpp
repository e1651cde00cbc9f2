#pragma once
// EDIF 2.0.0 netlist reader/writer.
//
// In the paper's flow DIVINER emits a commercial-format EDIF netlist,
// DRUID normalizes it and E2FMT translates it to BLIF. Here the writer
// plays DIVINER's output side (standard-cell instances: INV/AND2/.../DFF,
// plus LUT cells carrying their truth table as a property), the reader +
// `Network` conversion plays DRUID+E2FMT (tolerant parse of the subset,
// normalization to the generic gate network that the rest of the flow
// consumes).

#include <iosfwd>
#include <string>

#include "netlist/network.hpp"

namespace amdrel::netlist {

/// Writes the network as EDIF 2.0.0. Gates whose truth table matches a
/// standard cell (INV, BUF, AND2.., OR2.., NAND2.., NOR2.., XOR2.., MUX2)
/// are emitted as that cell; anything else becomes a LUT cell with a
/// "truth" property.
void write_edif(const Network& network, std::ostream& out);
std::string write_edif_string(const Network& network);

/// Parses the EDIF subset back into a Network (DRUID + E2FMT).
Network read_edif(std::istream& in, const std::string& filename = "<edif>");
Network read_edif_string(const std::string& text);
Network read_edif_file(const std::string& path);

}  // namespace amdrel::netlist
