#pragma once
// BLIF (Berkeley Logic Interchange Format) reader/writer — the format SIS
// consumes and produces, and the input to T-VPack in the paper's flow.
//
// Supported subset: .model/.inputs/.outputs/.names (SOP cover with '-'
// don't-cares, on-set and off-set covers)/.latch/.end, plus comments and
// line continuations. One model per file.

#include <iosfwd>
#include <string>

#include "netlist/network.hpp"

namespace amdrel::netlist {

Network read_blif(std::istream& in, const std::string& filename = "<blif>");
Network read_blif_file(const std::string& path);
Network read_blif_string(const std::string& text);

void write_blif(const Network& network, std::ostream& out);
std::string write_blif_string(const Network& network);

}  // namespace amdrel::netlist
