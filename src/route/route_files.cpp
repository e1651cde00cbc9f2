#include "route/route_files.hpp"

#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::route {

using place::Loc;
using place::Placement;

void write_place_file(const Placement& placement, std::ostream& out) {
  out << "Netlist file: " << placement.packed().network().name()
      << "  Architecture: " << placement.spec().name << "\n";
  out << "Array size: " << placement.nx() << " x " << placement.ny()
      << " logic blocks\n\n";
  out << "#block name\tx\ty\tsubblk\tblock number\n";
  out << "#----------\t--\t--\t------\t------------\n";
  for (std::size_t b = 0; b < placement.blocks().size(); ++b) {
    const Loc& l = placement.location(static_cast<int>(b));
    out << placement.blocks()[b].name << "\t" << l.x << "\t" << l.y << "\t"
        << l.sub << "\t#" << b << "\n";
  }
}

std::string write_place_string(const Placement& placement) {
  std::ostringstream out;
  write_place_file(placement, out);
  return out.str();
}

void read_place_file(std::istream& in, Placement* placement,
                     const std::string& filename) {
  AMDREL_CHECK(placement != nullptr);
  std::string line;
  int lineno = 0;
  int applied = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    // Header lines contain ':' tokens; skip them.
    if (line.find(':') != std::string::npos) continue;
    if (tokens.size() < 4) {
      throw ParseError(filename, lineno, "expected 'name x y subblk'");
    }
    int block = placement->block_by_name(tokens[0]);
    if (block < 0) {
      throw ParseError(filename, lineno, "unknown block: " + tokens[0]);
    }
    // Each coordinate is parsed whole and kept on the device grid (the
    // core plus its IO ring), so a bad one names its line.
    const auto coord = [&](const std::string& text, const char* what,
                           int hi) {
      int v = 0;
      try {
        v = parse_int(text, what);
      } catch (const Error& e) {
        throw ParseError(filename, lineno, e.what());
      }
      if (v < 0 || v > hi) {
        throw ParseError(filename, lineno,
                         strprintf("%s must be in [0, %d], got %d", what, hi,
                                   v));
      }
      return v;
    };
    Loc loc;
    loc.x = coord(tokens[1], "x", placement->nx() + 1);
    loc.y = coord(tokens[2], "y", placement->ny() + 1);
    loc.sub = coord(tokens[3], "subblk", placement->spec().io_per_tile - 1);
    placement->set_location(block, loc);
    ++applied;
  }
  if (applied == 0) throw ParseError(filename, lineno, "no placements found");
  placement->validate();
}

void read_place_string(const std::string& text, Placement* placement) {
  std::istringstream in(text);
  read_place_file(in, placement);
}

namespace {

const char* rr_type_name(RrType type) {
  switch (type) {
    case RrType::kOpin: return "OPIN";
    case RrType::kIpin: return "IPIN";
    case RrType::kSink: return "SINK";
    case RrType::kChanX: return "CHANX";
    case RrType::kChanY: return "CHANY";
  }
  return "?";
}

}  // namespace

void write_route_file(const RrGraph& graph, const Placement& placement,
                      const RouteResult& routing, std::ostream& out) {
  out << "Routing of " << placement.packed().network().name() << " at W="
      << graph.channel_width() << (routing.success ? "" : " (FAILED)")
      << "\n\n";
  const auto& net_list = placement.nets();
  for (std::size_t ni = 0; ni < routing.routes.size(); ++ni) {
    const auto& route = routing.routes[ni];
    out << "Net " << ni << " ("
        << placement.packed().network().signal_name(net_list[ni].signal)
        << ")\n";
    if (route.nodes.empty()) {
      out << "  (global or unrouted)\n\n";
      continue;
    }
    for (std::size_t k = 0; k < route.nodes.size(); ++k) {
      const RrNode n = graph.node_info(route.nodes[k]);
      out << "  " << (route.parent[k] < 0 ? "root " : "     ")
          << rr_type_name(n.type) << " (" << n.x << "," << n.y << ")";
      if (n.track >= 0) out << " track " << n.track;
      if (n.pin >= 0) out << " pin " << n.pin;
      if (route.parent[k] >= 0) out << "  from node " << route.parent[k];
      out << "\n";
    }
    out << "\n";
  }
}

std::string write_route_string(const RrGraph& graph,
                               const Placement& placement,
                               const RouteResult& routing) {
  std::ostringstream out;
  write_route_file(graph, placement, routing, out);
  return out.str();
}

}  // namespace amdrel::route
