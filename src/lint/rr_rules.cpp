#include "lint/rr_rules.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>

#include "util/strings.hpp"

namespace amdrel::lint {

namespace {

using route::RrNode;
using route::RrType;

const char* type_name(RrType t) {
  switch (t) {
    case RrType::kOpin: return "OPIN";
    case RrType::kIpin: return "IPIN";
    case RrType::kSink: return "SINK";
    case RrType::kChanX: return "CHANX";
    case RrType::kChanY: return "CHANY";
  }
  return "?";
}

bool is_wire(RrType t) { return t == RrType::kChanX || t == RrType::kChanY; }

std::string node_desc(const std::vector<RrNode>& nodes, int id) {
  const RrNode& n = nodes[static_cast<std::size_t>(id)];
  return strprintf("rr node %d (%s at %d,%d%s)", id, type_name(n.type), n.x,
                   n.y,
                   n.track >= 0 ? strprintf(" track %d", n.track).c_str()
                                : "");
}

// RR005: edges must target real nodes, never self-loop, never repeat.
void check_edges(const std::vector<RrNode>& nodes, Report* report) {
  const int n = static_cast<int>(nodes.size());
  // Duplicate detection via a stamp array instead of a per-node set: one
  // allocation for the whole graph, O(1) per edge.
  std::vector<int> seen_stamp(static_cast<std::size_t>(n), -1);
  for (int id = 0; id < n; ++id) {
    const RrNode& node = nodes[static_cast<std::size_t>(id)];
    for (int to : node.out_edges) {
      if (to < 0 || to >= n) {
        report->add(rules::kRrInvalidEdge, node_desc(nodes, id),
                    strprintf("edge to nonexistent node %d", to));
        continue;
      }
      if (to == id) {
        report->add(rules::kRrInvalidEdge, node_desc(nodes, id),
                    "self-loop edge");
        continue;
      }
      if (seen_stamp[static_cast<std::size_t>(to)] == id) {
        report->add(rules::kRrInvalidEdge, node_desc(nodes, id),
                    strprintf("duplicate edge to node %d", to));
      }
      seen_stamp[static_cast<std::size_t>(to)] = id;
    }
  }
}

// RR001: every IPIN/SINK/wire must be enterable; only OPINs are roots.
void check_unreachable(const std::vector<RrNode>& nodes, Report* report) {
  const int n = static_cast<int>(nodes.size());
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const RrNode& node : nodes) {
    for (int to : node.out_edges) {
      if (to >= 0 && to < n) ++indegree[static_cast<std::size_t>(to)];
    }
  }
  for (int id = 0; id < n; ++id) {
    if (nodes[static_cast<std::size_t>(id)].type == RrType::kOpin) continue;
    if (indegree[static_cast<std::size_t>(id)] == 0) {
      report->add(rules::kRrUnreachable, node_desc(nodes, id),
                  "no incoming edge; unusable by any route");
    }
  }
}

// RR002: each channel segment location must hold exactly W tracks with
// track indices 0..W-1.
void check_channel_width(const std::vector<RrNode>& nodes, int channel_width,
                         Report* report) {
  // One (position, track) key per wire, then a sort: duplicates and
  // per-position track counts fall out of one linear scan, with no
  // map-of-sets allocation churn on the hot path.
  std::vector<std::uint64_t> keys;  // (type, x, y) << 16 | track
  keys.reserve(nodes.size());
  auto pos_of = [](std::uint64_t key) {
    return std::make_tuple(static_cast<int>(key >> 48),
                           static_cast<int>((key >> 32) & 0xffff),
                           static_cast<int>((key >> 16) & 0xffff));
  };
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const RrNode& node = nodes[id];
    if (!is_wire(node.type)) continue;
    if (node.track < 0 || node.track >= channel_width) {
      report->add(rules::kRrChannelWidth, node_desc(nodes, static_cast<int>(id)),
                  strprintf("track index %d outside [0, W=%d)", node.track,
                            channel_width));
      continue;
    }
    keys.push_back((static_cast<std::uint64_t>(node.type) << 48) |
                   (static_cast<std::uint64_t>(node.x) << 32) |
                   (static_cast<std::uint64_t>(node.y) << 16) |
                   static_cast<std::uint64_t>(node.track));
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size();) {
    const std::uint64_t pos = keys[i] >> 16;
    int tracks = 0;
    for (; i < keys.size() && (keys[i] >> 16) == pos; ++i) {
      ++tracks;
      if (i + 1 < keys.size() && keys[i + 1] == keys[i]) {
        report->add(rules::kRrChannelWidth,
                    strprintf("%s channel at %d,%d track %d",
                              static_cast<int>(keys[i] >> 48) ==
                                      static_cast<int>(RrType::kChanX)
                                  ? "CHANX"
                                  : "CHANY",
                              static_cast<int>((keys[i] >> 32) & 0xffff),
                              static_cast<int>((keys[i] >> 16) & 0xffff),
                              static_cast<int>(keys[i] & 0xffff)),
                    "duplicate wire for this channel position and track");
        for (; i + 1 < keys.size() && keys[i + 1] == keys[i]; ++i) {
        }
      }
    }
    if (tracks != channel_width) {
      const auto [t, x, y] = pos_of(keys[i - 1]);
      report->add(
          rules::kRrChannelWidth,
          strprintf("%s channel at %d,%d",
                    t == static_cast<int>(RrType::kChanX) ? "CHANX" : "CHANY",
                    x, y),
          strprintf("%d track(s) present, W=%d declared", tracks,
                    channel_width));
    }
  }
}

// RR003: switch-box pass transistors are bidirectional — a wire-wire
// edge recorded one way only means the generator forgot the return
// direction (the router would then find paths hardware cannot realize).
// RR004: a wire with no outgoing switch is dead capacitance.
void check_wires(const std::vector<RrNode>& nodes, Report* report) {
  const int n = static_cast<int>(nodes.size());
  // Sorted edge list + binary search for the return direction: flat
  // memory instead of a hash set sized like the whole switch fabric.
  std::vector<std::uint64_t> wire_edges;
  auto key = [](int a, int b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  };
  for (int id = 0; id < n; ++id) {
    const RrNode& node = nodes[static_cast<std::size_t>(id)];
    if (!is_wire(node.type)) continue;
    if (node.out_edges.empty()) {
      report->add(rules::kRrZeroFanoutWire, node_desc(nodes, id),
                  "wire has no outgoing switch");
    }
    for (int to : node.out_edges) {
      if (to >= 0 && to < n && is_wire(nodes[static_cast<std::size_t>(to)].type)) {
        wire_edges.push_back(key(id, to));
      }
    }
  }
  std::sort(wire_edges.begin(), wire_edges.end());
  wire_edges.erase(std::unique(wire_edges.begin(), wire_edges.end()),
                   wire_edges.end());
  for (std::uint64_t k : wire_edges) {
    const int a = static_cast<int>(k >> 32);
    const int b = static_cast<int>(k & 0xffffffffu);
    if (!std::binary_search(wire_edges.begin(), wire_edges.end(),
                            key(b, a))) {
      report->add(rules::kRrAsymmetricSwitch, node_desc(nodes, a),
                  strprintf("switch to node %d has no return direction", b));
    }
  }
}

std::string id_desc(const route::RrGraph& g, int id) {
  const RrNode n = g.node_info(id);
  return strprintf("rr node %d (%s at %d,%d%s)", id, type_name(n.type), n.x,
                   n.y,
                   n.track >= 0 ? strprintf(" track %d", n.track).c_str()
                                : "");
}

// Low edge / high edge / one interior representative of an axis range —
// the three boundary classes a wire coordinate can fall into.
void axis_reps(int lo, int hi, std::vector<int>* out) {
  out->push_back(lo);
  if (hi > lo) out->push_back(hi);
  if (hi - lo > 1) out->push_back(lo + 1);
}

// Dedup-mode lint: the fabric is stamped from O(1) unique tile patterns,
// so each rule is checked once per pattern representative (every wire
// boundary class × sampled tracks, every block) plus arithmetic
// invariants of the stamping itself, instead of materializing and
// walking every node of a possibly giant graph.
void lint_rr_dedup(const route::RrGraph& g, Report* report) {
  const int W = g.channel_width();
  const int n = g.num_nodes();
  std::vector<int> ts{0};
  if (W > 1) ts.push_back(W - 1);
  if (W > 2) ts.push_back(W / 2);

  std::vector<int> edges;  // scratch, refilled per node
  auto check_node_edges = [&](int id, bool wire) {
    edges.clear();
    g.append_out_edges(id, &edges);
    if (wire && edges.empty()) {
      report->add(rules::kRrZeroFanoutWire, id_desc(g, id),
                  "wire has no outgoing switch");
    }
    std::set<int> seen;
    for (int to : edges) {
      if (to < 0 || to >= n) {
        report->add(rules::kRrInvalidEdge, id_desc(g, id),
                    strprintf("edge to nonexistent node %d", to));
        continue;
      }
      if (to == id) {
        report->add(rules::kRrInvalidEdge, id_desc(g, id), "self-loop edge");
        continue;
      }
      if (!seen.insert(to).second) {
        report->add(rules::kRrInvalidEdge, id_desc(g, id),
                    strprintf("duplicate edge to node %d", to));
      }
      if (wire && is_wire(g.node_type(to)) && !g.has_edge(to, id)) {
        report->add(rules::kRrAsymmetricSwitch, id_desc(g, id),
                    strprintf("switch to node %d has no return direction", to));
      }
    }
  };

  // RR002..RR005 on wires, one representative position per boundary
  // class on each axis.
  std::vector<int> xs, ys;
  for (int horiz = 1; horiz >= 0; --horiz) {
    const RrType type = horiz ? RrType::kChanX : RrType::kChanY;
    xs.clear();
    ys.clear();
    if (horiz) {
      axis_reps(1, g.nx(), &xs);
      axis_reps(0, g.ny(), &ys);
    } else {
      axis_reps(0, g.nx(), &xs);
      axis_reps(1, g.ny(), &ys);
    }
    for (int x : xs) {
      for (int y : ys) {
        // RR002: the id arithmetic yields exactly W tracks per position.
        if (g.find_chan(type, x, y, 0) < 0 ||
            g.find_chan(type, x, y, W - 1) < 0 ||
            g.find_chan(type, x, y, W) >= 0) {
          report->add(rules::kRrChannelWidth,
                      strprintf("%s channel at %d,%d",
                                horiz ? "CHANX" : "CHANY", x, y),
                      strprintf("track id space is not exactly W=%d", W));
        }
        for (int t : ts) {
          const int id = g.find_chan(type, x, y, t);
          if (id < 0) continue;
          const RrNode info = g.node_info(id);
          if (info.type != type || info.x != x || info.y != y ||
              info.track != t) {
            report->add(rules::kRrChannelWidth, id_desc(g, id),
                        strprintf("stamped attributes disagree with id "
                                  "arithmetic for (%d,%d) track %d",
                                  x, y, t));
          }
          check_node_edges(id, /*wire=*/true);
        }
      }
    }
  }

  // Block pins/sinks: edge validity for every block, plus RR001
  // reachability via the tap pattern — once for a representative CLB
  // (all CLB tiles share the interior pattern) and per output pad.
  bool clb_checked = false;
  int id = g.wire_count();
  while (id < n) {
    const int b = g.node_block(id);
    int sink = -1;
    std::vector<int> ipins, opins;
    for (; id < n && g.node_block(id) == b; ++id) {
      switch (g.node_type(id)) {
        case RrType::kSink: sink = id; break;
        case RrType::kIpin: ipins.push_back(id); break;
        case RrType::kOpin: opins.push_back(id); break;
        default:
          report->add(rules::kRrInvalidEdge, id_desc(g, id),
                      "wire node stamped inside a block id range");
          break;
      }
    }
    for (int nid : opins) {
      check_node_edges(nid, /*wire=*/false);
      for (int to : edges) {
        if (to >= 0 && to < n && !is_wire(g.node_type(to))) {
          report->add(rules::kRrInvalidEdge, id_desc(g, nid),
                      strprintf("output pin drives non-wire node %d", to));
        }
      }
    }
    for (int nid : ipins) {
      check_node_edges(nid, /*wire=*/false);
      if (sink < 0 || std::find(edges.begin(), edges.end(), sink) ==
                          edges.end()) {
        report->add(rules::kRrInvalidEdge, id_desc(g, nid),
                    "input pin does not feed its block's sink");
      }
    }
    const bool is_clb = sink >= 0 && !opins.empty();
    if (is_clb && !clb_checked) {
      clb_checked = true;
      const int x = g.node_x(sink), y = g.node_y(sink);
      // The four channel segments bordering a core tile.
      const RrType side_type[4] = {RrType::kChanX, RrType::kChanX,
                                   RrType::kChanY, RrType::kChanY};
      const int side_x[4] = {x, x, x - 1, x};
      const int side_y[4] = {y - 1, y, y, y};
      std::set<int> tapped;
      for (int s = 0; s < 4; ++s) {
        for (int t = 0; t < W; ++t) {
          const int w = g.find_chan(side_type[s], side_x[s], side_y[s], t);
          if (w < 0) continue;
          edges.clear();
          g.append_out_edges(w, &edges);
          for (int to : edges) {
            if (to >= g.wire_count() && to < n && g.node_block(to) == b) {
              tapped.insert(to);
            }
          }
        }
      }
      for (int nid : ipins) {
        if (!tapped.count(nid)) {
          report->add(rules::kRrUnreachable, id_desc(g, nid),
                      "no incoming edge; unusable by any route");
        }
      }
    }
    if (sink >= 0 && opins.empty() && !ipins.empty()) {
      // Output pad: its IPIN must be tapped from the perimeter channel.
      const int ip = ipins[0];
      const int x = g.node_x(ip), y = g.node_y(ip);
      RrType type;
      int wx, wy;
      if (y == 0) {
        type = RrType::kChanX, wx = x, wy = 0;
      } else if (y == g.ny() + 1) {
        type = RrType::kChanX, wx = x, wy = g.ny();
      } else if (x == 0) {
        type = RrType::kChanY, wx = 0, wy = y;
      } else {
        type = RrType::kChanY, wx = g.nx(), wy = y;
      }
      bool reachable = false;
      for (int t = 0; t < W && !reachable; ++t) {
        const int w = g.find_chan(type, wx, wy, t);
        reachable = w >= 0 && g.has_edge(w, ip);
      }
      if (!reachable) {
        report->add(rules::kRrUnreachable, id_desc(g, ip),
                    "no incoming edge; unusable by any route");
      }
    }
  }
}

}  // namespace

void lint_rr_nodes(const std::vector<RrNode>& nodes, int channel_width,
                   Report* report) {
  check_edges(nodes, report);
  check_unreachable(nodes, report);
  check_channel_width(nodes, channel_width, report);
  check_wires(nodes, report);
}

void lint_rr_graph(const route::RrGraph& graph, Report* report) {
  if (graph.dedup()) {
    lint_rr_dedup(graph, report);
    return;
  }
  lint_rr_nodes(graph.nodes(), graph.channel_width(), report);
}

}  // namespace amdrel::lint
