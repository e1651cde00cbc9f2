#pragma once
// ECO (engineering-change-order) incremental recompilation.
//
// Interactive iteration edits a few cells of an already-compiled design;
// recompiling from scratch repeats the whole Fig. 11 back end even though
// almost every artifact is still valid. This module re-enters the flow
// mid-pipeline instead:
//
//   1. diff      — structural netlist diff against the previous entry
//                  network (cells keyed by output signal name).
//   2. map       — patch-based LUT mapping: LUT cones untouched by the
//                  edit are copied verbatim from the previous mapped
//                  network; only the dirty sub-network is re-mapped.
//   3. pack      — T-VPack with reuse hints: untouched CLBs are recreated
//                  with their previous BLE slot order (pack::PackHints).
//   4. place     — matched blocks keep their previous locations and are
//                  locked; only new/changed blocks move, in a bounded
//                  local re-anneal (radius-limited window).
//   5. route     — previous net trees are translated onto the new RR
//                  graph and committed as seeds; PathFinder rips up and
//                  reroutes only nets incident to changed blocks
//                  (route::route_seeded).
//   6. analysis  — power, timing and the bitstream are recomputed in
//                  full (linear passes; no stale data survives).
//
// Every reuse decision is conservative: any anomaly (changed IO, a
// too-large edit, a hint or seed that no longer fits) falls back to the
// corresponding from-scratch stage, so the result is always a complete,
// verifiable compile. The safety net is formal: callers are expected to
// prove the ECO bitstream equivalent to the edited netlist with
// src/verify (FlowSession::resume_with_edit does this automatically).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "bitgen/bitstream.hpp"
#include "netlist/network.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/pathfinder.hpp"
#include "route/rr_graph.hpp"
#include "synth/lutmap.hpp"
#include "timing/timing.hpp"

namespace amdrel::eco {

/// Structural diff between two entry networks. Combinational cells are
/// keyed by output signal name, latches by Q signal name; a matched cell
/// whose function or fanin list changed is "retuned"/"rewired".
struct NetlistDiff {
  std::vector<std::string> retuned;  ///< same fanins, different table
  std::vector<std::string> rewired;  ///< different fanin signals
  std::vector<std::string> added;    ///< cells only in the edited network
  std::vector<std::string> removed;  ///< cells only in the base network
  bool io_changed = false;           ///< PI or PO name sets differ
  int base_cells = 0;                ///< gates + latches in base
  int edited_cells = 0;              ///< gates + latches in edited
  int matched_clean = 0;             ///< cells identical on both sides

  /// Cells whose implementation must change (everything except clean).
  int dirty_cells() const {
    return static_cast<int>(retuned.size() + rewired.size() + added.size() +
                            removed.size());
  }
  bool identical() const { return dirty_cells() == 0 && !io_changed; }
  /// Dirty fraction of the larger side, 0..1.
  double dirty_pct() const {
    const int n = base_cells > edited_cells ? base_cells : edited_cells;
    return n > 0 ? static_cast<double>(dirty_cells()) / n : 0.0;
  }
};

NetlistDiff diff_networks(const netlist::Network& base,
                          const netlist::Network& edited);

struct EcoOptions {
  std::uint64_t seed = 1;
  synth::LutMapOptions lutmap;
  /// Router options for the seeded reroute (carries the cancel flag).
  route::RouteOptions route;
  power::PowerOptions power;
};

/// What was reused vs. recomputed, for reporting and the QoR gate.
struct EcoStats {
  NetlistDiff entry_diff;
  bool incremental_map = false;  ///< patch fast path (false = full remap)
  int luts_total = 0;
  int luts_reused = 0;           ///< clean LUT cones copied verbatim
  int clusters_total = 0;
  int clusters_reused = 0;       ///< pack hints that survived
  int blocks_total = 0;
  int blocks_matched = 0;        ///< blocks keeping their old location
  bool placement_transferred = false;
  int nets_total = 0;
  int nets_seeded = 0;           ///< route trees committed as seeds
  int nets_rerouted = 0;         ///< nets the router actually rebuilt
  bool route_seeded = false;     ///< seeded route succeeded as-is
  int channel_width = 0;
  int fallbacks = 0;             ///< stage-level from-scratch fallbacks

  /// Fraction of reusable artifacts actually reused, 0..1 (LUTs,
  /// clusters, block locations and net routes, equally weighted by item).
  double reuse_ratio() const {
    const int total = luts_total + clusters_total + blocks_total + nets_total;
    const int reused =
        luts_reused + clusters_reused + blocks_matched + nets_seeded;
    return total > 0 ? static_cast<double>(reused) / total : 0.0;
  }
};

/// A complete recompiled implementation (same shape as the back half of
/// flow::FlowResult). Heap-held artifacts for address stability: packed
/// references mapped, placement references packed, rr_graph references
/// placement.
struct EcoResult {
  std::unique_ptr<netlist::Network> mapped;
  synth::LutMapStats map_stats;
  std::unique_ptr<pack::PackedNetlist> packed;
  std::unique_ptr<place::Placement> placement;
  place::Placement::AnnealStats place_stats;
  std::unique_ptr<route::RrGraph> rr_graph;
  route::RouteResult routing;
  int channel_width = 0;
  power::PowerReport power;
  timing::TimingReport timing;
  bitgen::Bitstream bitstream;
  std::vector<std::uint8_t> bitstream_bytes;
  EcoStats stats;
};

/// The channel width to compile an ECO base at: `min_width` plus about
/// 15% (at least 4) spare tracks, so a small edit reroutes in spare
/// capacity instead of falling back to a from-scratch route.
int headroom_width(int min_width);

/// Recompiles `edited` incrementally against a completed base compile.
/// `base_entry`/`base_mapped` are the base flow's synthesized and mapped
/// networks; the remaining arguments are its implementation artifacts.
/// Throws CancelledError if options.route.cancel trips; the base
/// artifacts are never modified.
EcoResult recompile(const netlist::Network& edited,
                    const netlist::Network& base_entry,
                    const netlist::Network& base_mapped,
                    const pack::PackedNetlist& base_packed,
                    const place::Placement& base_placement,
                    const route::RrGraph& base_rr,
                    const route::RouteResult& base_routing, int base_width,
                    const arch::ArchSpec& arch, const EcoOptions& options = {});

}  // namespace amdrel::eco
