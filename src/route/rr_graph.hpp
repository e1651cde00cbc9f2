#pragma once
// Routing-resource graph for the island-style architecture: channel wire
// segments (length = segment_length), disjoint switch boxes (Fs=3),
// connection boxes with Fc_in/Fc_out, CLB pins and IO pads.
//
// Two representations share one stable node-id layout:
//
//  * dedup (default): the fabric is perfectly regular, so tiles are
//    classified into a small set of patterns (corner/edge/interior wire
//    boundary classes × block kinds, keyed on Fs, Fc_in/Fc_out and the
//    channel width) and each unique pattern's edge template is built
//    once. Node attributes and adjacency are *stamped* per tile with
//    pure id arithmetic on demand — nothing per-node is materialized,
//    so a million-LUT fabric costs O(patterns + blocks) memory.
//  * dense (`RrOptions::dedup = false`): the original per-node build
//    with a heap-allocated out-edge vector per node, kept as the
//    bit-identical oracle for A/B tests.
//
// Node ids, per-node out-edge order, and every derived artifact
// (routing result, bitstream bytes) are identical between the two.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "place/place.hpp"

namespace amdrel::route {

enum class RrType { kOpin, kIpin, kSink, kChanX, kChanY };

struct RrNode {
  RrType type;
  int x = 0, y = 0;      ///< tile (tracks: the low corner of the segment)
  int track = -1;        ///< channel track index (wires only)
  int pin = -1;          ///< pin index (pins only)
  int block = -1;        ///< placement block (pins/sinks only)
  int capacity = 1;
  double base_cost = 1.0;
  std::vector<int> out_edges;  ///< adjacent node ids
};

struct RrOptions {
  /// Tile-pattern deduplicated build (see file comment). false = the
  /// dense per-node oracle build, bit-identical by construction.
  bool dedup = true;
};

/// The placement-independent half of the dedup representation: switch-box
/// wire-leg templates per boundary class and the connection-box tap
/// tables. These depend only on (cluster_inputs, N, Fc_in, Fc_out, pad
/// subs, W) — not on which design is placed where — so every RrGraph
/// built for the same architecture and channel width references one
/// immutable copy through shared(). This is the cross-job RR template
/// cache of the amdrel_serve daemon: 64 concurrent sessions on the
/// default arch stamp their fabrics from a single table set instead of
/// rebuilding it per job.
struct RrPatternTemplates {
  struct Leg {
    bool horizontal;
    std::int8_t dx, dy;
  };
  /// Wire switch-box legs per (orientation, boundary signature).
  std::vector<Leg> legs[2][16];
  /// CLB input pins p (ascending) tapping track t from side s, [s*W+t].
  std::vector<std::vector<int>> clb_taps;
  /// Sorted track list per CLB output pin / input-pad sub.
  std::vector<std::vector<int>> clb_opin_tracks;
  std::vector<std::vector<int>> pad_out_tracks;
  /// Output-pad sub taps track t, at [sub * W + t] / tap count per sub.
  std::vector<char> pad_in_has;
  std::vector<int> pad_in_count;
  /// Resident-size estimate of the tables (the template part of
  /// RrGraph::bytes_est()).
  std::int64_t bytes_est = 0;

  /// Uncached build — the reference the cache must match bit-for-bit.
  /// `max_sub` is the largest pad sub-position in use (-1 when the
  /// placement has no pads).
  static RrPatternTemplates build(const arch::ArchSpec& spec, int width,
                                  int max_sub);
  /// Returns the process-wide cached template set for this architecture
  /// and width, building it on first use. Thread-safe (mutex-guarded
  /// map); the returned object is immutable and safely shared across
  /// graphs and threads. Cache hits/misses land on the
  /// rr.tmpl_cache_hits / rr.tmpl_cache_misses registry counters.
  static std::shared_ptr<const RrPatternTemplates> shared(
      const arch::ArchSpec& spec, int width, int max_sub);
};

/// Builds the RR graph for a placed design; node ids are stable.
class RrGraph {
 public:
  RrGraph(const place::Placement& placement, const arch::ArchSpec& spec,
          int channel_width, const RrOptions& options = {});

  bool dedup() const { return dedup_; }
  int channel_width() const { return width_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int num_nodes() const { return n_nodes_; }
  /// Wire node ids occupy [0, wire_count()); block pins/sinks follow.
  int wire_count() const { return wire_count_; }
  std::int64_t num_edges() const { return n_edges_; }

  // ---- O(1)-ish per-node attribute accessors (both representations) ----
  RrType node_type(int id) const;
  int node_x(int id) const;
  int node_y(int id) const;
  int node_block(int id) const;
  int node_capacity(int id) const;
  /// Materialized copy of one node's attributes. `out_edges` is always
  /// left empty — use `append_out_edges` for adjacency.
  RrNode node_info(int id) const;

  /// Appends `id`'s out-edges in the canonical (dense-build) order.
  void append_out_edges(int id, std::vector<int>* out) const;
  bool has_edge(int from, int to) const;

  /// Bulk-fills the router's flat SoA mirror (null pointers skipped).
  /// `ipin_sink` covers the block nodes, [wire_count(), num_nodes()): an
  /// IPIN's entry is the SINK its one out-edge reaches, every other
  /// node's is -1.
  void fill_soa(std::vector<signed char>* type, std::vector<short>* x,
                std::vector<short>* y, std::vector<short>* cap,
                std::vector<double>* base_cost,
                std::vector<int>* ipin_sink) const;

  /// Node id from structural coordinates; -1 when outside the fabric.
  /// chanx: x in 1..nx, y in 0..ny; chany: x in 0..nx, y in 1..ny.
  int find_chan(RrType type, int x, int y, int track) const;
  /// Node id of a block's pin/sink by (type, pin field) — the pin field
  /// as stored on the node (-1 for sinks, pad sub for pad pins). -1 when
  /// the block has no such node.
  int find_block_node(int block, RrType type, int pin) const;

  /// Source node (an OPIN) of each placement net / its sink nodes.
  int opin_of_net(int net_index) const;
  const std::vector<int>& sinks_of_net(int net_index) const;

  /// Dense node table — only valid when built with `dedup = false`.
  const std::vector<RrNode>& nodes() const;

  /// Unique tile patterns backing the dedup build (0 in dense mode).
  int unique_patterns() const { return unique_patterns_; }
  /// Estimated resident bytes of this graph representation.
  std::int64_t bytes_est() const { return bytes_est_; }
  std::string stats() const;

  /// Node-id space for a fabric, computed in 64-bit and checked against
  /// the 32-bit id range (throws on overflow). `block_nodes` = total
  /// pin/sink nodes across all blocks.
  static std::int64_t checked_node_count(std::int64_t nx, std::int64_t ny,
                                         std::int64_t channel_width,
                                         std::int64_t block_nodes);

 private:
  // One unique switch-box wire pattern: the same-track legs a wire of
  // one boundary class carries, as (orientation, dx, dy) deltas resolved
  // to node ids at stamp time. Signature bits (chanx): x==1, x==nx<<1,
  // y==0<<2, y==ny<<3; (chany): x==0, x==nx<<1, y==1<<2, y==ny<<3.
  using Leg = RrPatternTemplates::Leg;

  void build_common_tables();
  void build_dense();
  void build_dedup();
  void build_net_terminals();
  void count_dedup_edges();

  int chanx_id(int x, int y, int t) const {
    return (y * nx_ + (x - 1)) * width_ + t;
  }
  int chany_id(int x, int y, int t) const {
    return chanx_total_ + (x * ny_ + (y - 1)) * width_ + t;
  }
  int chan_id(bool horizontal, int x, int y, int t) const {
    return horizontal ? chanx_id(x, y, t) : chany_id(x, y, t);
  }
  /// Channel segment on `side` (0..3) of tile (x, y) — see dense build.
  int adjacent_chan(int x, int y, int side, int t) const;
  int pad_wire(const place::Loc& loc, int t) const;
  int wire_signature(bool horizontal, int x, int y) const;
  /// Decodes a wire id; returns false for block-node ids.
  bool decode_wire(int id, bool* horizontal, int* x, int* y, int* t) const;
  /// Block index owning a block-node id (binary search on block_base_).
  int block_of_id(int id) const;
  int clb_block_at(int x, int y) const;
  void append_wire_taps(bool horizontal, int x, int y, int t,
                        std::vector<int>* out) const;
  void append_out_edges_dedup(int id, std::vector<int>* out) const;
  std::vector<int> pin_tracks(int pin, int n_tracks) const;

  const place::Placement* placement_;
  const arch::ArchSpec* spec_;
  int width_;
  int nx_, ny_;
  bool dedup_ = true;
  int n_nodes_ = 0;
  int wire_count_ = 0;
  int chanx_total_ = 0;  ///< chanx wires; chany ids start here
  std::int64_t n_edges_ = 0;
  int unique_patterns_ = 0;
  std::int64_t bytes_est_ = 0;

  // Block-node id layout: node ids of block `b` are
  // [block_base_[b], block_base_[b+1]); within a CLB: sink, I ipins,
  // N opins; input pad: opin; output pad: sink, ipin.
  std::vector<int> block_base_;

  // ---- dedup pattern tables (null in dense mode) ----
  // Shared immutable template set (legs / connection-box taps); see
  // RrPatternTemplates. One copy per (arch, W) across all live graphs.
  std::shared_ptr<const RrPatternTemplates> tmpl_;
  // CLB block at core tile (x, y), -1 when empty; [x * (ny_+2) + y].
  std::vector<int> clb_at_;
  // Pad blocks per perimeter tile, CSR over sorted tile keys.
  std::vector<std::int64_t> pad_tile_key_;  ///< sorted x*(ny_+2)+y
  std::vector<int> pad_tile_off_;
  std::vector<int> pad_tile_block_;  ///< block ids, ascending per tile

  // ---- dense representation (empty in dedup mode) ----
  std::vector<RrNode> nodes_;

  std::vector<int> net_opin_;
  std::vector<std::vector<int>> net_sinks_;
};

}  // namespace amdrel::route
