#include "route/rr_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::route {

using place::BlockKind;
using place::Loc;
using place::Placement;

namespace {

/// Pin/sink nodes a block contributes (see block_base_ layout).
int block_node_count(BlockKind kind, const arch::ArchSpec& spec) {
  switch (kind) {
    case BlockKind::kClb: return 1 + spec.cluster_inputs() + spec.n;
    case BlockKind::kInputPad: return 1;
    case BlockKind::kOutputPad: return 2;
  }
  return 0;
}

/// Connection-box tap tracks of pin class `pin`: n_tracks consecutive
/// tracks starting at pin (mod W), deduplicated ascending.
std::vector<int> pin_tracks_for(int pin, int n_tracks, int width) {
  std::vector<int> tracks;
  for (int k = 0; k < n_tracks; ++k) {
    tracks.push_back((pin + k) % width);
  }
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  return tracks;
}

std::mutex& tmpl_cache_mutex() {
  static std::mutex m;
  return m;
}

/// Process-wide template cache. Leaked intentionally (never destroyed) so
/// shared() stays safe during static destruction of other objects.
std::unordered_map<std::string, std::shared_ptr<const RrPatternTemplates>>&
tmpl_cache() {
  static auto* cache = new std::unordered_map<
      std::string, std::shared_ptr<const RrPatternTemplates>>();
  return *cache;
}

}  // namespace

RrPatternTemplates RrPatternTemplates::build(const arch::ArchSpec& spec,
                                             int width, int max_sub) {
  RrPatternTemplates tpl;
  const int n_in = spec.cluster_inputs();
  const int n_out = spec.n;

  // ---- connection-box tap tables (one per pin class, not per tile) ----
  const int fc_in_tracks =
      std::max(1, static_cast<int>(std::lround(spec.fc_in * width)));
  const int fc_out_tracks =
      std::max(1, static_cast<int>(std::lround(spec.fc_out * width)));

  tpl.clb_taps.assign(static_cast<std::size_t>(4 * width), {});
  for (int p = 0; p < n_in; ++p) {
    const int side = p % 4;
    for (int t : pin_tracks_for(p, fc_in_tracks, width)) {
      tpl.clb_taps[static_cast<std::size_t>(side * width + t)].push_back(p);
    }
  }
  tpl.clb_opin_tracks.resize(static_cast<std::size_t>(n_out));
  for (int p = 0; p < n_out; ++p) {
    tpl.clb_opin_tracks[static_cast<std::size_t>(p)] =
        pin_tracks_for(p + n_in, fc_out_tracks, width);
  }
  tpl.pad_out_tracks.resize(static_cast<std::size_t>(max_sub + 1));
  tpl.pad_in_has.assign(static_cast<std::size_t>((max_sub + 1) * width), 0);
  tpl.pad_in_count.assign(static_cast<std::size_t>(max_sub + 1), 0);
  for (int sub = 0; sub <= max_sub; ++sub) {
    tpl.pad_out_tracks[static_cast<std::size_t>(sub)] =
        pin_tracks_for(sub, fc_out_tracks, width);
    const auto in_tracks = pin_tracks_for(sub, fc_in_tracks, width);
    tpl.pad_in_count[static_cast<std::size_t>(sub)] =
        static_cast<int>(in_tracks.size());
    for (int t : in_tracks) {
      tpl.pad_in_has[static_cast<std::size_t>(sub * width + t)] = 1;
    }
  }

  // ---- switch-box leg templates per (orientation, boundary class) ----
  // Leg order reproduces the dense build's push order exactly: the SB at
  // the wire's low end writes first (the SB loop runs x-major), then the
  // SB at its high end; within one SB the pair order is (L,R), (B,A),
  // (L,B), (L,A), (R,B), (R,A).
  for (int sig = 0; sig < 16; ++sig) {
    const bool x1 = (sig & 1) != 0, xn = (sig & 2) != 0;
    const bool y0 = (sig & 4) != 0, yn = (sig & 8) != 0;
    auto& hx = tpl.legs[1][sig];
    hx.clear();
    if (!x1) hx.push_back({true, -1, 0});
    if (!y0) hx.push_back({false, -1, 0});
    if (!yn) hx.push_back({false, -1, 1});
    if (!xn) hx.push_back({true, 1, 0});
    if (!y0) hx.push_back({false, 0, 0});
    if (!yn) hx.push_back({false, 0, 1});
    // chany: bits are x==0, x==nx, y==1, y==ny.
    const bool x0 = x1, y1 = y0;
    auto& hy = tpl.legs[0][sig];
    hy.clear();
    if (!y1) hy.push_back({false, 0, -1});
    if (!x0) hy.push_back({true, 0, -1});
    if (!xn) hy.push_back({true, 1, -1});
    if (!yn) hy.push_back({false, 0, 1});
    if (!x0) hy.push_back({true, 0, 0});
    if (!xn) hy.push_back({true, 1, 0});
  }

  // Template part of the graph's resident-size estimate; the per-graph
  // part (block/tile lookups) is added in build_dedup. The per-vector
  // formulas must not change independently of build_dedup's — the sum is
  // QoR-gated at 0% tolerance (scripts/qor_baseline.json rr_scale).
  std::int64_t bytes = 0;
  for (const auto& v : tpl.clb_taps) bytes += 24 + 4 * static_cast<std::int64_t>(v.size());
  for (const auto& v : tpl.clb_opin_tracks) bytes += 24 + 4 * static_cast<std::int64_t>(v.size());
  for (const auto& v : tpl.pad_out_tracks) bytes += 24 + 4 * static_cast<std::int64_t>(v.size());
  bytes += static_cast<std::int64_t>(tpl.pad_in_has.size()) +
           static_cast<std::int64_t>(tpl.pad_in_count.size()) * 4;
  for (int h = 0; h < 2; ++h) {
    for (int s = 0; s < 16; ++s) {
      bytes += 24 + 3 * static_cast<std::int64_t>(tpl.legs[h][s].size());
    }
  }
  tpl.bytes_est = bytes;
  return tpl;
}

std::shared_ptr<const RrPatternTemplates> RrPatternTemplates::shared(
    const arch::ArchSpec& spec, int width, int max_sub) {
  // Everything build() reads participates in the key (cluster_inputs()
  // is a function of k and n).
  const std::string key =
      strprintf("k%d.n%d.fi%.17g.fo%.17g.w%d.s%d", spec.k, spec.n,
                spec.fc_in, spec.fc_out, width, max_sub);
  static obs::Counter& c_hits = obs::counter("rr.tmpl_cache_hits");
  static obs::Counter& c_misses = obs::counter("rr.tmpl_cache_misses");
  std::lock_guard<std::mutex> lock(tmpl_cache_mutex());
  auto& slot = tmpl_cache()[key];
  if (slot) {
    c_hits.add(1);
    return slot;
  }
  c_misses.add(1);
  slot = std::make_shared<const RrPatternTemplates>(
      build(spec, width, max_sub));
  return slot;
}

std::int64_t RrGraph::checked_node_count(std::int64_t nx, std::int64_t ny,
                                         std::int64_t channel_width,
                                         std::int64_t block_nodes) {
  const std::int64_t wires =
      ((ny + 1) * nx + (nx + 1) * ny) * channel_width;
  const std::int64_t total = wires + block_nodes;
  AMDREL_CHECK_MSG(
      total >= 0 &&
          total <= static_cast<std::int64_t>(
                       std::numeric_limits<std::int32_t>::max()),
      strprintf("RR node-id space overflows 32-bit ids: %lldx%lld grid at "
                "W=%lld needs %lld ids",
                static_cast<long long>(nx), static_cast<long long>(ny),
                static_cast<long long>(channel_width),
                static_cast<long long>(total)));
  return total;
}

RrGraph::RrGraph(const Placement& placement, const arch::ArchSpec& spec,
                 int channel_width, const RrOptions& options)
    : placement_(&placement),
      spec_(&spec),
      width_(channel_width),
      nx_(placement.nx()),
      ny_(placement.ny()),
      dedup_(options.dedup) {
  // Every min-W probe builds its own graph, so this span separates a
  // probe's build from its routing.
  obs::Span span("route.rr_build");
  AMDREL_CHECK(width_ >= 1);
  build_common_tables();
  if (dedup_) {
    build_dedup();
  } else {
    build_dense();
  }
  build_net_terminals();

  static obs::Counter& c_nodes = obs::counter("rr.nodes");
  static obs::Counter& c_patterns = obs::counter("rr.unique_patterns");
  static obs::Counter& c_bytes = obs::counter("rr.bytes_est");
  c_nodes.add(static_cast<std::uint64_t>(n_nodes_));
  c_patterns.add(static_cast<std::uint64_t>(unique_patterns_));
  c_bytes.add(static_cast<std::uint64_t>(bytes_est_));
  span.metric("width", width_);
  span.metric("nodes", n_nodes_);
}

std::vector<int> RrGraph::pin_tracks(int pin, int n_tracks) const {
  return pin_tracks_for(pin, n_tracks, width_);
}

int RrGraph::adjacent_chan(int x, int y, int side, int t) const {
  switch (side) {
    case 0: return chanx_id(x, y - 1, t);  // below
    case 1: return chanx_id(x, y, t);      // above
    case 2: return chany_id(x - 1, y, t);  // left
    default: return chany_id(x, y, t);     // right
  }
}

int RrGraph::pad_wire(const Loc& loc, int t) const {
  if (loc.y == 0) return chanx_id(loc.x, 0, t);
  if (loc.y == ny_ + 1) return chanx_id(loc.x, ny_, t);
  if (loc.x == 0) return chany_id(0, loc.y, t);
  return chany_id(nx_, loc.y, t);
}

int RrGraph::wire_signature(bool horizontal, int x, int y) const {
  if (horizontal) {
    return (x == 1 ? 1 : 0) | (x == nx_ ? 2 : 0) | (y == 0 ? 4 : 0) |
           (y == ny_ ? 8 : 0);
  }
  return (x == 0 ? 1 : 0) | (x == nx_ ? 2 : 0) | (y == 1 ? 4 : 0) |
         (y == ny_ ? 8 : 0);
}

bool RrGraph::decode_wire(int id, bool* horizontal, int* x, int* y,
                          int* t) const {
  if (id >= wire_count_) return false;
  if (id < chanx_total_) {
    *horizontal = true;
    const int q = id / width_;
    *t = id % width_;
    *x = q % nx_ + 1;
    *y = q / nx_;
  } else {
    *horizontal = false;
    const int j = id - chanx_total_;
    const int q = j / width_;
    *t = j % width_;
    *x = q / ny_;
    *y = q % ny_ + 1;
  }
  return true;
}

int RrGraph::block_of_id(int id) const {
  const auto it =
      std::upper_bound(block_base_.begin(), block_base_.end(), id);
  return static_cast<int>(it - block_base_.begin()) - 1;
}

int RrGraph::clb_block_at(int x, int y) const {
  if (x < 1 || x > nx_ || y < 1 || y > ny_) return -1;
  return clb_at_[static_cast<std::size_t>(x * (ny_ + 2) + y)];
}

void RrGraph::build_common_tables() {
  const Placement& pl = *placement_;
  const auto& blocks = pl.blocks();

  chanx_total_ = (ny_ + 1) * nx_ * width_;
  std::int64_t block_nodes = 0;
  for (const auto& blk : blocks) {
    block_nodes += block_node_count(blk.kind, *spec_);
  }
  n_nodes_ = static_cast<int>(
      checked_node_count(nx_, ny_, width_, block_nodes));
  wire_count_ = ((ny_ + 1) * nx_ + (nx_ + 1) * ny_) * width_;

  block_base_.resize(blocks.size() + 1);
  int next = wire_count_;
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    block_base_[bi] = next;
    next += block_node_count(blocks[bi].kind, *spec_);
  }
  block_base_[blocks.size()] = next;
  AMDREL_CHECK(next == n_nodes_);
}

void RrGraph::build_dedup() {
  const Placement& pl = *placement_;
  const auto& blocks = pl.blocks();

  // The leg / connection-box tables are placement-independent; fetch the
  // shared immutable copy for this (arch, W, pad subs) from the
  // process-wide cache (built on first use).
  int max_sub = -1;
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (blocks[bi].kind != BlockKind::kClb) {
      max_sub = std::max(max_sub, pl.location(static_cast<int>(bi)).sub);
    }
  }
  tmpl_ = RrPatternTemplates::shared(*spec_, width_, max_sub);

  // ---- tile → block lookups ----
  clb_at_.assign(static_cast<std::size_t>((nx_ + 2) * (ny_ + 2)), -1);
  std::vector<std::pair<std::int64_t, int>> pad_tiles;
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const Loc& loc = pl.location(static_cast<int>(bi));
    if (blocks[bi].kind == BlockKind::kClb) {
      clb_at_[static_cast<std::size_t>(loc.x * (ny_ + 2) + loc.y)] =
          static_cast<int>(bi);
    } else {
      pad_tiles.emplace_back(
          static_cast<std::int64_t>(loc.x) * (ny_ + 2) + loc.y,
          static_cast<int>(bi));
    }
  }
  std::stable_sort(pad_tiles.begin(), pad_tiles.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  pad_tile_key_.clear();
  pad_tile_off_.clear();
  pad_tile_block_.clear();
  for (std::size_t i = 0; i < pad_tiles.size(); ++i) {
    if (i == 0 || pad_tiles[i].first != pad_tiles[i - 1].first) {
      pad_tile_key_.push_back(pad_tiles[i].first);
      pad_tile_off_.push_back(static_cast<int>(pad_tile_block_.size()));
    }
    pad_tile_block_.push_back(pad_tiles[i].second);
  }
  pad_tile_off_.push_back(static_cast<int>(pad_tile_block_.size()));

  count_dedup_edges();

  // Resident-size estimate: the point of the dedup build is that this is
  // O(blocks + grid + patterns), independent of W × grid × fanout. The
  // template part is precomputed in RrPatternTemplates::build with the
  // same per-vector formulas, so the sum is byte-identical to the
  // pre-cache build (QoR-gated at 0% tolerance).
  std::int64_t bytes = tmpl_->bytes_est;
  bytes += static_cast<std::int64_t>(block_base_.size()) * 4;
  bytes += static_cast<std::int64_t>(clb_at_.size()) * 4;
  bytes += static_cast<std::int64_t>(pad_tile_key_.size()) * 8 +
           static_cast<std::int64_t>(pad_tile_off_.size()) * 4 +
           static_cast<std::int64_t>(pad_tile_block_.size()) * 4;
  bytes_est_ = bytes;
}

void RrGraph::count_dedup_edges() {
  // Switch-box edges: Σ over boundary classes legs(class) × positions ×
  // W — no per-wire work. Boundary classes along one axis collapse to at
  // most three (low edge, high edge, interior).
  struct C {
    int bits;
    std::int64_t cnt;
  };
  auto axis = [](int lo, int hi, int lo_bit, int hi_bit) {
    std::vector<C> cs;
    if (lo == hi) {
      cs.push_back({lo_bit | hi_bit, 1});
    } else {
      cs.push_back({lo_bit, 1});
      cs.push_back({hi_bit, 1});
      if (hi - lo > 1) cs.push_back({0, hi - lo - 1});
    }
    return cs;
  };
  n_edges_ = 0;
  int wire_patterns = 0;
  const auto cx_x = axis(1, nx_, 1, 2), cx_y = axis(0, ny_, 4, 8);
  for (const C& a : cx_x) {
    for (const C& b : cx_y) {
      n_edges_ += static_cast<std::int64_t>(
                      tmpl_->legs[1][a.bits | b.bits].size()) *
                  a.cnt * b.cnt * width_;
      ++wire_patterns;
    }
  }
  const auto cy_x = axis(0, nx_, 1, 2), cy_y = axis(1, ny_, 4, 8);
  for (const C& a : cy_x) {
    for (const C& b : cy_y) {
      n_edges_ += static_cast<std::int64_t>(
                      tmpl_->legs[0][a.bits | b.bits].size()) *
                  a.cnt * b.cnt * width_;
      ++wire_patterns;
    }
  }

  // Pin/tap edges per block kind.
  std::int64_t clb_in_taps = 0, clb_out = 0;
  for (const auto& v : tmpl_->clb_taps) clb_in_taps += static_cast<std::int64_t>(v.size());
  for (const auto& v : tmpl_->clb_opin_tracks) clb_out += static_cast<std::int64_t>(v.size());
  const auto& blocks = placement_->blocks();
  bool has_clb = false, has_in = false, has_out = false;
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    switch (blocks[bi].kind) {
      case BlockKind::kClb:
        has_clb = true;
        n_edges_ += spec_->cluster_inputs() + clb_in_taps + clb_out;
        break;
      case BlockKind::kInputPad: {
        has_in = true;
        const int sub = placement_->location(static_cast<int>(bi)).sub;
        n_edges_ += static_cast<std::int64_t>(
            tmpl_->pad_out_tracks[static_cast<std::size_t>(sub)].size());
        break;
      }
      case BlockKind::kOutputPad: {
        has_out = true;
        const int sub = placement_->location(static_cast<int>(bi)).sub;
        n_edges_ += 1 + tmpl_->pad_in_count[static_cast<std::size_t>(sub)];
        break;
      }
    }
  }
  unique_patterns_ = wire_patterns + (has_clb ? 1 : 0) + (has_in ? 1 : 0) +
                     (has_out ? 1 : 0);
}

void RrGraph::append_wire_taps(bool horizontal, int x, int y, int t,
                               std::vector<int>* out) const {
  // Candidate adjacent blocks, emitted in ascending block order — the
  // dense build appends taps in its global block loop, so per wire the
  // tap edges sort by block id (and by pin within one block).
  struct Cand {
    int block;
    int side;  ///< 0..3 = CLB connection-box side, 4 = output pad
  };
  Cand cands[8];
  int n_cands = 0;
  auto add_clb = [&](int tx, int ty, int side) {
    const int b = clb_block_at(tx, ty);
    if (b >= 0) cands[n_cands++] = {b, side};
  };
  auto add_pads = [&](int tx, int ty) {
    const std::int64_t key =
        static_cast<std::int64_t>(tx) * (ny_ + 2) + ty;
    const auto it =
        std::lower_bound(pad_tile_key_.begin(), pad_tile_key_.end(), key);
    if (it == pad_tile_key_.end() || *it != key) return;
    const std::size_t ti =
        static_cast<std::size_t>(it - pad_tile_key_.begin());
    for (int i = pad_tile_off_[ti]; i < pad_tile_off_[ti + 1]; ++i) {
      const int b = pad_tile_block_[static_cast<std::size_t>(i)];
      if (placement_->blocks()[static_cast<std::size_t>(b)].kind !=
          BlockKind::kOutputPad) {
        continue;
      }
      const int sub = placement_->location(b).sub;
      if (tmpl_->pad_in_has[static_cast<std::size_t>(sub * width_ + t)]) {
        cands[n_cands++] = {b, 4};
      }
    }
  };
  if (horizontal) {
    if (y >= 1) add_clb(x, y, 1);
    if (y + 1 <= ny_) add_clb(x, y + 1, 0);
    if (y == 0) add_pads(x, 0);
    if (y == ny_) add_pads(x, ny_ + 1);
  } else {
    if (x + 1 <= nx_) add_clb(x + 1, y, 2);
    if (x >= 1) add_clb(x, y, 3);
    if (x == 0) add_pads(0, y);
    if (x == nx_) add_pads(nx_ + 1, y);
  }
  // Insertion sort over the (at most 4-entry) fixed array; std::sort on a
  // raw C array trips GCC's -Warray-bounds analysis here.
  for (int i = 1; i < n_cands; ++i) {
    const Cand c = cands[i];
    int j = i - 1;
    while (j >= 0 && cands[j].block > c.block) {
      cands[j + 1] = cands[j];
      --j;
    }
    cands[j + 1] = c;
  }
  for (int i = 0; i < n_cands; ++i) {
    const int base = block_base_[static_cast<std::size_t>(cands[i].block)];
    if (cands[i].side == 4) {
      out->push_back(base + 1);  // output-pad IPIN
    } else {
      for (int p :
           tmpl_->clb_taps[static_cast<std::size_t>(cands[i].side * width_ + t)]) {
        out->push_back(base + 1 + p);
      }
    }
  }
}

void RrGraph::append_out_edges_dedup(int id, std::vector<int>* out) const {
  bool horizontal;
  int x, y, t;
  if (decode_wire(id, &horizontal, &x, &y, &t)) {
    const int sig = wire_signature(horizontal, x, y);
    for (const Leg& leg : tmpl_->legs[horizontal ? 1 : 0][sig]) {
      out->push_back(chan_id(leg.horizontal, x + leg.dx, y + leg.dy, t));
    }
    append_wire_taps(horizontal, x, y, t, out);
    return;
  }
  const int bi = block_of_id(id);
  const int off = id - block_base_[static_cast<std::size_t>(bi)];
  const auto& blk = placement_->blocks()[static_cast<std::size_t>(bi)];
  const Loc& loc = placement_->location(bi);
  const int n_in = spec_->cluster_inputs();
  switch (blk.kind) {
    case BlockKind::kClb:
      if (off == 0) return;  // SINK
      if (off <= n_in) {     // IPIN → SINK
        out->push_back(block_base_[static_cast<std::size_t>(bi)]);
        return;
      }
      {
        const int p = off - 1 - n_in;  // OPIN
        const int side = (p + 1) % 4;
        for (int t2 : tmpl_->clb_opin_tracks[static_cast<std::size_t>(p)]) {
          out->push_back(adjacent_chan(loc.x, loc.y, side, t2));
        }
      }
      return;
    case BlockKind::kInputPad:
      for (int t2 : tmpl_->pad_out_tracks[static_cast<std::size_t>(loc.sub)]) {
        out->push_back(pad_wire(loc, t2));
      }
      return;
    case BlockKind::kOutputPad:
      if (off == 1) {  // IPIN → SINK
        out->push_back(block_base_[static_cast<std::size_t>(bi)]);
      }
      return;
  }
}

void RrGraph::append_out_edges(int id, std::vector<int>* out) const {
  if (dedup_) {
    append_out_edges_dedup(id, out);
    return;
  }
  const auto& e = nodes_[static_cast<std::size_t>(id)].out_edges;
  out->insert(out->end(), e.begin(), e.end());
}

bool RrGraph::has_edge(int from, int to) const {
  if (!dedup_) {
    const auto& e = nodes_[static_cast<std::size_t>(from)].out_edges;
    return std::find(e.begin(), e.end(), to) != e.end();
  }
  thread_local std::vector<int> scratch;
  scratch.clear();
  append_out_edges_dedup(from, &scratch);
  return std::find(scratch.begin(), scratch.end(), to) != scratch.end();
}

// ---------------------------------------------------- node attributes --

RrType RrGraph::node_type(int id) const {
  if (!dedup_) return nodes_[static_cast<std::size_t>(id)].type;
  if (id < chanx_total_) return RrType::kChanX;
  if (id < wire_count_) return RrType::kChanY;
  const int bi = block_of_id(id);
  const int off = id - block_base_[static_cast<std::size_t>(bi)];
  switch (placement_->blocks()[static_cast<std::size_t>(bi)].kind) {
    case BlockKind::kClb:
      if (off == 0) return RrType::kSink;
      return off <= spec_->cluster_inputs() ? RrType::kIpin : RrType::kOpin;
    case BlockKind::kInputPad:
      return RrType::kOpin;
    case BlockKind::kOutputPad:
      return off == 0 ? RrType::kSink : RrType::kIpin;
  }
  return RrType::kSink;
}

RrNode RrGraph::node_info(int id) const {
  if (!dedup_) {
    const RrNode& src = nodes_[static_cast<std::size_t>(id)];
    RrNode n;
    n.type = src.type;
    n.x = src.x;
    n.y = src.y;
    n.track = src.track;
    n.pin = src.pin;
    n.block = src.block;
    n.capacity = src.capacity;
    n.base_cost = src.base_cost;
    return n;  // out_edges left empty in both modes
  }
  RrNode n;
  n.type = RrType::kSink;  // overwritten below; pre-set for -Wmaybe-uninitialized
  bool horizontal;
  int x, y, t;
  if (decode_wire(id, &horizontal, &x, &y, &t)) {
    n.type = horizontal ? RrType::kChanX : RrType::kChanY;
    n.x = x;
    n.y = y;
    n.track = t;
    n.base_cost = 1.0;
    return n;
  }
  const int bi = block_of_id(id);
  const int off = id - block_base_[static_cast<std::size_t>(bi)];
  const Loc& loc = placement_->location(bi);
  n.x = loc.x;
  n.y = loc.y;
  n.block = bi;
  const int n_in = spec_->cluster_inputs();
  switch (placement_->blocks()[static_cast<std::size_t>(bi)].kind) {
    case BlockKind::kClb:
      if (off == 0) {
        n.type = RrType::kSink;
        n.capacity = n_in;
        n.base_cost = 0.0;
      } else if (off <= n_in) {
        n.type = RrType::kIpin;
        n.pin = off - 1;
        n.base_cost = 0.95;
      } else {
        n.type = RrType::kOpin;
        n.pin = off - 1 - n_in;
        n.base_cost = 1.0;
      }
      break;
    case BlockKind::kInputPad:
      n.type = RrType::kOpin;
      n.pin = loc.sub;
      n.base_cost = 1.0;
      break;
    case BlockKind::kOutputPad:
      if (off == 0) {
        n.type = RrType::kSink;
        n.capacity = 1;
        n.base_cost = 0.0;
      } else {
        n.type = RrType::kIpin;
        n.pin = loc.sub;
        n.base_cost = 0.95;
      }
      break;
  }
  return n;
}

int RrGraph::node_x(int id) const {
  if (!dedup_) return nodes_[static_cast<std::size_t>(id)].x;
  bool h;
  int x, y, t;
  if (decode_wire(id, &h, &x, &y, &t)) return x;
  return placement_->location(block_of_id(id)).x;
}

int RrGraph::node_y(int id) const {
  if (!dedup_) return nodes_[static_cast<std::size_t>(id)].y;
  bool h;
  int x, y, t;
  if (decode_wire(id, &h, &x, &y, &t)) return y;
  return placement_->location(block_of_id(id)).y;
}

int RrGraph::node_block(int id) const {
  if (!dedup_) return nodes_[static_cast<std::size_t>(id)].block;
  if (id < wire_count_) return -1;
  return block_of_id(id);
}

int RrGraph::node_capacity(int id) const {
  if (!dedup_) return nodes_[static_cast<std::size_t>(id)].capacity;
  if (id < wire_count_) return 1;
  const int bi = block_of_id(id);
  const int off = id - block_base_[static_cast<std::size_t>(bi)];
  const auto kind = placement_->blocks()[static_cast<std::size_t>(bi)].kind;
  if (off == 0 && kind == BlockKind::kClb) return spec_->cluster_inputs();
  return 1;
}

void RrGraph::fill_soa(std::vector<signed char>* type, std::vector<short>* x,
                       std::vector<short>* y, std::vector<short>* cap,
                       std::vector<double>* base_cost,
                       std::vector<int>* ipin_sink) const {
  const std::size_t nn = static_cast<std::size_t>(n_nodes_);
  const std::size_t wires = static_cast<std::size_t>(wire_count_);
  if (type != nullptr) type->resize(nn);
  if (x != nullptr) x->resize(nn);
  if (y != nullptr) y->resize(nn);
  if (cap != nullptr) cap->resize(nn);
  if (base_cost != nullptr) base_cost->resize(nn);
  if (ipin_sink != nullptr) ipin_sink->assign(nn - wires, -1);
  if (!dedup_) {
    for (std::size_t i = 0; i < nn; ++i) {
      const RrNode& n = nodes_[i];
      if (type != nullptr) (*type)[i] = static_cast<signed char>(n.type);
      if (x != nullptr) (*x)[i] = static_cast<short>(n.x);
      if (y != nullptr) (*y)[i] = static_cast<short>(n.y);
      if (cap != nullptr) (*cap)[i] = static_cast<short>(n.capacity);
      if (base_cost != nullptr) (*base_cost)[i] = n.base_cost;
      if (ipin_sink != nullptr && n.type == RrType::kIpin) {
        (*ipin_sink)[i - wires] = n.out_edges.front();
      }
    }
    return;
  }
  // Wires, written in id order (chanx y-major, then chany x-major).
  std::size_t i = 0;
  constexpr signed char kCx = static_cast<signed char>(RrType::kChanX);
  constexpr signed char kCy = static_cast<signed char>(RrType::kChanY);
  for (int wy = 0; wy <= ny_; ++wy) {
    for (int wx = 1; wx <= nx_; ++wx) {
      for (int t = 0; t < width_; ++t, ++i) {
        if (type != nullptr) (*type)[i] = kCx;
        if (x != nullptr) (*x)[i] = static_cast<short>(wx);
        if (y != nullptr) (*y)[i] = static_cast<short>(wy);
        if (cap != nullptr) (*cap)[i] = 1;
        if (base_cost != nullptr) (*base_cost)[i] = 1.0;
      }
    }
  }
  for (int wx = 0; wx <= nx_; ++wx) {
    for (int wy = 1; wy <= ny_; ++wy) {
      for (int t = 0; t < width_; ++t, ++i) {
        if (type != nullptr) (*type)[i] = kCy;
        if (x != nullptr) (*x)[i] = static_cast<short>(wx);
        if (y != nullptr) (*y)[i] = static_cast<short>(wy);
        if (cap != nullptr) (*cap)[i] = 1;
        if (base_cost != nullptr) (*base_cost)[i] = 1.0;
      }
    }
  }
  const auto& blocks = placement_->blocks();
  const int n_in = spec_->cluster_inputs();
  auto put = [&](std::size_t j, RrType ty, const Loc& loc, int capacity,
                 double bc) {
    if (type != nullptr) (*type)[j] = static_cast<signed char>(ty);
    if (x != nullptr) (*x)[j] = static_cast<short>(loc.x);
    if (y != nullptr) (*y)[j] = static_cast<short>(loc.y);
    if (cap != nullptr) (*cap)[j] = static_cast<short>(capacity);
    if (base_cost != nullptr) (*base_cost)[j] = bc;
  };
  // A block's SINK is its first node, and its IPINs lead only there.
  auto put_ipin = [&](std::size_t j, const Loc& loc, int sink) {
    put(j, RrType::kIpin, loc, 1, 0.95);
    if (ipin_sink != nullptr) (*ipin_sink)[j - wires] = sink;
  };
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const Loc& loc = placement_->location(static_cast<int>(bi));
    const int sink = block_base_[bi];
    std::size_t j = static_cast<std::size_t>(sink);
    switch (blocks[bi].kind) {
      case BlockKind::kClb:
        put(j++, RrType::kSink, loc, n_in, 0.0);
        for (int p = 0; p < n_in; ++p) put_ipin(j++, loc, sink);
        for (int p = 0; p < spec_->n; ++p) {
          put(j++, RrType::kOpin, loc, 1, 1.0);
        }
        break;
      case BlockKind::kInputPad:
        put(j, RrType::kOpin, loc, 1, 1.0);
        break;
      case BlockKind::kOutputPad:
        put(j, RrType::kSink, loc, 1, 0.0);
        put_ipin(j + 1, loc, sink);
        break;
    }
  }
}

int RrGraph::find_chan(RrType type, int x, int y, int track) const {
  if (track < 0 || track >= width_) return -1;
  if (type == RrType::kChanX) {
    if (x < 1 || x > nx_ || y < 0 || y > ny_) return -1;
    return chanx_id(x, y, track);
  }
  if (type == RrType::kChanY) {
    if (x < 0 || x > nx_ || y < 1 || y > ny_) return -1;
    return chany_id(x, y, track);
  }
  return -1;
}

int RrGraph::find_block_node(int block, RrType type, int pin) const {
  if (block < 0 ||
      block >= static_cast<int>(placement_->blocks().size())) {
    return -1;
  }
  const int base = block_base_[static_cast<std::size_t>(block)];
  const Loc& loc = placement_->location(block);
  const int n_in = spec_->cluster_inputs();
  switch (placement_->blocks()[static_cast<std::size_t>(block)].kind) {
    case BlockKind::kClb:
      if (type == RrType::kSink && pin == -1) return base;
      if (type == RrType::kIpin && pin >= 0 && pin < n_in) {
        return base + 1 + pin;
      }
      if (type == RrType::kOpin && pin >= 0 && pin < spec_->n) {
        return base + 1 + n_in + pin;
      }
      return -1;
    case BlockKind::kInputPad:
      return (type == RrType::kOpin && pin == loc.sub) ? base : -1;
    case BlockKind::kOutputPad:
      if (type == RrType::kSink && pin == -1) return base;
      if (type == RrType::kIpin && pin == loc.sub) return base + 1;
      return -1;
  }
  return -1;
}

// ------------------------------------------------------- dense oracle --

void RrGraph::build_dense() {
  const Placement& pl = *placement_;
  const arch::ArchSpec& spec = *spec_;

  // Node count is known up front: wires for every channel position plus
  // pins per block. Reserving once keeps the build from repeatedly
  // moving RrNodes (each owns an edge vector) as nodes_ grows.
  nodes_.reserve(static_cast<std::size_t>(n_nodes_));

  auto add_node = [&](RrNode node) {
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  };

  // ---- wire nodes ----
  for (int y = 0; y <= ny_; ++y) {
    for (int x = 1; x <= nx_; ++x) {
      for (int t = 0; t < width_; ++t) {
        RrNode n;
        n.type = RrType::kChanX;
        n.x = x;
        n.y = y;
        n.track = t;
        n.base_cost = 1.0;
        n.out_edges.reserve(8);  // 6 switch-box legs + pin taps
        add_node(std::move(n));
      }
    }
  }
  for (int x = 0; x <= nx_; ++x) {
    for (int y = 1; y <= ny_; ++y) {
      for (int t = 0; t < width_; ++t) {
        RrNode n;
        n.type = RrType::kChanY;
        n.x = x;
        n.y = y;
        n.track = t;
        n.base_cost = 1.0;
        n.out_edges.reserve(8);  // 6 switch-box legs + pin taps
        add_node(std::move(n));
      }
    }
  }

  auto connect2 = [&](int a, int b) {
    nodes_[static_cast<std::size_t>(a)].out_edges.push_back(b);
    nodes_[static_cast<std::size_t>(b)].out_edges.push_back(a);
  };

  // ---- disjoint switch boxes (Fs = 3): same-track connections ----
  for (int x = 0; x <= nx_; ++x) {
    for (int y = 0; y <= ny_; ++y) {
      for (int t = 0; t < width_; ++t) {
        const int left = (x >= 1) ? chanx_id(x, y, t) : -1;
        const int right = (x + 1 <= nx_) ? chanx_id(x + 1, y, t) : -1;
        const int below = (y >= 1) ? chany_id(x, y, t) : -1;
        const int above = (y + 1 <= ny_) ? chany_id(x, y + 1, t) : -1;
        if (left >= 0 && right >= 0) connect2(left, right);
        if (below >= 0 && above >= 0) connect2(below, above);
        if (left >= 0 && below >= 0) connect2(left, below);
        if (left >= 0 && above >= 0) connect2(left, above);
        if (right >= 0 && below >= 0) connect2(right, below);
        if (right >= 0 && above >= 0) connect2(right, above);
      }
    }
  }

  // Track selection for a pin: a staggered Fc window.
  const int fc_in_tracks =
      std::max(1, static_cast<int>(std::lround(spec.fc_in * width_)));
  const int fc_out_tracks =
      std::max(1, static_cast<int>(std::lround(spec.fc_out * width_)));

  // ---- per-block pins ----
  const auto& blocks = pl.blocks();
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const auto& blk = blocks[bi];
    const Loc& loc = pl.location(static_cast<int>(bi));
    if (blk.kind == BlockKind::kClb) {
      const int n_in = spec.cluster_inputs();
      const int n_out = spec.n;
      // SINK (capacity I).
      RrNode sink;
      sink.type = RrType::kSink;
      sink.x = loc.x;
      sink.y = loc.y;
      sink.block = static_cast<int>(bi);
      sink.capacity = n_in;
      sink.base_cost = 0.0;
      const int sink_id = add_node(std::move(sink));
      // IPINs.
      for (int p = 0; p < n_in; ++p) {
        RrNode ipin;
        ipin.type = RrType::kIpin;
        ipin.x = loc.x;
        ipin.y = loc.y;
        ipin.pin = p;
        ipin.block = static_cast<int>(bi);
        ipin.base_cost = 0.95;
        const int ipin_id = add_node(std::move(ipin));
        nodes_[static_cast<std::size_t>(ipin_id)].out_edges.push_back(sink_id);
        const int side = p % 4;
        for (int t : pin_tracks(p, fc_in_tracks)) {
          const int wire = adjacent_chan(loc.x, loc.y, side, t);
          nodes_[static_cast<std::size_t>(wire)].out_edges.push_back(ipin_id);
        }
      }
      // OPINs.
      for (int p = 0; p < n_out; ++p) {
        RrNode opin;
        opin.type = RrType::kOpin;
        opin.x = loc.x;
        opin.y = loc.y;
        opin.pin = p;
        opin.block = static_cast<int>(bi);
        opin.base_cost = 1.0;
        const int opin_id = add_node(std::move(opin));
        const int side = (p + 1) % 4;
        for (int t : pin_tracks(p + n_in, fc_out_tracks)) {
          const int wire = adjacent_chan(loc.x, loc.y, side, t);
          nodes_[static_cast<std::size_t>(opin_id)].out_edges.push_back(wire);
        }
      }
    } else if (blk.kind == BlockKind::kInputPad) {
      RrNode opin;
      opin.type = RrType::kOpin;
      opin.x = loc.x;
      opin.y = loc.y;
      opin.pin = loc.sub;
      opin.block = static_cast<int>(bi);
      const int opin_id = add_node(std::move(opin));
      for (int t : pin_tracks(loc.sub, fc_out_tracks)) {
        nodes_[static_cast<std::size_t>(opin_id)].out_edges.push_back(
            pad_wire(loc, t));
      }
    } else {
      RrNode sink;
      sink.type = RrType::kSink;
      sink.x = loc.x;
      sink.y = loc.y;
      sink.block = static_cast<int>(bi);
      sink.capacity = 1;
      sink.base_cost = 0.0;
      const int sink_id = add_node(std::move(sink));
      RrNode ipin;
      ipin.type = RrType::kIpin;
      ipin.x = loc.x;
      ipin.y = loc.y;
      ipin.pin = loc.sub;
      ipin.block = static_cast<int>(bi);
      ipin.base_cost = 0.95;
      const int ipin_id = add_node(std::move(ipin));
      nodes_[static_cast<std::size_t>(ipin_id)].out_edges.push_back(sink_id);
      for (int t : pin_tracks(loc.sub, fc_in_tracks)) {
        nodes_[static_cast<std::size_t>(pad_wire(loc, t))].out_edges.push_back(
            ipin_id);
      }
    }
  }
  AMDREL_CHECK(static_cast<int>(nodes_.size()) == n_nodes_);

  n_edges_ = 0;
  std::int64_t bytes = 0;
  for (const auto& n : nodes_) {
    n_edges_ += static_cast<std::int64_t>(n.out_edges.size());
    bytes += static_cast<std::int64_t>(sizeof(RrNode)) +
             4 * static_cast<std::int64_t>(n.out_edges.capacity());
  }
  bytes_est_ = bytes;
  unique_patterns_ = 0;
}

void RrGraph::build_net_terminals() {
  const Placement& pl = *placement_;
  const auto& blocks = pl.blocks();
  const auto& nets = pl.nets();
  const int n_in = spec_->cluster_inputs();
  net_opin_.assign(nets.size(), -1);
  net_sinks_.assign(nets.size(), {});

  // Cluster output pin slot per signal: index within output_signals.
  for (std::size_t ni = 0; ni < nets.size(); ++ni) {
    const auto& net = nets[ni];
    const auto& src_blk = blocks[static_cast<std::size_t>(net.source)];
    const int src_base = block_base_[static_cast<std::size_t>(net.source)];
    if (src_blk.kind == BlockKind::kClb) {
      const auto& cluster =
          pl.packed().clusters()[static_cast<std::size_t>(src_blk.index)];
      // OPIN p is hard-wired to BLE slot p's output (matches the CLB
      // structure and the bitstream decoder's interpretation).
      int slot = -1;
      for (std::size_t k = 0; k < cluster.bles.size(); ++k) {
        const auto& ble =
            pl.packed().bles()[static_cast<std::size_t>(cluster.bles[k])];
        if (ble.output == net.signal) {
          slot = static_cast<int>(k);
          break;
        }
      }
      AMDREL_CHECK_MSG(slot >= 0, "net source not among cluster outputs");
      AMDREL_CHECK(slot < spec_->n);
      net_opin_[ni] = src_base + 1 + n_in + slot;
    } else {
      AMDREL_CHECK_MSG(src_blk.kind == BlockKind::kInputPad,
                       "net source is not a driver block");
      net_opin_[ni] = src_base;
    }
    for (int sink_blk : net.sinks) {
      if (sink_blk == net.source) continue;  // PI==PO degenerate
      const auto kind = blocks[static_cast<std::size_t>(sink_blk)].kind;
      AMDREL_CHECK_MSG(kind != BlockKind::kInputPad,
                       "sink block has no sink node");
      net_sinks_[ni].push_back(
          block_base_[static_cast<std::size_t>(sink_blk)]);
    }
  }

  bytes_est_ += static_cast<std::int64_t>(net_opin_.size()) * 4;
  for (const auto& v : net_sinks_) {
    bytes_est_ += 24 + 4 * static_cast<std::int64_t>(v.size());
  }
}

int RrGraph::opin_of_net(int net_index) const {
  return net_opin_[static_cast<std::size_t>(net_index)];
}

const std::vector<int>& RrGraph::sinks_of_net(int net_index) const {
  return net_sinks_[static_cast<std::size_t>(net_index)];
}

const std::vector<RrNode>& RrGraph::nodes() const {
  AMDREL_CHECK_MSG(!dedup_,
                   "RrGraph::nodes() requires the dense build "
                   "(RrOptions::dedup = false)");
  return nodes_;
}

std::string RrGraph::stats() const {
  int clbs = 0, outpads = 0;
  for (const auto& b : placement_->blocks()) {
    if (b.kind == BlockKind::kClb) ++clbs;
    else if (b.kind == BlockKind::kOutputPad) ++outpads;
  }
  const int sinks = clbs + outpads;
  const int pins = n_nodes_ - wire_count_ - sinks;
  return strprintf(
      "%d nodes (%d wires, %d pins, %d sinks), %lld edges, W=%d, %s, "
      "%d patterns, ~%lld KiB resident",
      n_nodes_, wire_count_, pins, sinks,
      static_cast<long long>(n_edges_), width_,
      dedup_ ? "dedup" : "dense", unique_patterns_,
      static_cast<long long>(bytes_est_ / 1024));
}

}  // namespace amdrel::route
