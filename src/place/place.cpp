#include "place/place.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace amdrel::place {

using netlist::kNoSignal;
using netlist::Network;
using netlist::SignalId;

namespace {

/// VPR's net-fanout correction factor q(n) (Cheng's RISA table, as used
/// by VPR's bounding-box cost).
double fanout_q(int n_pins) {
  static const double kQ[] = {1.0,    1.0,    1.0,    1.0828, 1.1536, 1.2206,
                              1.2823, 1.3385, 1.3991, 1.4493, 1.4974};
  if (n_pins <= 10) return kQ[n_pins >= 1 ? n_pins : 1];
  // Linear extrapolation beyond 10 pins, as VPR does.
  return 1.4974 + 0.02616 * (n_pins - 10);
}

}  // namespace

Placement::Placement(const pack::PackedNetlist& packed,
                     const arch::ArchSpec& spec, std::uint64_t placement_seed,
                     int nx, int ny)
    : packed_(&packed), spec_(&spec) {
  build_blocks_and_nets();
  if (nx > 0 && ny > 0) {
    // Grid override: same legality rules, caller-chosen aspect ratio.
    AMDREL_CHECK_MSG(
        static_cast<long long>(nx) * ny >=
            static_cast<long long>(packed_->clusters().size()),
        "grid override too small for the packed clusters");
    AMDREL_CHECK_MSG(2 * (nx + ny) * spec_->io_per_tile >=
                         static_cast<int>(pad_block_.size()),
                     "grid override perimeter too small for the IO pads");
    nx_ = nx;
    ny_ = ny;
  }
  initial_place(placement_seed);
}

void Placement::build_blocks_and_nets() {
  const Network& net = packed_->network();

  // Identify clock signals: latch clocks are global.
  std::set<SignalId> clocks;
  for (const auto& l : net.latches()) {
    if (l.clock != kNoSignal) clocks.insert(l.clock);
  }

  cluster_block_.clear();
  for (std::size_t ci = 0; ci < packed_->clusters().size(); ++ci) {
    cluster_block_.push_back(static_cast<int>(blocks_.size()));
    blocks_.push_back(Block{BlockKind::kClb, static_cast<int>(ci), kNoSignal,
                            strprintf("clb%zu", ci)});
  }
  for (SignalId s : net.inputs()) {
    if (clocks.count(s)) continue;  // global clock needs no routed pad net
    pad_block_.emplace(s, static_cast<int>(blocks_.size()));
    blocks_.push_back(Block{BlockKind::kInputPad,
                            static_cast<int>(pad_block_.size()) - 1, s,
                            net.signal_name(s)});
  }
  for (SignalId s : net.outputs()) {
    if (pad_block_.count(s)) continue;  // signal both PI and PO: one pad
    pad_block_.emplace(s, static_cast<int>(blocks_.size()));
    blocks_.push_back(Block{BlockKind::kOutputPad,
                            static_cast<int>(pad_block_.size()) - 1, s,
                            net.signal_name(s) + "_pad"});
  }

  // Grid size.
  auto grid = arch::size_grid(*spec_, static_cast<int>(packed_->clusters().size()),
                              static_cast<int>(pad_block_.size()));
  nx_ = grid.nx;
  ny_ = grid.ny;

  // Nets: signal → source block + sink blocks.
  // Source: producing cluster or input pad. Sinks: consuming clusters
  // (via cluster input lists) and output pads.
  std::map<SignalId, Net> by_signal;
  auto net_for = [&](SignalId s) -> Net& {
    auto it = by_signal.find(s);
    if (it == by_signal.end()) {
      it = by_signal.emplace(s, Net{s, -1, {}}).first;
    }
    return it->second;
  };
  for (std::size_t ci = 0; ci < packed_->clusters().size(); ++ci) {
    const auto& c = packed_->clusters()[ci];
    for (SignalId s : c.output_signals) {
      net_for(s).source = cluster_block_[ci];
    }
    for (SignalId s : c.input_signals) {
      if (clocks.count(s)) continue;
      net_for(s).sinks.push_back(cluster_block_[ci]);
    }
  }
  for (const auto& [s, b] : pad_block_) {
    if (blocks_[static_cast<std::size_t>(b)].kind == BlockKind::kInputPad) {
      net_for(s).source = b;
    } else {
      net_for(s).sinks.push_back(b);
    }
    // A PI that is also a PO: pad is both; handled by the source above.
    if (net.is_output(s) &&
        blocks_[static_cast<std::size_t>(b)].kind == BlockKind::kInputPad) {
      net_for(s).sinks.push_back(b);
    }
  }
  for (auto& [s, n] : by_signal) {
    if (n.source < 0 || n.sinks.empty()) continue;  // internal-only signal
    nets_.push_back(std::move(n));
  }

  block_nets_.assign(blocks_.size(), {});
  for (std::size_t ni = 0; ni < nets_.size(); ++ni) {
    std::set<int> members(nets_[ni].sinks.begin(), nets_[ni].sinks.end());
    members.insert(nets_[ni].source);
    for (int b : members) {
      block_nets_[static_cast<std::size_t>(b)].push_back(static_cast<int>(ni));
    }
  }

  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    name_block_.emplace(blocks_[b].name, static_cast<int>(b));
  }
}

std::vector<Loc> Placement::legal_clb_locs() const {
  std::vector<Loc> out;
  for (int x = 1; x <= nx_; ++x) {
    for (int y = 1; y <= ny_; ++y) out.push_back(Loc{x, y, 0});
  }
  return out;
}

std::vector<Loc> Placement::legal_io_locs() const {
  std::vector<Loc> out;
  for (int sub = 0; sub < spec_->io_per_tile; ++sub) {
    for (int x = 1; x <= nx_; ++x) {
      out.push_back(Loc{x, 0, sub});
      out.push_back(Loc{x, ny_ + 1, sub});
    }
    for (int y = 1; y <= ny_; ++y) {
      out.push_back(Loc{0, y, sub});
      out.push_back(Loc{nx_ + 1, y, sub});
    }
  }
  return out;
}

void Placement::initial_place(std::uint64_t seed) {
  Rng rng(seed);
  auto clb_locs = legal_clb_locs();
  auto io_locs = legal_io_locs();
  rng.shuffle(clb_locs);
  rng.shuffle(io_locs);
  locs_.assign(blocks_.size(), Loc{});
  std::size_t ci = 0, ii = 0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].kind == BlockKind::kClb) {
      AMDREL_CHECK(ci < clb_locs.size());
      locs_[b] = clb_locs[ci++];
    } else {
      AMDREL_CHECK(ii < io_locs.size());
      locs_[b] = io_locs[ii++];
    }
  }
}

int Placement::block_of_cluster(int cluster) const {
  return cluster_block_[static_cast<std::size_t>(cluster)];
}

int Placement::block_of_pad(SignalId s) const {
  auto it = pad_block_.find(s);
  AMDREL_CHECK_MSG(it != pad_block_.end(), "signal has no pad");
  return it->second;
}

int Placement::block_by_name(const std::string& name) const {
  auto it = name_block_.find(name);
  return it == name_block_.end() ? -1 : it->second;
}

void Placement::set_location(int block, const Loc& loc) {
  AMDREL_CHECK(block >= 0 && block < static_cast<int>(blocks_.size()));
  locs_[static_cast<std::size_t>(block)] = loc;
}

double Placement::net_cost(const Net& net) const {
  int xmin = 1 << 30, xmax = -1, ymin = 1 << 30, ymax = -1;
  auto touch = [&](int b) {
    const Loc& l = locs_[static_cast<std::size_t>(b)];
    xmin = std::min(xmin, l.x);
    xmax = std::max(xmax, l.x);
    ymin = std::min(ymin, l.y);
    ymax = std::max(ymax, l.y);
  };
  touch(net.source);
  for (int b : net.sinks) touch(b);
  const int pins = 1 + static_cast<int>(net.sinks.size());
  return fanout_q(pins) * ((xmax - xmin) + (ymax - ymin));
}

double Placement::total_cost() const {
  double c = 0;
  for (const auto& n : nets_) c += net_cost(n);
  return c;
}

Placement::AnnealStats Placement::anneal(const AnnealOptions& options) {
  Rng rng(options.seed);
  AnnealStats stats;
  stats.initial_cost = total_cost();
  obs::Span span("place.anneal");

  // Block lists by type for move selection (locked blocks excluded: they
  // are never picked, and propose_and_apply rejects swaps onto them).
  std::vector<int> clbs, ios;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (options.movable != nullptr && !(*options.movable)[b]) continue;
    (blocks_[b].kind == BlockKind::kClb ? clbs : ios).push_back(
        static_cast<int>(b));
  }
  if (clbs.empty() && ios.empty()) {
    stats.final_cost = stats.initial_cost;
    validate();
    return stats;
  }

  // Occupancy map: location → block (or -1).
  auto loc_key = [&](const Loc& l) {
    return (l.x * (ny_ + 2) + l.y) * spec_->io_per_tile + l.sub;
  };
  std::vector<int> occupant(
      static_cast<std::size_t>((nx_ + 2) * (ny_ + 2) * spec_->io_per_tile),
      -1);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    occupant[static_cast<std::size_t>(loc_key(locs_[b]))] = static_cast<int>(b);
  }

  const std::vector<Loc> io_locs = legal_io_locs();

  const int n_blocks = static_cast<int>(clbs.size() + ios.size());
  const long long moves_per_t = std::max<long long>(
      32, static_cast<long long>(options.inner_num *
                                 std::pow(n_blocks, 4.0 / 3.0)));

  // Initial temperature: 20 × stddev of random-move deltas (VPR).
  double cost = stats.initial_cost;
  const double rlim_cap =
      options.rlim_max > 0
          ? std::min(options.rlim_max, static_cast<double>(std::max(nx_, ny_)))
          : static_cast<double>(std::max(nx_, ny_));
  double rlim = rlim_cap;

  const std::size_t n_nets = nets_.size();

  // --- Incremental cost state -------------------------------------------
  // Cached cost per net, plus flat CSR copies of the block→net and
  // net→pin-block adjacency so the hot loop walks contiguous ints instead
  // of chasing vector-of-vector pointers.
  std::vector<double> net_q(n_nets);
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    net_q[ni] = fanout_q(1 + static_cast<int>(nets_[ni].sinks.size()));
  }
  std::vector<double> cached_cost(n_nets, 0.0);

  // block → nets, ascending net id (CSR).
  std::vector<int> bn_off(blocks_.size() + 1, 0);
  std::vector<int> bn_net;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    bn_off[b + 1] = bn_off[b] + static_cast<int>(block_nets_[b].size());
    bn_net.insert(bn_net.end(), block_nets_[b].begin(), block_nets_[b].end());
  }
  // net → pin blocks, source first (CSR).
  std::vector<int> np_off(n_nets + 1, 0);
  std::vector<int> np_blk;
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    np_off[ni + 1] = np_off[ni] + 1 + static_cast<int>(nets_[ni].sinks.size());
    np_blk.push_back(nets_[ni].source);
    for (int s : nets_[ni].sinks) np_blk.push_back(s);
  }
  // SoA copy of the block locations: the bbox rebuilds touch only x and
  // y, and two packed int arrays halve the memory traffic of chasing
  // 12-byte Loc structs. locs_ stays authoritative; `put` updates all
  // three at every apply/revert.
  std::vector<int> lx(blocks_.size()), ly(blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    lx[b] = locs_[b].x;
    ly[b] = locs_[b].y;
  }
  auto put = [&](int blk, const Loc& l) {
    const std::size_t i = static_cast<std::size_t>(blk);
    locs_[i] = l;
    lx[i] = l.x;
    ly[i] = l.y;
  };

  // A net's cost rebuilt over its flat pin list: four min/max per pin, no
  // branches. LUT netlists have few pins per net (DESIGN §7), so this
  // beats maintaining VPR-style edge counts for an O(1) update.
  auto flat_cost = [&](std::size_t ni) {
    const int* p = np_blk.data() + np_off[ni];
    const int* const end = np_blk.data() + np_off[ni + 1];
    int xmin = lx[static_cast<std::size_t>(*p)], xmax = xmin;
    int ymin = ly[static_cast<std::size_t>(*p)], ymax = ymin;
    for (++p; p != end; ++p) {
      const int tx = lx[static_cast<std::size_t>(*p)];
      const int ty = ly[static_cast<std::size_t>(*p)];
      xmin = std::min(xmin, tx);
      xmax = std::max(xmax, tx);
      ymin = std::min(ymin, ty);
      ymax = std::max(ymax, ty);
    }
    return net_q[ni] * ((xmax - xmin) + (ymax - ymin));
  };
  if (options.incremental) {
    for (std::size_t ni = 0; ni < n_nets; ++ni) cached_cost[ni] = flat_cost(ni);
  }

  // Per-move scratch: each affected net's new cost, written back to
  // cached_cost if the move is accepted (stays empty on the oracle path).
  struct Touched {
    int ni = 0;
    double cost = 0;
  };
  std::vector<Touched> touched;
  touched.reserve(64);
  std::vector<double> oracle_before;  ///< oracle path's per-net old costs
  oracle_before.reserve(64);

  auto propose_and_apply = [&](double temperature, bool always_accept,
                               double* delta_out) -> bool {
    // Pick a random block; find a partner location within rlim.
    bool move_clb = !clbs.empty() && (ios.empty() || rng.next_bool(0.7));
    const std::vector<int>& group = move_clb ? clbs : ios;
    int b = group[static_cast<std::size_t>(rng.next_below(group.size()))];
    const Loc from = locs_[static_cast<std::size_t>(b)];

    Loc to;
    if (move_clb) {
      const int r = std::max(1, static_cast<int>(rlim));
      to.x = std::clamp(from.x + rng.next_int(-r, r), 1, nx_);
      to.y = std::clamp(from.y + rng.next_int(-r, r), 1, ny_);
      to.sub = 0;
    } else {
      to = io_locs[static_cast<std::size_t>(rng.next_below(io_locs.size()))];
    }
    if (to == from) return false;
    int other = occupant[static_cast<std::size_t>(loc_key(to))];
    if (other >= 0 && blocks_[static_cast<std::size_t>(other)].kind !=
                          blocks_[static_cast<std::size_t>(b)].kind) {
      // IO↔CLB swaps are illegal; CLB moves only land on CLB tiles by
      // construction, so this triggers only when pads share coordinates.
      return false;
    }
    if (other >= 0 && options.movable != nullptr &&
        !(*options.movable)[static_cast<std::size_t>(other)]) {
      return false;  // would displace a locked block
    }

    double delta = 0;
    if (options.incremental) {
      put(b, to);
      if (other >= 0) put(other, from);
      // Merge walk over the two blocks' sorted net lists: every affected
      // net once, in ascending net id, rebuilt with both blocks at their
      // new spots. The oracle path sums the same bit-identical per-net
      // differences in the same order, so the two modes accept the same
      // moves, consume the same rng stream, and anneal along
      // bit-identical trajectories.
      touched.clear();
      int ea = bn_off[static_cast<std::size_t>(b)];
      const int ea_end = bn_off[static_cast<std::size_t>(b) + 1];
      int eb = other >= 0 ? bn_off[static_cast<std::size_t>(other)] : 0;
      const int eb_end =
          other >= 0 ? bn_off[static_cast<std::size_t>(other) + 1] : 0;
      constexpr int kEnd = std::numeric_limits<int>::max();
      while (ea < ea_end || eb < eb_end) {
        const int na =
            ea < ea_end ? bn_net[static_cast<std::size_t>(ea)] : kEnd;
        const int nb =
            eb < eb_end ? bn_net[static_cast<std::size_t>(eb)] : kEnd;
        const int ni = na < nb ? na : nb;
        if (na == ni) ++ea;
        if (nb == ni) ++eb;
        const std::size_t i = static_cast<std::size_t>(ni);
        const double c = flat_cost(i);
        touched.push_back(Touched{ni, c});
        delta += c - cached_cost[i];
      }
    } else {
      // Oracle path: recompute every affected net's full bbox cost before
      // and after the move, per net in ascending net id order (matching
      // the incremental path's summation exactly — see above).
      const std::vector<int>& nets_b = block_nets_[static_cast<std::size_t>(b)];
      std::set<int> affected_set(nets_b.begin(), nets_b.end());
      if (other >= 0) {
        const std::vector<int>& nets_o =
            block_nets_[static_cast<std::size_t>(other)];
        affected_set.insert(nets_o.begin(), nets_o.end());
      }
      oracle_before.clear();
      for (int ni : affected_set) {
        oracle_before.push_back(net_cost(nets_[static_cast<std::size_t>(ni)]));
      }
      put(b, to);
      if (other >= 0) put(other, from);
      std::size_t k = 0;
      for (int ni : affected_set) {
        delta += net_cost(nets_[static_cast<std::size_t>(ni)]) -
                 oracle_before[k++];
      }
    }
    *delta_out = delta;

    bool accept =
        always_accept || delta <= 0 ||
        (temperature > 0 && rng.next_double() < std::exp(-delta / temperature));
    if (accept) {
      for (const Touched& t : touched) {
        cached_cost[static_cast<std::size_t>(t.ni)] = t.cost;
      }
      occupant[static_cast<std::size_t>(loc_key(to))] = b;
      occupant[static_cast<std::size_t>(loc_key(from))] = other;
      cost += delta;
      return true;
    }
    // Revert.
    put(b, from);
    if (other >= 0) put(other, to);
    return false;
  };

  // Estimate T0.
  double sum = 0, sum2 = 0;
  int samples = 0;
  for (int i = 0; i < std::min(200, 10 * n_blocks); ++i) {
    double delta = 0;
    if (propose_and_apply(0, /*always_accept=*/true, &delta)) {
      sum += delta;
      sum2 += delta * delta;
      ++samples;
    }
  }
  double t = 1.0;
  if (samples > 1) {
    double var = (sum2 - sum * sum / samples) / (samples - 1);
    t = 20.0 * std::sqrt(std::max(var, 1e-9));
  }
  cost = total_cost();  // re-sync after the shuffling sample moves

  const double exit_t =
      0.005 * cost / std::max<std::size_t>(1, nets_.size());
  while (t > exit_t && cost > 1e-9) {
    long long accepted = 0;
    for (long long m = 0; m < moves_per_t; ++m) {
      double delta = 0;
      if (propose_and_apply(t, false, &delta)) ++accepted;
      ++stats.moves;
    }
    stats.accepted += accepted;
    ++stats.temperatures;
    if (options.incremental) {
      // Bound float drift of the running incremental cost: once per
      // temperature, recompute from scratch, assert agreement, resync.
      const double scratch = total_cost();
      AMDREL_CHECK_MSG(
          std::abs(cost - scratch) <= 1e-6 * std::max(1.0, scratch),
          "incremental placement cost drifted from scratch recompute");
      cost = scratch;
    }
    const double alpha_rate =
        static_cast<double>(accepted) / static_cast<double>(moves_per_t);
    // VPR's adaptive cooling.
    double alpha;
    if (alpha_rate > 0.96) alpha = 0.5;
    else if (alpha_rate > 0.8) alpha = 0.9;
    else if (alpha_rate > 0.15) alpha = 0.95;
    else alpha = 0.8;
    t *= alpha;
    // Window adaptation toward 44% acceptance.
    rlim = std::clamp(rlim * (1.0 - 0.44 + alpha_rate), 1.0, rlim_cap);
    if (obs::enabled()) {
      obs::point("place.temperature",
                 {{"t", t},
                  {"cost", cost},
                  {"accept_rate", alpha_rate},
                  {"rlim", rlim}});
    }
  }
  stats.final_cost = total_cost();
  if (span.active()) {
    span.metric("temperatures", static_cast<double>(stats.temperatures));
    span.metric("moves", static_cast<double>(stats.moves));
    span.metric("accepted", static_cast<double>(stats.accepted));
    span.metric("initial_cost", stats.initial_cost);
    span.metric("final_cost", stats.final_cost);
  }
  static obs::Counter& c_moves = obs::counter("place.moves");
  static obs::Counter& c_accepted = obs::counter("place.accepted");
  static obs::Counter& c_anneals = obs::counter("place.anneals");
  c_moves.add(static_cast<std::uint64_t>(stats.moves));
  c_accepted.add(static_cast<std::uint64_t>(stats.accepted));
  c_anneals.add(1);
  validate();
  return stats;
}

std::vector<PlaceViolation> Placement::violations() const {
  std::vector<PlaceViolation> found;
  const auto fail = [&](PlaceInvariant kind, std::size_t b,
                        std::string message) {
    found.push_back({kind, "block '" + blocks_[b].name + "'",
                     std::move(message)});
  };
  std::set<std::tuple<int, int, int>> used;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const Loc& l = locs_[b];
    if (blocks_[b].kind == BlockKind::kClb) {
      if (l.x < 1 || l.x > nx_ || l.y < 1 || l.y > ny_) {
        fail(PlaceInvariant::kOffGrid, b,
             strprintf("CLB at (%d,%d) outside the %dx%d core", l.x, l.y,
                       nx_, ny_));
      }
    } else {
      const bool on_ring = (l.x == 0 || l.x == nx_ + 1) !=
                           (l.y == 0 || l.y == ny_ + 1);
      if (!on_ring) {
        fail(PlaceInvariant::kOffGrid, b,
             strprintf("IO pad at (%d,%d) not on the perimeter ring", l.x,
                       l.y));
      }
      if (l.sub < 0 || l.sub >= spec_->io_per_tile) {
        fail(PlaceInvariant::kOffGrid, b,
             strprintf("pad sub-slot %d outside [0,%d)", l.sub,
                       spec_->io_per_tile));
      }
    }
    if (!used.insert(std::make_tuple(l.x, l.y, l.sub)).second) {
      fail(PlaceInvariant::kOverlap, b,
           strprintf("location (%d,%d) slot %d already occupied", l.x, l.y,
                     l.sub));
    }
  }
  return found;
}

netlist::Network reconstruct_network(const Placement& placement) {
  const pack::PackedNetlist& packed = placement.packed();
  const netlist::Network& src = packed.network();
  netlist::Network out(src.name());
  const auto sig = [&](SignalId s) {
    return out.get_or_add_signal(src.signal_name(s));
  };
  // Global clocks are not placed as pads; re-add them as inputs first so
  // the PI set matches the source network.
  std::set<SignalId> clocks;
  for (const auto& l : src.latches()) {
    if (l.clock != kNoSignal) clocks.insert(l.clock);
  }
  for (const SignalId s : src.inputs()) {
    if (clocks.count(s) != 0) out.add_input(sig(s));
  }
  std::set<int> placed_clusters;
  std::set<SignalId> output_pads;
  for (const Block& block : placement.blocks()) {
    switch (block.kind) {
      case BlockKind::kInputPad:
        out.add_input(sig(block.signal));
        break;
      case BlockKind::kOutputPad:
        output_pads.insert(block.signal);  // emitted in source order below
        break;
      case BlockKind::kClb: {
        AMDREL_CHECK_MSG(placed_clusters.insert(block.index).second,
                         "cluster placed twice");
        const pack::Cluster& cluster =
            packed.clusters()[static_cast<std::size_t>(block.index)];
        for (const int bi : cluster.bles) {
          const pack::Ble& ble =
              packed.bles()[static_cast<std::size_t>(bi)];
          if (ble.lut_gate >= 0) {
            const netlist::Gate& g =
                src.gates()[static_cast<std::size_t>(ble.lut_gate)];
            std::vector<SignalId> inputs;
            inputs.reserve(ble.inputs.size());
            for (const SignalId s : ble.inputs) inputs.push_back(sig(s));
            const SignalId lut_out =
                ble.latch >= 0
                    ? src.latches()[static_cast<std::size_t>(ble.latch)].d
                    : ble.output;
            out.add_gate(g.name, g.table, std::move(inputs), sig(lut_out));
          }
          if (ble.latch >= 0) {
            const netlist::Latch& l =
                src.latches()[static_cast<std::size_t>(ble.latch)];
            const SignalId d = ble.lut_gate >= 0 ? l.d : ble.inputs.at(0);
            out.add_latch(l.name, sig(d), sig(ble.output),
                          ble.clock == kNoSignal ? kNoSignal
                                                 : sig(ble.clock),
                          l.init);
          }
        }
        break;
      }
    }
  }
  AMDREL_CHECK_MSG(placed_clusters.size() == packed.clusters().size(),
                   "placement lost a cluster");
  for (const SignalId s : src.outputs()) {
    AMDREL_CHECK_MSG(output_pads.count(s) != 0 || clocks.count(s) != 0,
                     "placement lost an output pad");
    out.add_output(sig(s));
  }
  out.validate();
  return out;
}

}  // namespace amdrel::place
