#pragma once
// VPR-style placement: adaptive simulated annealing over an island-style
// grid, bounding-box wirelength cost (the paper's flow uses VPR 4.30).
//
// Coordinates follow VPR's convention: CLBs occupy (1..nx, 1..ny); IO pads
// live on the perimeter ring (x==0, x==nx+1, y==0 or y==ny+1), several per
// tile. Clock nets are global (not placed-for / not routed).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "pack/pack.hpp"
#include "util/error.hpp"

namespace amdrel::place {

struct Loc {
  int x = 0;
  int y = 0;
  int sub = 0;  ///< pad slot within an IO tile (0 for CLBs)
  bool operator==(const Loc& o) const {
    return x == o.x && y == o.y && sub == o.sub;
  }
};

/// A placeable block: one packed cluster, or one IO pad (a primary input
/// or primary output of the netlist).
enum class BlockKind { kClb, kInputPad, kOutputPad };

struct Block {
  BlockKind kind;
  int index;                  ///< cluster index, or PI/PO position
  netlist::SignalId signal;   ///< pad signal (pads only)
  std::string name;
};

/// The placement legality invariants, numbered after the lint rules that
/// report them (FL201–FL202).
enum class PlaceInvariant {
  kOverlap = 201,  ///< two blocks share a location
  kOffGrid = 202,  ///< a CLB off the core, or a pad off the ring or slots
};
using PlaceViolation = Violation<PlaceInvariant>;

/// A placed design: blocks, their locations, and the inter-block nets.
class Placement {
 public:
  /// `placement_seed` seeds the random initial placement (different seeds
  /// start the anneal from different shuffles).
  /// `nx`/`ny` override the automatic square grid sizing when > 0 (e.g.
  /// non-square RR-graph tests); the override must still fit the design.
  Placement(const pack::PackedNetlist& packed, const arch::ArchSpec& spec,
            std::uint64_t placement_seed = 1, int nx = 0, int ny = 0);

  const pack::PackedNetlist& packed() const { return *packed_; }
  const arch::ArchSpec& spec() const { return *spec_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }

  const std::vector<Block>& blocks() const { return blocks_; }
  const Loc& location(int block) const {
    return locs_[static_cast<std::size_t>(block)];
  }
  /// Block index of a cluster / of the pad for a PI or PO signal.
  int block_of_cluster(int cluster) const;
  int block_of_pad(netlist::SignalId s) const;
  /// Block index by display name (-1 if absent).
  int block_by_name(const std::string& name) const;
  /// Overrides a block's location (validate() afterwards to check).
  void set_location(int block, const Loc& loc);

  /// Inter-block nets (source block + sink blocks), clocks excluded.
  struct Net {
    netlist::SignalId signal;
    int source = -1;
    std::vector<int> sinks;
  };
  const std::vector<Net>& nets() const { return nets_; }

  /// Half-perimeter wirelength of one net / of the whole placement,
  /// with VPR's fanout correction factor q(n).
  double net_cost(const Net& net) const;
  double total_cost() const;

  /// Runs the annealer (called by `place`); also used by tests directly.
  struct AnnealOptions {
    std::uint64_t seed = 1;
    double inner_num = 10.0;   ///< moves per block per temperature
    /// Incremental cost: keep a cached cost per net and rebuild only the
    /// moved blocks' nets from a flat pin list. false = recompute every
    /// affected net's cost before and after each move from the Net
    /// structs — slow, kept as the correctness oracle: both modes follow
    /// bit-identical trajectories.
    bool incremental = true;
    /// ECO: per-block movability mask (indexed by block id). Blocks
    /// outside the mask keep their locations bit-for-bit: they are never
    /// picked, and swaps that would displace one are rejected. nullptr =
    /// every block is movable.
    const std::vector<char>* movable = nullptr;
    /// Cap on the annealer's move-radius window (rlim); <= 0 = the grid
    /// dimension. ECO uses a small cap for radius-limited local moves.
    double rlim_max = -1.0;
  };
  struct AnnealStats {
    double initial_cost = 0;
    double final_cost = 0;
    int temperatures = 0;
    long long moves = 0;
    long long accepted = 0;
  };
  AnnealStats anneal(const AnnealOptions& options);

  /// Every violated placement invariant; empty for a legal placement
  /// (every anneal ends with one).
  std::vector<PlaceViolation> violations() const;

  /// Throws Error naming the first of violations().
  void validate() const { throw_first(violations(), "placement"); }

  /// Every legal CLB / IO-pad location on this grid, in deterministic
  /// scan order (public so the ECO engine can assign freed slots).
  std::vector<Loc> legal_clb_locs() const;
  std::vector<Loc> legal_io_locs() const;

 private:
  void build_blocks_and_nets();
  void initial_place(std::uint64_t seed);

  const pack::PackedNetlist* packed_;
  const arch::ArchSpec* spec_;
  int nx_ = 1, ny_ = 1;
  std::vector<Block> blocks_;
  std::vector<Loc> locs_;
  std::vector<Net> nets_;
  std::map<netlist::SignalId, int> pad_block_;
  std::map<std::string, int> name_block_;
  std::vector<int> cluster_block_;
  // The nets each block pins, in ascending net id, once each even when the
  // block pins a net twice (a pad that is both its source and a sink):
  // the anneal merge-walks two of these lists per move.
  std::vector<std::vector<int>> block_nets_;
};

/// Rebuilds a Network from the placement's block list: logic from each
/// placed CLB's BLEs, primary inputs/outputs from the placed IO pads
/// (plus the unplaced global clock inputs). A cluster or pad lost or
/// duplicated by placement shows up as a validation or equivalence
/// failure against the mapped network.
netlist::Network reconstruct_network(const Placement& placement);

}  // namespace amdrel::place
