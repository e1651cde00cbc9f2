#pragma once
// T-VPack — BLE formation and greedy cluster packing.
//
// Takes a K-LUT network (from the mapper) and groups LUT/FF pairs into
// Basic Logic Elements, then packs BLEs into clusters of N respecting the
// paper's CLB: at most I = (K/2)(N+1) distinct external inputs and one
// clock per cluster. Attraction = number of shared nets (the classic
// T-VPack criterion).

#include <cstdint>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "netlist/network.hpp"
#include "util/error.hpp"

namespace amdrel::pack {

/// One BLE: an optional LUT and an optional FF (at least one present).
struct Ble {
  int lut_gate = -1;    ///< index into network.gates(), -1 if none
  int latch = -1;       ///< index into network.latches(), -1 if none
  netlist::SignalId output = netlist::kNoSignal;  ///< BLE output signal
  std::vector<netlist::SignalId> inputs;          ///< LUT inputs (or FF D)
  netlist::SignalId clock = netlist::kNoSignal;
};

/// One packed cluster (CLB).
struct Cluster {
  std::vector<int> bles;                          ///< indices into bles()
  std::vector<netlist::SignalId> input_signals;   ///< external inputs used
  std::vector<netlist::SignalId> output_signals;  ///< signals leaving
  netlist::SignalId clock = netlist::kNoSignal;
};

/// The packing legality invariants, numbered after the lint rules that
/// report them (FL101–FL104).
enum class PackInvariant {
  kClusterSize = 101,    ///< a cluster holds more than N BLEs
  kClusterInputs = 102,  ///< a cluster uses more than I external inputs
  kClusterClock = 103,   ///< a cluster mixes clocks
  kCoverage = 104,       ///< a LUT, FF or BLE not packed exactly once; an
                         ///< empty BLE or one wider than K
};
using PackViolation = Violation<PackInvariant>;

/// ECO reuse hints: clusters from a previous packing, named by the BLE
/// output signals in slot order. Each hint is all-or-nothing — if every
/// named BLE exists in the new netlist, is still unclustered and the
/// cluster satisfies the N/I/clock constraints, it is recreated with the
/// same slot order (so per-slot OPIN wiring survives); otherwise the hint
/// is dropped and those BLEs fall back to greedy packing.
struct PackHints {
  std::vector<std::vector<std::string>> clusters;
};

class PackedNetlist {
 public:
  PackedNetlist(const netlist::Network& network, const arch::ArchSpec& spec);

  /// Packs with reuse hints; hint_cluster() reports which hints survived.
  PackedNetlist(const netlist::Network& network, const arch::ArchSpec& spec,
                const PackHints& hints);

  const netlist::Network& network() const { return *network_; }
  const arch::ArchSpec& spec() const { return *spec_; }
  const std::vector<Ble>& bles() const { return bles_; }
  const std::vector<Cluster>& clusters() const { return clusters_; }

  /// Cluster index containing each BLE.
  int cluster_of_ble(int ble) const { return ble_cluster_[static_cast<std::size_t>(ble)]; }

  /// For the hints constructor: hint index → recreated cluster index, or
  /// -1 where the hint could not be applied. Empty without hints.
  const std::vector<int>& hint_cluster() const { return hint_cluster_; }

  /// Statistics line for reports.
  std::string stats() const;

  /// Packing-effort tallies (also published to the metrics registry as
  /// pack.absorbed / pack.rollbacks).
  std::uint64_t absorbed_nets() const { return absorbed_nets_; }
  std::uint64_t rollbacks() const { return rollbacks_; }

  /// Every violated packing invariant against spec() as it is now; empty
  /// for a legal packing (the constructor guarantees one).
  std::vector<PackViolation> violations() const;

  /// Throws Error naming the first of violations().
  void validate() const { throw_first(violations(), "packing"); }

 private:
  PackedNetlist(const netlist::Network& network, const arch::ArchSpec& spec,
                const PackHints* hints);

  void form_bles();
  void pack_clusters(const PackHints* hints);

  const netlist::Network* network_;
  const arch::ArchSpec* spec_;
  std::vector<Ble> bles_;
  std::vector<Cluster> clusters_;
  std::vector<int> ble_cluster_;
  std::vector<int> hint_cluster_;
  std::uint64_t absorbed_nets_ = 0;  ///< nets internalised during growth
  std::uint64_t rollbacks_ = 0;      ///< candidate adds rejected by can_add
};

/// Writes the packed netlist in a T-VPack-style .net text format.
void write_net_file(const PackedNetlist& packed, std::ostream& out);
std::string write_net_string(const PackedNetlist& packed);

/// Rebuilds a Network from the packed cluster/BLE structure alone (BLE
/// input/output/clock signals; LUT truth tables looked up by gate index).
/// Signal names are preserved, so the result can be checked for
/// equivalence against the mapped network — a lost FF, a dropped BLE or a
/// miswired BLE input shows up as non-equivalence.
netlist::Network reconstruct_network(const PackedNetlist& packed);

}  // namespace amdrel::pack
