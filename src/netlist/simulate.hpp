#pragma once
// Cycle-accurate two-valued simulation of a Network, plus random-vector
// (sequential) equivalence checking between two networks with matching
// primary input/output names. Used to verify every transformation in the
// CAD flow (synthesis, mapping, packing, bitstream).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/network.hpp"
#include "util/rng.hpp"

namespace amdrel::netlist {

class Simulator {
 public:
  explicit Simulator(const Network& network);

  /// Resets latches to their init values (don't-care → 0).
  void reset();

  /// Sets primary input `s` for the current cycle.
  void set_input(SignalId s, bool value);
  void set_input_by_name(const std::string& name, bool value);

  /// Recomputes all combinational logic from current inputs + latch state.
  void propagate();

  /// Clock edge: latches capture D (call after propagate()).
  void step_clock();

  bool value(SignalId s) const;
  bool output(std::size_t index) const;

  /// Per-signal toggle counters (for activity estimation): number of value
  /// changes observed across propagate() calls.
  const std::vector<std::uint64_t>& toggle_counts() const { return toggles_; }

  /// Toggle counting costs two full passes over the value array per
  /// propagate(); callers that only compare outputs (equivalence checks)
  /// can switch it off.
  void set_track_toggles(bool on) { track_toggles_ = on; }

 private:
  /// One gate of the flattened evaluation order: inputs are a slice of
  /// `flat_inputs_`, the table a pointer into the gate's own words (the
  /// network outlives the simulator). Avoids the indirections and
  /// per-call bounds checks of Gate/TruthTable in the propagate loop.
  struct FlatGate {
    int output;
    std::uint32_t in_begin;
    std::uint32_t in_end;
    const std::uint64_t* words;
  };

  const Network* net_;
  std::vector<FlatGate> flat_;      ///< topological order
  std::vector<int> flat_inputs_;
  std::vector<char> values_;
  std::vector<char> prev_values_;
  std::vector<char> is_input_;      ///< by SignalId
  std::vector<std::uint64_t> toggles_;
  bool track_toggles_ = true;
  bool first_propagate_ = true;
};

/// Result of an equivalence check.
struct EquivalenceResult {
  bool equivalent = false;
  std::string message;  ///< failure description (first mismatch)
};

/// Compares two networks over `n_cycles` cycles × `n_runs` random stimulus
/// sequences. Inputs/outputs are matched by NAME (order-independent);
/// both must expose the same input and output name sets.
EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    int n_runs = 8, int n_cycles = 64,
                                    std::uint64_t seed = 1);

/// Random stimulus of one check_equivalence call: `runs` sequences of
/// `cycles` cycles each.
struct RandomBudget {
  int runs;
  int cycles;
};
/// The budget of a flow hand-off check: the random cross-check of
/// VerifyMode::kBoth, the post-bitgen lint (FL402) and the EQ005 pair lint.
inline constexpr RandomBudget kHandoffRandomBudget{4, 48};

}  // namespace amdrel::netlist
