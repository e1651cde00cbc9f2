#pragma once
// Formal equivalence checks surfaced as lint diagnostics (EQ0xx).
//
// The verify subsystem returns one structured EquivResult per proof; this
// adapter runs the SAT-based proof (optionally preceded by random vectors)
// on a pair of networks and translates every adverse outcome into the
// lint report vocabulary, so `amdrel_cli lint A B` and CI gates can treat
// a broken stage hand-off like any other rule violation: EQ001 miter
// satisfiable (with the minimized counterexample in the message), EQ002
// proof inconclusive, EQ003 interface mismatch, EQ004 register matching
// failure, EQ005 random-vector divergence.

#include "lint/lint.hpp"
#include "netlist/network.hpp"
#include "verify/equiv.hpp"

namespace amdrel::lint {

struct EquivCheckOptions {
  /// Random vectors (netlist::kHandoffRandomBudget) before the proof.
  bool run_random = true;
  verify::EquivOptions formal;  ///< seed / budgets for the SAT proof
};

/// Proves `a` against `b` per `options`, appending EQ diagnostics to
/// `report` for every adverse finding (an equivalent pair adds nothing),
/// and returns the proof's EquivResult.
verify::EquivResult check_equivalence_pair(const netlist::Network& a,
                                           const netlist::Network& b,
                                           const EquivCheckOptions& options,
                                           Report* report);

}  // namespace amdrel::lint
