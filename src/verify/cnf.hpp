#pragma once
// Tseitin encoding of netlist::Network combinational logic into CNF.
//
// Every signal of the network gets a solver variable. Each gate is first
// restricted to its support (inputs the function does not depend on are
// cofactored away, so a K-LUT wired with unused pins costs nothing for
// them). A support of up to six inputs is then encoded from irredundant
// prime covers (Minato–Morreale ISOP) of its onset and offset: each
// onset cube c gives the clause "c implies out", each offset cube "c
// implies !out". Together they state exactly out == f(inputs), with fewer
// and shorter clauses than one per truth-table row, and unit propagation
// fires on partial inputs (an AND with one 0 input implies 0). Wider
// supports fall back to one clause per row. Cone leaves — primary inputs
// and latch Q outputs — can be pre-bound to existing variables, which is
// how the equivalence checker shares PI and cut-point variables between
// the two sides of a miter.

#include <cstdint>
#include <vector>

#include "netlist/network.hpp"
#include "verify/solver.hpp"

namespace amdrel::verify {

/// A product term over a gate's support: support input i appears when bit
/// i of `care` is set, uncomplemented when bit i of `value` is set too.
struct Cube {
  std::uint8_t care = 0;
  std::uint8_t value = 0;
};

/// A gate's function restricted to its support. Supports of up to six
/// inputs carry prime covers of the onset and offset; wider supports
/// (`has_cubes` false) only the restricted table.
struct GateCover {
  std::vector<int> support;   ///< positions in Gate::inputs, ascending
  netlist::TruthTable table;  ///< the function over `support`
  bool has_cubes = false;
  std::vector<Cube> onset;   ///< ISOP of f
  std::vector<Cube> offset;  ///< ISOP of !f
};

/// Restricts `gate` to its support and builds its covers.
GateCover cover_gate(const netlist::Gate& gate);

/// SignalId → solver variable map for one encoded network (-1 = none).
struct SignalVars {
  std::vector<Var> var;

  Var of(netlist::SignalId s) const {
    return var[static_cast<std::size_t>(s)];
  }
  /// Pre-binds `s` to an existing solver variable (before encoding).
  void bind(netlist::SignalId s, Var v) {
    var[static_cast<std::size_t>(s)] = v;
  }
};

/// Encodes all gates of `net` into `solver`. `vars` must be sized by
/// resize_signal_vars(); leaves without a pre-bound variable get fresh
/// ones. Returns the number of clauses added.
int encode_network(const netlist::Network& net, Solver* solver,
                   SignalVars* vars);

/// Sizes (or clears) `vars` for `net`.
void resize_signal_vars(const netlist::Network& net, SignalVars* vars);

/// Adds clauses asserting a == b (or a == !b when `complement`).
void add_equal(Solver* solver, Var a, Var b, bool complement = false);

}  // namespace amdrel::verify
