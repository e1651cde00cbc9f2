#include "verify/cnf.hpp"

#include "util/error.hpp"
#include "verify/table6.hpp"

namespace amdrel::verify {

namespace {

using netlist::Gate;
using netlist::Network;
using netlist::SignalId;
using netlist::TruthTable;
using table6::cofactor0;
using table6::cofactor1;
using table6::kVarMask;
using table6::replicate;

/// Minato–Morreale irredundant sum of products for any function between
/// `lower` and `upper` over variables 0..n_vars-1. Appends the cubes and
/// returns the function they cover.
std::uint64_t isop(std::uint64_t lower, std::uint64_t upper, int n_vars,
                   std::vector<Cube>* cubes) {
  if (lower == 0) return 0;
  if (upper == ~0ull) {
    cubes->push_back(Cube{});
    return ~0ull;
  }
  // Split on the top variable either bound depends on. One exists: a
  // constant lower != 0 is all ones, and then so is upper.
  int v = n_vars - 1;
  while (cofactor0(lower, v) == cofactor1(lower, v) &&
         cofactor0(upper, v) == cofactor1(upper, v)) {
    --v;
  }
  const std::uint64_t l0 = cofactor0(lower, v), l1 = cofactor1(lower, v);
  const std::uint64_t u0 = cofactor0(upper, v), u1 = cofactor1(upper, v);
  const auto bind = [&](std::size_t from, bool value) {
    for (std::size_t k = from; k < cubes->size(); ++k) {
      (*cubes)[k].care |= static_cast<std::uint8_t>(1u << v);
      if (value) (*cubes)[k].value |= static_cast<std::uint8_t>(1u << v);
    }
  };
  std::size_t first = cubes->size();
  const std::uint64_t c0 = isop(l0 & ~u1, u0, v, cubes);
  bind(first, false);
  first = cubes->size();
  const std::uint64_t c1 = isop(l1 & ~u0, u1, v, cubes);
  bind(first, true);
  const std::uint64_t c2 = isop((l0 & ~c0) | (l1 & ~c1), u0 & u1, v, cubes);
  return (c0 & ~kVarMask[v]) | (c1 & kVarMask[v]) | c2;
}

Var var_for(SignalVars* vars, Solver* solver, SignalId s) {
  Var& v = vars->var[static_cast<std::size_t>(s)];
  if (v < 0) v = solver->new_var();
  return v;
}

/// One clause per cube of the gate's covers ("cube implies out" for the
/// onset, "cube implies !out" for the offset), or per row of a support
/// wider than six inputs.
int encode_gate(const Gate& gate, Solver* solver, SignalVars* vars) {
  const GateCover cover = cover_gate(gate);
  std::vector<Var> inputs;
  inputs.reserve(cover.support.size());
  for (const int i : cover.support) {
    const SignalId s = gate.inputs[static_cast<std::size_t>(i)];
    inputs.push_back(var_for(vars, solver, s));
  }
  const Var out = var_for(vars, solver, gate.output);
  int added = 0;
  std::vector<Lit> clause;
  // Literal i is satisfied when input i differs from bit i of `bits`.
  const auto add = [&](std::uint64_t care, std::uint64_t bits, bool value) {
    clause.clear();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if ((care >> i) & 1) clause.push_back(mk_lit(inputs[i], (bits >> i) & 1));
    }
    clause.push_back(mk_lit(out, !value));
    solver->add_clause(clause);
    ++added;
  };
  if (cover.has_cubes) {
    for (const Cube& c : cover.onset) add(c.care, c.value, true);
    for (const Cube& c : cover.offset) add(c.care, c.value, false);
    return added;
  }
  for (std::uint64_t row = 0; row < cover.table.n_rows(); ++row) {
    add(~0ull, row, cover.table.get(row));
  }
  return added;
}

}  // namespace

GateCover cover_gate(const Gate& gate) {
  AMDREL_CHECK(static_cast<std::size_t>(gate.table.n_inputs()) ==
               gate.inputs.size());
  // Restrict to the support so unused LUT pins cost nothing; the highest
  // input goes first, so the lower indices stay valid.
  GateCover cover;
  cover.table = gate.table;
  for (int i = gate.table.n_inputs() - 1; i >= 0; --i) {
    if (gate.table.depends_on(i)) {
      cover.support.insert(cover.support.begin(), i);
    } else {
      cover.table = cover.table.cofactor(i, false);
    }
  }
  const int k = cover.table.n_inputs();
  cover.has_cubes = k <= 6;
  if (cover.has_cubes) {
    const std::uint64_t f = replicate(cover.table.words()[0], k);
    isop(f, f, k, &cover.onset);
    isop(~f, ~f, k, &cover.offset);
  }
  return cover;
}

void resize_signal_vars(const Network& net, SignalVars* vars) {
  vars->var.assign(static_cast<std::size_t>(net.num_signals()), -1);
}

int encode_network(const Network& net, Solver* solver, SignalVars* vars) {
  AMDREL_CHECK(vars->var.size() ==
               static_cast<std::size_t>(net.num_signals()));
  // Leaves first, so unbound PIs / latch outputs get stable variables.
  for (const SignalId s : net.inputs()) var_for(vars, solver, s);
  for (const auto& latch : net.latches()) var_for(vars, solver, latch.q);
  int clauses = 0;
  for (const int gi : net.topo_order()) {
    clauses += encode_gate(net.gates()[static_cast<std::size_t>(gi)], solver,
                           vars);
  }
  return clauses;
}

void add_equal(Solver* solver, Var a, Var b, bool complement) {
  solver->add_clause({mk_lit(a, false), mk_lit(b, !complement)});
  solver->add_clause({mk_lit(a, true), mk_lit(b, complement)});
}

}  // namespace amdrel::verify
