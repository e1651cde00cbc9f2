#pragma once
// Formal (SAT-based) equivalence checking between two networks.
//
// Combinational designs are proven directly: both networks are Tseitin-
// encoded over shared primary-input variables and every primary-output
// pair is proven equal with two assumption-activated miter solves.
// Sequential designs are cut at the register boundary: latches are
// matched across the two networks (simulation signatures over lock-step
// random runs, refined until unique, with a D-cone-support tiebreak),
// matched Q pairs become shared pseudo-inputs, and the proof obligations
// extend to every matched pair's next-state (D) function. Unsatisfiable
// miters for any register bijection with matching reset states prove
// sequential equivalence; a satisfiable miter yields a counterexample
// that is minimized and replayed through the two-value simulator before
// the pair is declared non-equivalent.
//
// Before any CNF is built, a structural pass (verify/strash.hpp) hashes
// both networks into shared functional classes over the same leaves (PIs
// by name, matched Q pairs) and counts every obligation whose two sides
// fall in one class as proven. When all of them match — a round trip, a
// packing, a placement or a fabric decode of the same LUTs — the proof
// ends there without a solver; otherwise the SAT path below proves the
// obligations left open.
//
// Before the output miters run, a SAT-sweeping pass merges internal
// equivalence candidates (random simulation signatures evaluated
// word-parallel from each gate's prime cover, conflict-limited pairwise
// proofs shallowest first), which keeps structurally different netlists
// — e.g. pre- vs post-LUT-mapping — tractable for the CDCL core. Every
// SAT answer of a sweep solve is a real assignment of the whole miter;
// its values are recorded (up to 64 models) and skip any later candidate
// pair they already tell apart, so only pairs that cannot merge are
// skipped.
//
// Each prove_equivalence() call emits one `verify.formal` trace span
// (SAT size and effort, the structural/sweep/miter time split) and adds
// to the `verify.*` registry counters, whichever tool calls it.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netlist/network.hpp"
#include "util/json.hpp"
#include "verify/solver.hpp"

namespace amdrel::verify {

/// Size and effort numbers of one equivalence proof attempt.
struct SatStats {
  int vars = 0;
  int clauses = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t solves = 0;
  double wall_s = 0.0;
  double struct_s = 0.0;            ///< structural matching
  double sweep_s = 0.0;             ///< SAT sweeping, signatures included
  double miter_s = 0.0;             ///< output miters and counterexample
  std::uint64_t sweep_solves = 0;   ///< sweep SAT calls
  std::uint64_t sweep_pruned = 0;   ///< candidates a recorded model refuted
};

enum class EquivStatus {
  kEquivalent,     ///< every miter proven UNSAT
  kNotEquivalent,  ///< a replay-confirmed counterexample exists
  kUnknown,        ///< budget exhausted or register matching unresolved
};
const char* equiv_status_name(EquivStatus s);

/// A distinguishing input assignment for the combinational cut: primary
/// inputs plus (for sequential designs) one state bit per matched
/// register pair. Minimized: non-care inputs are canonicalized to 0 and
/// listed out of `care_inputs`.
struct Counterexample {
  std::vector<std::pair<std::string, bool>> inputs;     ///< PI name → value
  std::vector<std::pair<std::string, bool>> registers;  ///< latch name → Q
  std::vector<std::string> care_inputs;  ///< inputs the divergence needs
  std::string diverging_output;  ///< PO name or "next-state(<latch>)"
  bool value_a = false;          ///< the two sides' values at divergence
  bool value_b = false;

  std::string to_text() const;
};

struct EquivOptions {
  double time_limit_s = 60.0;           ///< whole-proof wall budget
  std::uint64_t conflict_limit = 0;     ///< per output miter (0 = none)
  std::uint64_t sweep_conflict_limit = 2000;  ///< per sweep candidate
  std::uint64_t seed = 1;
  /// Known register correspondences: (side-A Q name, side-B Q name)
  /// pairs. When they pin every latch on both sides, signature matching
  /// is skipped and this bijection is proven directly — guided
  /// sequential equivalence, for callers (e.g. the flow proving against
  /// a decoded fabric) that know the placement-derived FF mapping. A
  /// wrong map still refutes; a partial or stale map is ignored.
  std::vector<std::pair<std::string, std::string>> register_map;
};

struct EquivResult {
  EquivStatus status = EquivStatus::kUnknown;
  std::string message;       ///< one-line verdict / failure reason
  std::uint64_t seed = 0;    ///< RNG seed the check ran with (reproducibility)
  SatStats stats;
  int matched_registers = 0;
  int proved_outputs = 0;    ///< output + next-state pairs proven
  int structural_outputs = 0;  ///< of those, settled by structural matching
  int merged_points = 0;     ///< internal pairs merged by SAT sweeping
  std::optional<Counterexample> cex;

  bool equivalent() const { return status == EquivStatus::kEquivalent; }
  std::string to_text() const;
  util::Json to_json() const;
};

/// Proves (or refutes) sequential equivalence of `a` and `b` at the
/// register boundary. Inputs/outputs are matched by name, like
/// netlist::check_equivalence.
EquivResult prove_equivalence(const netlist::Network& a,
                              const netlist::Network& b,
                              const EquivOptions& options = {});

}  // namespace amdrel::verify
