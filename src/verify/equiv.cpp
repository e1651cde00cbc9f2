#include "verify/equiv.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "netlist/simulate.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "verify/cnf.hpp"
#include "verify/strash.hpp"

namespace amdrel::verify {

namespace {

using netlist::Latch;
using netlist::LatchInit;
using netlist::Network;
using netlist::SignalId;
using Clock = std::chrono::steady_clock;

const char* kNextStatePrefix = "next-state(";
/// 64-bit random pattern words per leaf for the sweep signatures.
constexpr std::size_t kSimWords = 8;
/// Lock-step simulation cycles of the first FF-matching signature
/// attempt (each of the four attempts doubles it).
constexpr int kSignatureCycles = 64;

bool init_bit(LatchInit init) { return init == LatchInit::kOne; }

std::set<std::string> names_of(const Network& n,
                               const std::vector<SignalId>& sigs) {
  std::set<std::string> out;
  for (const SignalId s : sigs) out.insert(n.signal_name(s));
  return out;
}

/// Combinational evaluation of `net` from explicit leaf values (primary
/// inputs and latch Q signals); absent leaves default to 0. Returns the
/// full value vector indexed by SignalId.
std::vector<char> eval_combinational(
    const Network& net, const std::unordered_map<SignalId, bool>& leaves) {
  std::vector<char> values(static_cast<std::size_t>(net.num_signals()), 0);
  for (const auto& [s, v] : leaves) {
    values[static_cast<std::size_t>(s)] = v ? 1 : 0;
  }
  for (const int gi : net.topo_order()) {
    const auto& g = net.gates()[static_cast<std::size_t>(gi)];
    std::uint64_t row = 0;
    for (std::size_t i = 0; i < g.inputs.size(); ++i) {
      if (values[static_cast<std::size_t>(g.inputs[i])]) row |= 1ull << i;
    }
    values[static_cast<std::size_t>(g.output)] = g.table.get(row) ? 1 : 0;
  }
  return values;
}

/// Per-signal depth (0 at PIs / latch outputs, 1 + max(inputs) at gates).
std::vector<int> signal_depths(const Network& net,
                               const std::vector<int>& topo) {
  std::vector<int> depth(static_cast<std::size_t>(net.num_signals()), 0);
  for (const int gi : topo) {
    const auto& g = net.gates()[static_cast<std::size_t>(gi)];
    int d = 0;
    for (const SignalId in : g.inputs) {
      d = std::max(d, depth[static_cast<std::size_t>(in)]);
    }
    depth[static_cast<std::size_t>(g.output)] = d + 1;
  }
  return depth;
}

/// Word-parallel evaluation of every gate over `n_words` 64-bit pattern
/// words per signal (`words[s * n_words + w]`, leaf words filled in). A
/// gate ORs the cubes of its onset cover on whole words; a support wider
/// than six inputs is looked up bit by bit.
void simulate_words(const Network& net, const std::vector<int>& topo,
                    std::size_t n_words, std::vector<std::uint64_t>* words) {
  const auto at = [n_words](SignalId s, std::size_t w) {
    return static_cast<std::size_t>(s) * n_words + w;
  };
  for (const int gi : topo) {
    const auto& g = net.gates()[static_cast<std::size_t>(gi)];
    const GateCover cover = cover_gate(g);
    std::vector<SignalId> in;
    for (const int i : cover.support) {
      in.push_back(g.inputs[static_cast<std::size_t>(i)]);
    }
    for (std::size_t w = 0; w < n_words; ++w) {
      std::uint64_t out = 0;
      if (cover.has_cubes) {
        for (const Cube& c : cover.onset) {
          std::uint64_t term = ~0ull;
          for (std::size_t j = 0; j < in.size(); ++j) {
            if (!((c.care >> j) & 1)) continue;
            const std::uint64_t x = (*words)[at(in[j], w)];
            term &= ((c.value >> j) & 1) ? x : ~x;
          }
          out |= term;
        }
      } else {
        for (int bit = 0; bit < 64; ++bit) {
          std::uint64_t row = 0;
          for (std::size_t j = 0; j < in.size(); ++j) {
            row |= (((*words)[at(in[j], w)] >> bit) & 1ull) << j;
          }
          if (cover.table.get(row)) out |= 1ull << bit;
        }
      }
      (*words)[at(g.output, w)] = out;
    }
  }
}

/// The name-sorted PI list shared by both networks (the interface check
/// has already passed).
std::vector<std::string> sorted_input_names(const Network& a) {
  const auto set = names_of(a, a.inputs());
  return {set.begin(), set.end()};
}

/// Sorted PI names in the transitive fanin of `root` — the matching
/// tiebreak signature for latches whose state signatures stay identical.
std::vector<std::string> cone_input_names(const Network& net, SignalId root) {
  std::vector<std::string> out;
  std::vector<char> visited(static_cast<std::size_t>(net.num_signals()), 0);
  std::vector<SignalId> stack{root};
  while (!stack.empty()) {
    const SignalId s = stack.back();
    stack.pop_back();
    if (visited[static_cast<std::size_t>(s)]) continue;
    visited[static_cast<std::size_t>(s)] = 1;
    if (net.is_input(s)) {
      out.push_back(net.signal_name(s));
      continue;
    }
    const int gi = net.driver_gate(s);
    if (gi >= 0) {
      for (const SignalId in :
           net.gates()[static_cast<std::size_t>(gi)].inputs) {
        stack.push_back(in);
      }
    }
    // Latch outputs are cut points: stop there.
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct LatchMatch {
  /// Uniquely determined pairs: (latch index in A, latch index in B).
  std::vector<std::pair<int, int>> pairs;
  /// Ambiguous signature buckets: the A latches could map to any
  /// permutation of the B latches (B pre-ordered by D-cone tiebreak so
  /// the identity assignment is the best guess).
  std::vector<std::pair<std::vector<int>, std::vector<int>>> groups;
  bool failed = false;
  std::string message;
  /// Set when lock-step simulation already distinguished an output.
  std::optional<Counterexample> sim_divergence;
};

/// Matches registers across the two networks by lock-step random
/// simulation signatures (doubling the cycle count while buckets stay
/// ambiguous), then by D-cone input support, then arbitrarily (flagged).
LatchMatch match_latches(const Network& a, const Network& b,
                         const EquivOptions& options) {
  LatchMatch match;
  if (a.latches().size() != b.latches().size()) {
    match.failed = true;
    match.message = strprintf("register counts differ (%zu vs %zu)",
                              a.latches().size(), b.latches().size());
    return match;
  }
  if (a.latches().empty()) return match;

  const std::vector<std::string> input_names = sorted_input_names(a);
  const int n_latches = static_cast<int>(a.latches().size());

  // Caller-supplied bijection (guided matching): if the hints pin every
  // latch on both sides consistently, prove that map directly — the
  // miters below still refute a wrong one.
  if (!options.register_map.empty()) {
    std::map<std::string, int> q_a, q_b;
    for (int i = 0; i < n_latches; ++i) {
      q_a[a.signal_name(a.latches()[static_cast<std::size_t>(i)].q)] = i;
      q_b[b.signal_name(b.latches()[static_cast<std::size_t>(i)].q)] = i;
    }
    std::vector<std::pair<int, int>> pinned;
    std::vector<char> used_a(static_cast<std::size_t>(n_latches), 0);
    std::vector<char> used_b(static_cast<std::size_t>(n_latches), 0);
    for (const auto& [na, nb] : options.register_map) {
      const auto ia = q_a.find(na), ib = q_b.find(nb);
      if (ia == q_a.end() || ib == q_b.end()) continue;
      if (used_a[static_cast<std::size_t>(ia->second)] ||
          used_b[static_cast<std::size_t>(ib->second)]) {
        pinned.clear();  // inconsistent map: fall back to matching
        break;
      }
      used_a[static_cast<std::size_t>(ia->second)] = 1;
      used_b[static_cast<std::size_t>(ib->second)] = 1;
      pinned.emplace_back(ia->second, ib->second);
    }
    if (static_cast<int>(pinned.size()) == n_latches) {
      match.pairs = std::move(pinned);
      return match;
    }
  }

  // Fast path: register output names survive every flow stage except
  // fabric decode, and an identical Q-name set pins the bijection exactly.
  {
    std::map<std::string, int> q_of_b;
    for (int i = 0; i < n_latches; ++i) {
      q_of_b[b.signal_name(b.latches()[static_cast<std::size_t>(i)].q)] = i;
    }
    bool all_named = static_cast<int>(q_of_b.size()) == n_latches;
    for (int i = 0; all_named && i < n_latches; ++i) {
      const auto it = q_of_b.find(
          a.signal_name(a.latches()[static_cast<std::size_t>(i)].q));
      if (it == q_of_b.end()) {
        all_named = false;
      } else {
        match.pairs.emplace_back(i, it->second);
      }
    }
    if (all_named) return match;
    match.pairs.clear();
  }

  using Signature = std::vector<std::uint64_t>;
  std::vector<Signature> sig_a(static_cast<std::size_t>(n_latches));
  std::vector<Signature> sig_b(static_cast<std::size_t>(n_latches));

  int cycles = kSignatureCycles;
  for (int attempt = 0; attempt < 4; ++attempt, cycles *= 2) {
    for (auto& s : sig_a) s.assign(static_cast<std::size_t>(cycles + 63) / 64, 0);
    for (auto& s : sig_b) s.assign(static_cast<std::size_t>(cycles + 63) / 64, 0);
    netlist::Simulator sim_a(a), sim_b(b);
    Rng rng(options.seed + static_cast<std::uint64_t>(attempt));
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (int i = 0; i < n_latches; ++i) {
        if (sim_a.value(a.latches()[static_cast<std::size_t>(i)].q)) {
          sig_a[static_cast<std::size_t>(i)][static_cast<std::size_t>(cycle / 64)] |=
              1ull << (cycle % 64);
        }
        if (sim_b.value(b.latches()[static_cast<std::size_t>(i)].q)) {
          sig_b[static_cast<std::size_t>(i)][static_cast<std::size_t>(cycle / 64)] |=
              1ull << (cycle % 64);
        }
      }
      std::vector<std::pair<std::string, bool>> cycle_inputs;
      for (const auto& name : input_names) {
        const bool v = rng.next_bool();
        cycle_inputs.emplace_back(name, v);
        sim_a.set_input_by_name(name, v);
        sim_b.set_input_by_name(name, v);
      }
      sim_a.propagate();
      sim_b.propagate();
      for (const SignalId out : a.outputs()) {
        const std::string& name = a.signal_name(out);
        const bool va = sim_a.value(out);
        const bool vb = sim_b.value(b.find_signal(name));
        if (va != vb) {
          Counterexample cex;
          cex.inputs = std::move(cycle_inputs);
          for (const auto& latch : a.latches()) {
            cex.registers.emplace_back(latch.name, sim_a.value(latch.q));
          }
          cex.diverging_output = name;
          cex.value_a = va;
          cex.value_b = vb;
          match.sim_divergence = std::move(cex);
          match.failed = true;
          match.message = strprintf(
              "output '%s' differs in lock-step simulation at cycle %d",
              name.c_str(), cycle);
          return match;
        }
      }
      sim_a.step_clock();
      sim_b.step_clock();
    }

    // Bucket by signature and match.
    std::map<Signature, std::vector<int>> buckets_a, buckets_b;
    for (int i = 0; i < n_latches; ++i) {
      buckets_a[sig_a[static_cast<std::size_t>(i)]].push_back(i);
      buckets_b[sig_b[static_cast<std::size_t>(i)]].push_back(i);
    }
    bool mismatch = false, ambiguous = false;
    for (const auto& [sig, in_a] : buckets_a) {
      const auto it = buckets_b.find(sig);
      if (it == buckets_b.end() || it->second.size() != in_a.size()) {
        mismatch = true;
        break;
      }
      if (in_a.size() > 1) ambiguous = true;
    }
    if (mismatch) {
      if (attempt < 3) continue;  // more cycles may separate them
      match.failed = true;
      match.message =
          "register state signatures do not correspond under lock-step "
          "simulation";
      return match;
    }
    if (!ambiguous || attempt == 3) {
      // Final matching. Multi-latch buckets stay ambiguous: they are
      // returned as groups and the caller enumerates the in-bucket
      // permutations (any trace-consistent bijection proving UNSAT is a
      // valid proof). The D-cone tiebreak only pre-orders the B side so
      // the first permutation tried is the most likely one.
      match.pairs.clear();
      match.groups.clear();
      for (const auto& [sig, in_a] : buckets_a) {
        const auto& in_b = buckets_b[sig];
        if (in_a.size() == 1) {
          match.pairs.emplace_back(in_a[0], in_b[0]);
          continue;
        }
        std::vector<int> ordered_b;
        std::vector<int> rest_b = in_b;
        for (const int ia : in_a) {
          const auto support_a = cone_input_names(
              a, a.latches()[static_cast<std::size_t>(ia)].d);
          std::size_t chosen = 0;
          for (std::size_t k = 0; k < rest_b.size(); ++k) {
            if (cone_input_names(
                    b, b.latches()[static_cast<std::size_t>(rest_b[k])].d) ==
                support_a) {
              chosen = k;
              break;
            }
          }
          ordered_b.push_back(rest_b[chosen]);
          rest_b.erase(rest_b.begin() + static_cast<std::ptrdiff_t>(chosen));
        }
        match.groups.emplace_back(in_a, std::move(ordered_b));
      }
      return match;
    }
  }
  return match;  // unreachable: the loop always returns by attempt 3
}

/// One internal equivalence candidate for SAT sweeping.
struct SweepEntry {
  int depth = 0;
  int net = 0;  ///< 0 = A, 1 = B
  SignalId signal = netlist::kNoSignal;
  Var var = -1;
  bool negated = false;  ///< signature was canonicalized by complement
};

struct Obligation {
  std::string label;
  SignalId sig_a = netlist::kNoSignal;
  SignalId sig_b = netlist::kNoSignal;
  bool structural = false;  ///< both sides hash to one class: proven
  Var var_a = -1;
  Var var_b = -1;
};

Var ensure_var(Solver* solver, SignalVars* vars, SignalId s) {
  Var v = vars->of(s);
  if (v < 0) {
    v = solver->new_var();
    vars->bind(s, v);
  }
  return v;
}

}  // namespace

const char* equiv_status_name(EquivStatus s) {
  switch (s) {
    case EquivStatus::kEquivalent: return "equivalent";
    case EquivStatus::kNotEquivalent: return "not-equivalent";
    case EquivStatus::kUnknown: return "unknown";
  }
  return "?";
}

std::string Counterexample::to_text() const {
  std::ostringstream os;
  os << "counterexample: output '" << diverging_output << "' = "
     << (value_a ? 1 : 0) << " vs " << (value_b ? 1 : 0) << " under";
  bool first = true;
  for (const auto& [name, value] : inputs) {
    os << (first ? " " : ", ") << name << "=" << (value ? 1 : 0);
    first = false;
  }
  for (const auto& [name, value] : registers) {
    os << (first ? " " : ", ") << name << ".Q=" << (value ? 1 : 0);
    first = false;
  }
  if (!care_inputs.empty()) {
    os << " (essential: ";
    for (std::size_t i = 0; i < care_inputs.size(); ++i) {
      if (i) os << ", ";
      os << care_inputs[i];
    }
    os << ")";
  }
  return os.str();
}

class EquivChecker {
 public:
  EquivChecker(const Network& a, const Network& b, const EquivOptions& options)
      : a_(a), b_(b), options_(options) {}

  EquivResult run() {
    const auto t0 = Clock::now();
    // Bounded (NaN and negatives to 0, anything past ~30 years to that)
    // so the cast to integer clock ticks is defined for any budget a
    // job spec or command line carries.
    const double limit_s =
        std::fmin(std::fmax(options_.time_limit_s, 0.0), 1e9);
    deadline_ = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(limit_s));
    EquivResult result = check();
    result.seed = options_.seed;
    result.stats = agg_stats_;
    result.stats.wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return result;
  }

 private:
  EquivResult check() {
    EquivResult result;
    // ---- interface ----
    if (names_of(a_, a_.inputs()) != names_of(b_, b_.inputs())) {
      result.status = EquivStatus::kNotEquivalent;
      result.message = "primary input name sets differ";
      return result;
    }
    if (names_of(a_, a_.outputs()) != names_of(b_, b_.outputs())) {
      result.status = EquivStatus::kNotEquivalent;
      result.message = "primary output name sets differ";
      return result;
    }

    // ---- register matching / reset states ----
    LatchMatch match = match_latches(a_, b_, options_);
    if (match.failed) {
      if (match.sim_divergence.has_value()) {
        result.status = EquivStatus::kNotEquivalent;
        result.cex = std::move(match.sim_divergence);
      } else {
        result.status = EquivStatus::kUnknown;
      }
      result.message = match.message;
      return result;
    }
    // ---- candidate bijections: fixed pairs × in-bucket permutations ----
    // Any trace-consistent bijection proving every miter UNSAT is a valid
    // equivalence proof, so ambiguity is resolved by enumeration. Beyond
    // the cap only the best-guess pairing is tried and a SAT answer
    // degrades to "unknown" instead of claiming non-equivalence.
    constexpr std::uint64_t kMaxBijections = 16;
    std::uint64_t total = 1;
    for (const auto& [ga, gb] : match.groups) {
      for (std::size_t k = 2; k <= ga.size() && total <= kMaxBijections; ++k) {
        total *= k;
      }
      if (total > kMaxBijections) break;
    }
    const bool capped = total > kMaxBijections;
    std::vector<std::vector<std::pair<int, int>>> candidates;
    candidates.push_back(match.pairs);
    for (const auto& [ga, gb] : match.groups) {
      std::vector<int> order(gb.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<int>(i);
      }
      std::vector<std::vector<std::pair<int, int>>> expanded;
      do {
        for (const auto& base : candidates) {
          auto cur = base;
          for (std::size_t i = 0; i < ga.size(); ++i) {
            cur.emplace_back(ga[i],
                             gb[static_cast<std::size_t>(order[i])]);
          }
          expanded.push_back(std::move(cur));
        }
      } while (!capped && std::next_permutation(order.begin(), order.end()));
      candidates = std::move(expanded);
    }
    result.matched_registers = static_cast<int>(candidates.front().size());

    // One topological order per network, shared by the structural pass
    // and the sweep of every candidate bijection.
    topo_a_ = a_.topo_order();
    topo_b_ = b_.topo_order();
    std::optional<EquivResult> refuted;
    for (const auto& pairs : candidates) {
      EquivResult attempt = result;
      const EquivStatus st = prove_with_pairs(pairs, &attempt);
      if (st == EquivStatus::kEquivalent || st == EquivStatus::kUnknown) {
        return attempt;
      }
      if (!refuted.has_value()) refuted = std::move(attempt);
    }
    EquivResult final_result = std::move(*refuted);
    if (capped) {
      final_result.status = EquivStatus::kUnknown;
      final_result.message =
          "miter satisfiable under the best-guess register matching, but "
          "the ambiguity was too large to enumerate; random-vector "
          "verification recommended";
      final_result.cex.reset();
    } else if (candidates.size() > 1) {
      final_result.message += strprintf(
          " (all %zu trace-consistent register pairings refuted)",
          candidates.size());
    }
    return final_result;
  }

  /// Proves the combinational cut under one concrete register bijection
  /// with a fresh solver. kEquivalent / kNotEquivalent are definitive for
  /// this bijection; kUnknown means budget exhaustion (give up overall).
  EquivStatus prove_with_pairs(const std::vector<std::pair<int, int>>& pairs,
                               EquivResult* result) {
    for (const auto& [ia, ib] : pairs) {
      const Latch& la = a_.latches()[static_cast<std::size_t>(ia)];
      const Latch& lb = b_.latches()[static_cast<std::size_t>(ib)];
      if (init_bit(la.init) != init_bit(lb.init)) {
        result->status = EquivStatus::kNotEquivalent;
        result->message = strprintf(
            "reset states differ: latch '%s' inits to %d, '%s' to %d",
            la.name.c_str(), init_bit(la.init) ? 1 : 0, lb.name.c_str(),
            init_bit(lb.init) ? 1 : 0);
        return result->status;
      }
    }

    // ---- proof obligations: POs, then next-state functions ----
    std::vector<Obligation> obligations;
    for (const auto& name : names_of(a_, a_.outputs())) {
      obligations.push_back({name, a_.find_signal(name), b_.find_signal(name)});
    }
    for (const auto& [ia, ib] : pairs) {
      const Latch& la = a_.latches()[static_cast<std::size_t>(ia)];
      const Latch& lb = b_.latches()[static_cast<std::size_t>(ib)];
      obligations.push_back(
          {std::string(kNextStatePrefix) + la.name + ")", la.d, lb.d});
    }

    // ---- structural matching: no solver when every obligation matches ----
    const auto t_struct = Clock::now();
    result->structural_outputs = match_structurally(pairs, &obligations);
    result->proved_outputs = result->structural_outputs;
    agg_stats_.struct_s +=
        std::chrono::duration<double>(Clock::now() - t_struct).count();
    if (result->structural_outputs == static_cast<int>(obligations.size())) {
      return proven(result);
    }

    // ---- encode the miter over shared leaves ----
    solver_ = Solver();
    pi_vars_.clear();
    reg_vars_.clear();
    latch_b_of_a_.clear();
    resize_signal_vars(a_, &vars_a_);
    resize_signal_vars(b_, &vars_b_);
    for (const SignalId s : a_.inputs()) {
      const Var v = solver_.new_var();
      vars_a_.bind(s, v);
      const SignalId sb = b_.find_signal(a_.signal_name(s));
      vars_b_.bind(sb, v);
      pi_vars_.emplace_back(a_.signal_name(s), v);
    }
    std::sort(pi_vars_.begin(), pi_vars_.end());
    for (const auto& [ia, ib] : pairs) {
      const Latch& la = a_.latches()[static_cast<std::size_t>(ia)];
      const Latch& lb = b_.latches()[static_cast<std::size_t>(ib)];
      const Var v = solver_.new_var();
      vars_a_.bind(la.q, v);
      vars_b_.bind(lb.q, v);
      reg_vars_.emplace_back(la.name, v);
      latch_b_of_a_[ia] = ib;
    }
    encode_network(a_, &solver_, &vars_a_);
    encode_network(b_, &solver_, &vars_b_);

    for (Obligation& ob : obligations) {
      ob.var_a = ensure_var(&solver_, &vars_a_, ob.sig_a);
      ob.var_b = ensure_var(&solver_, &vars_b_, ob.sig_b);
    }

    // ---- SAT sweeping ----
    const auto t_sweep = Clock::now();
    result->merged_points = sweep();
    const auto t_miter = Clock::now();
    agg_stats_.sweep_s +=
        std::chrono::duration<double>(t_miter - t_sweep).count();

    // ---- output miters ----
    const EquivStatus status = prove_obligations(obligations, result);
    agg_stats_.miter_s +=
        std::chrono::duration<double>(Clock::now() - t_miter).count();
    accumulate_stats();
    return status;
  }

  /// Hashes both networks into shared classes over this bijection's
  /// leaves — PIs by name, each matched Q pair as one class — and marks
  /// every obligation whose two sides fall in one class. Returns how many.
  int match_structurally(const std::vector<std::pair<int, int>>& pairs,
                         std::vector<Obligation>* obligations) {
    StructuralHash hash;
    constexpr int kNone = StructuralHash::kNone;
    std::vector<int> cls_a(static_cast<std::size_t>(a_.num_signals()), kNone);
    std::vector<int> cls_b(static_cast<std::size_t>(b_.num_signals()), kNone);
    const auto share = [&](SignalId sa, SignalId sb) {
      const int c = hash.fresh();
      cls_a[static_cast<std::size_t>(sa)] = c;
      cls_b[static_cast<std::size_t>(sb)] = c;
    };
    for (const SignalId s : a_.inputs()) {
      share(s, b_.find_signal(a_.signal_name(s)));
    }
    for (const auto& [ia, ib] : pairs) {
      share(a_.latches()[static_cast<std::size_t>(ia)].q,
            b_.latches()[static_cast<std::size_t>(ib)].q);
    }
    if (!hash.classify(a_, topo_a_, &cls_a) ||
        !hash.classify(b_, topo_b_, &cls_b)) {
      return 0;
    }
    int matched = 0;
    for (Obligation& ob : *obligations) {
      const int c = cls_a[static_cast<std::size_t>(ob.sig_a)];
      ob.structural =
          c != kNone && c == cls_b[static_cast<std::size_t>(ob.sig_b)];
      matched += ob.structural ? 1 : 0;
    }
    return matched;
  }

  EquivStatus proven(EquivResult* result) const {
    result->status = EquivStatus::kEquivalent;
    result->message = strprintf(
        "%d output(s) and %d next-state function(s) proven equivalent",
        static_cast<int>(names_of(a_, a_.outputs()).size()),
        result->matched_registers);
    return result->status;
  }

  /// The output and next-state miters, two assumption-activated solves
  /// per obligation the structural pass left open; a SAT answer becomes a
  /// replayed counterexample.
  EquivStatus prove_obligations(const std::vector<Obligation>& obligations,
                                EquivResult* result) {
    solver_.set_conflict_budget(options_.conflict_limit);
    solver_.set_deadline(deadline_);
    for (const Obligation& ob : obligations) {
      if (ob.structural) continue;
      for (const int phase : {0, 1}) {
        const Solver::Result r = solver_.solve(
            {mk_lit(ob.var_a, phase == 1), mk_lit(ob.var_b, phase == 0)});
        if (r == Solver::Result::kUnknown) {
          result->status = EquivStatus::kUnknown;
          result->message = strprintf(
              "budget exhausted proving '%s' (%llu conflicts so far)",
              ob.label.c_str(),
              static_cast<unsigned long long>(solver_.stats().conflicts));
          return result->status;
        }
        if (r == Solver::Result::kSat) {
          *result = found_counterexample(ob, std::move(*result));
          return result->status;
        }
      }
      ++result->proved_outputs;
    }
    return proven(result);
  }

  void accumulate_stats() {
    agg_stats_.vars = std::max(agg_stats_.vars, solver_.num_vars());
    agg_stats_.clauses = std::max(agg_stats_.clauses, solver_.num_clauses());
    const SolverStats& s = solver_.stats();
    agg_stats_.conflicts += s.conflicts;
    agg_stats_.decisions += s.decisions;
    agg_stats_.propagations += s.propagations;
    agg_stats_.restarts += s.restarts;
    agg_stats_.learned_clauses += s.learned_clauses;
    agg_stats_.solves += s.solves;
  }

  /// Simulation-guided internal-point merging: candidates with equal (or
  /// complementary) 64-bit signatures are proven pairwise under a small
  /// conflict budget and, when UNSAT, tied together with equality clauses.
  /// Every SAT answer is a model of the whole miter, so its values refute
  /// any later candidate they already tell apart; those are skipped.
  int sweep() {
    // Random pattern words per leaf solver var (shared leaves share
    // patterns by construction).
    const std::size_t n_words = kSimWords;
    const auto n_vars = static_cast<std::size_t>(solver_.num_vars());
    Rng rng(options_.seed ^ 0x5eedf00dull);
    std::vector<std::vector<std::uint64_t>> leaf_words(n_words);
    for (auto& w : leaf_words) {
      w.assign(n_vars, 0);
      for (auto& x : w) x = rng.next_u64();
    }

    // Signature per (net, signal): n_words words, canonicalized.
    std::map<std::vector<std::uint64_t>, std::vector<SweepEntry>> buckets;
    const Network* nets[2] = {&a_, &b_};
    const std::vector<int>* topos[2] = {&topo_a_, &topo_b_};
    const SignalVars* vars[2] = {&vars_a_, &vars_b_};
    for (int ni = 0; ni < 2; ++ni) {
      const Network& net = *nets[ni];
      const auto n_signals = static_cast<std::size_t>(net.num_signals());
      const std::vector<int>& topo = *topos[ni];
      const std::vector<int> depth = signal_depths(net, topo);
      std::vector<char> driven(n_signals, 0);
      for (const auto& g : net.gates()) {
        driven[static_cast<std::size_t>(g.output)] = 1;
      }
      std::vector<std::uint64_t> words(n_signals * n_words, 0);
      for (std::size_t s = 0; s < n_signals; ++s) {
        const Var v = vars[ni]->var[s];
        if (v < 0 || driven[s]) continue;
        for (std::size_t w = 0; w < n_words; ++w) {
          words[s * n_words + w] = leaf_words[w][static_cast<std::size_t>(v)];
        }
      }
      simulate_words(net, topo, n_words, &words);
      for (std::size_t s = 0; s < n_signals; ++s) {
        const Var v = vars[ni]->var[s];
        if (v < 0) continue;
        const auto first =
            words.begin() + static_cast<std::ptrdiff_t>(s * n_words);
        std::vector<std::uint64_t> sig(
            first, first + static_cast<std::ptrdiff_t>(n_words));
        SweepEntry e{depth[s], ni, static_cast<SignalId>(s), v, false};
        if (sig[0] & 1ull) {
          for (auto& x : sig) x = ~x;
          e.negated = true;
        }
        buckets[sig].push_back(e);
      }
    }

    // Prove within buckets, shallow cones first.
    std::vector<std::vector<SweepEntry>*> work;
    for (auto& [sig, entries] : buckets) {
      if (entries.size() < 2) continue;
      std::sort(entries.begin(), entries.end(),
                [](const SweepEntry& x, const SweepEntry& y) {
                  return std::tie(x.depth, x.net, x.signal) <
                         std::tie(y.depth, y.net, y.signal);
                });
      work.push_back(&entries);
    }
    std::sort(work.begin(), work.end(),
              [](const auto* x, const auto* y) {
                return std::tie(x->front().depth, x->front().net,
                                x->front().signal) <
                       std::tie(y->front().depth, y->front().net,
                                y->front().signal);
              });

    // Bit k of models[v] is v's value in the k-th SAT model (up to 64).
    std::vector<std::uint64_t> models(n_vars, 0);
    int n_models = 0;
    const auto record_model = [&]() {
      if (n_models == 64) return;
      for (std::size_t v = 0; v < n_vars; ++v) {
        if (solver_.model_value(static_cast<Var>(v))) {
          models[v] |= 1ull << n_models;
        }
      }
      ++n_models;
    };
    const auto solve = [&](std::vector<Lit> assumptions) {
      ++agg_stats_.sweep_solves;
      const Solver::Result r = solver_.solve(assumptions);
      if (r == Solver::Result::kSat) record_model();
      return r;
    };

    int merged = 0;
    solver_.set_conflict_budget(options_.sweep_conflict_limit);
    solver_.set_deadline(deadline_);
    for (auto* entries : work) {
      const SweepEntry& rep = entries->front();
      for (std::size_t i = 1; i < entries->size(); ++i) {
        if (Clock::now() >= deadline_) return merged;
        const SweepEntry& e = (*entries)[i];
        if (e.var == rep.var) continue;  // already the same variable
        const bool complement = (e.negated != rep.negated);
        const std::uint64_t seen =
            n_models == 64 ? ~0ull : (1ull << n_models) - 1;
        const std::uint64_t diff =
            (models[static_cast<std::size_t>(rep.var)] ^
             models[static_cast<std::size_t>(e.var)]) & seen;
        if (diff != (complement ? seen : 0)) {
          ++agg_stats_.sweep_pruned;  // a recorded model tells them apart
          continue;
        }
        // rep == e (xor complement) iff both difference phases are UNSAT.
        if (solve({mk_lit(rep.var, false), mk_lit(e.var, !complement)}) !=
            Solver::Result::kUnsat) {
          continue;
        }
        if (solve({mk_lit(rep.var, true), mk_lit(e.var, complement)}) !=
            Solver::Result::kUnsat) {
          continue;
        }
        add_equal(&solver_, rep.var, e.var, complement);
        ++merged;
      }
    }
    return merged;
  }

  EquivResult found_counterexample(const Obligation& ob, EquivResult result) {
    // Extract the distinguishing assignment from the model.
    std::vector<std::pair<std::string, bool>> inputs, registers;
    for (const auto& [name, v] : pi_vars_) {
      inputs.emplace_back(name, solver_.model_value(v));
    }
    for (const auto& [name, v] : reg_vars_) {
      registers.emplace_back(name, solver_.model_value(v));
    }

    const auto diverges = [&](const std::vector<std::pair<std::string, bool>>& in,
                              const std::vector<std::pair<std::string, bool>>& regs,
                              bool* va, bool* vb) {
      return replay_diverges(ob, in, regs, va, vb);
    };

    bool va = false, vb = false;
    if (!diverges(inputs, registers, &va, &vb)) {
      result.status = EquivStatus::kUnknown;
      result.message =
          "internal error: model does not replay through simulation";
      return result;
    }

    // Minimize: canonicalize non-essential leaves to 0, then record the
    // leaves whose value the divergence actually depends on.
    const auto minimize = [&](std::vector<std::pair<std::string, bool>>* vec) {
      for (auto& [name, value] : *vec) {
        if (!value) continue;
        value = false;
        bool xa = false, xb = false;
        if (!diverges(inputs, registers, &xa, &xb)) value = true;
      }
    };
    minimize(&inputs);
    minimize(&registers);
    Counterexample cex;
    cex.inputs = inputs;
    cex.registers = registers;
    for (auto& [name, value] : cex.inputs) {
      value = !value;
      bool xa = false, xb = false;
      const bool still = replay_diverges(ob, cex.inputs, cex.registers, &xa, &xb);
      value = !value;
      if (!still) cex.care_inputs.push_back(name);
    }
    replay_diverges(ob, cex.inputs, cex.registers, &va, &vb);
    cex.diverging_output = ob.label;
    cex.value_a = va;
    cex.value_b = vb;
    result.status = EquivStatus::kNotEquivalent;
    result.message = "miter satisfiable at '" + ob.label + "'";
    result.cex = std::move(cex);
    return result;
  }

  /// Replays an assignment through both networks (two-value simulation of
  /// the combinational cut) and reports whether `ob` diverges.
  bool replay_diverges(const Obligation& ob,
                       const std::vector<std::pair<std::string, bool>>& inputs,
                       const std::vector<std::pair<std::string, bool>>& registers,
                       bool* va, bool* vb) {
    std::unordered_map<SignalId, bool> leaves_a, leaves_b;
    for (const auto& [name, value] : inputs) {
      leaves_a[a_.find_signal(name)] = value;
      leaves_b[b_.find_signal(name)] = value;
    }
    for (const auto& [ia, ib] : latch_b_of_a_) {
      const Latch& la = a_.latches()[static_cast<std::size_t>(ia)];
      const Latch& lb = b_.latches()[static_cast<std::size_t>(ib)];
      for (const auto& [name, value] : registers) {
        if (name == la.name) {
          leaves_a[la.q] = value;
          leaves_b[lb.q] = value;
          break;
        }
      }
    }
    const std::vector<char> values_a = eval_combinational(a_, leaves_a);
    const std::vector<char> values_b = eval_combinational(b_, leaves_b);

    SignalId sa = netlist::kNoSignal, sb = netlist::kNoSignal;
    if (ob.label.rfind(kNextStatePrefix, 0) == 0) {
      const std::string latch_name =
          ob.label.substr(std::string(kNextStatePrefix).size(),
                          ob.label.size() -
                              std::string(kNextStatePrefix).size() - 1);
      for (const auto& [ia, ib] : latch_b_of_a_) {
        const Latch& la = a_.latches()[static_cast<std::size_t>(ia)];
        if (la.name == latch_name) {
          sa = la.d;
          sb = b_.latches()[static_cast<std::size_t>(ib)].d;
          break;
        }
      }
    } else {
      sa = a_.find_signal(ob.label);
      sb = b_.find_signal(ob.label);
    }
    AMDREL_CHECK(sa != netlist::kNoSignal && sb != netlist::kNoSignal);
    *va = values_a[static_cast<std::size_t>(sa)] != 0;
    *vb = values_b[static_cast<std::size_t>(sb)] != 0;
    return *va != *vb;
  }

  const Network& a_;
  const Network& b_;
  EquivOptions options_;
  Clock::time_point deadline_;
  Solver solver_;
  SatStats agg_stats_;  ///< summed over all candidate-bijection attempts
  SignalVars vars_a_, vars_b_;
  std::vector<std::pair<std::string, Var>> pi_vars_;
  std::vector<std::pair<std::string, Var>> reg_vars_;  ///< by A latch name
  std::map<int, int> latch_b_of_a_;
  std::vector<int> topo_a_, topo_b_;
};

EquivResult prove_equivalence(const Network& a, const Network& b,
                              const EquivOptions& options) {
  static obs::Counter& c_formal = obs::counter("verify.formal_checks");
  static obs::Counter& c_vars = obs::counter("verify.sat_vars");
  static obs::Counter& c_clauses = obs::counter("verify.sat_clauses");
  static obs::Counter& c_conflicts = obs::counter("verify.sat_conflicts");
  static obs::Counter& c_decisions = obs::counter("verify.sat_decisions");
  static obs::Counter& c_props = obs::counter("verify.sat_propagations");
  static obs::Counter& c_us = obs::counter("verify.sat_us");
  static obs::Counter& c_struct = obs::counter("verify.struct_proved");
  obs::Span span("verify.formal");
  EquivResult res = EquivChecker(a, b, options).run();
  const SatStats& st = res.stats;
  c_formal.add(1);
  c_vars.add(static_cast<std::uint64_t>(st.vars));
  c_clauses.add(static_cast<std::uint64_t>(st.clauses));
  c_conflicts.add(st.conflicts);
  c_decisions.add(st.decisions);
  c_props.add(st.propagations);
  c_us.add(static_cast<std::uint64_t>(st.wall_s * 1e6));
  c_struct.add(static_cast<std::uint64_t>(res.structural_outputs));
  if (span.active()) {
    span.metric("sat_vars", static_cast<double>(st.vars));
    span.metric("sat_clauses", static_cast<double>(st.clauses));
    span.metric("sat_conflicts", static_cast<double>(st.conflicts));
    span.metric("proved_outputs", static_cast<double>(res.proved_outputs));
    span.metric("merged_points", static_cast<double>(res.merged_points));
    span.metric("structural_outputs",
                static_cast<double>(res.structural_outputs));
    span.metric("struct_s", st.struct_s);
    span.metric("sweep_s", st.sweep_s);
    span.metric("miter_s", st.miter_s);
    span.metric("sweep_solves", static_cast<double>(st.sweep_solves));
    span.metric("sweep_pruned", static_cast<double>(st.sweep_pruned));
  }
  return res;
}

std::string EquivResult::to_text() const {
  std::ostringstream os;
  os << "formal: " << equiv_status_name(status);
  if (!message.empty()) os << " — " << message;
  os << "\n";
  if (cex.has_value()) os << cex->to_text() << "\n";
  os << strprintf(
      "sat: %d vars, %d clauses, %llu conflicts, %llu decisions, %llu "
      "propagations, %llu learned, %llu restarts, %llu solves, %d merges, "
      "%d structural, %.3f s (seed %llu)\n",
      stats.vars, stats.clauses,
      static_cast<unsigned long long>(stats.conflicts),
      static_cast<unsigned long long>(stats.decisions),
      static_cast<unsigned long long>(stats.propagations),
      static_cast<unsigned long long>(stats.learned_clauses),
      static_cast<unsigned long long>(stats.restarts),
      static_cast<unsigned long long>(stats.solves), merged_points,
      structural_outputs, stats.wall_s, static_cast<unsigned long long>(seed));
  return os.str();
}

util::Json EquivResult::to_json() const {
  util::Json out = util::Json::make_object();
  out.set("status", equiv_status_name(status));
  out.set("message", message);
  out.set("seed", seed);
  out.set("matched_registers", matched_registers);
  out.set("proved_outputs", proved_outputs);
  out.set("merged_points", merged_points);
  out.set("structural_outputs", structural_outputs);
  util::Json sat = util::Json::make_object();
  sat.set("vars", stats.vars);
  sat.set("clauses", stats.clauses);
  sat.set("conflicts", stats.conflicts);
  sat.set("decisions", stats.decisions);
  sat.set("propagations", stats.propagations);
  sat.set("restarts", stats.restarts);
  sat.set("learned", stats.learned_clauses);
  sat.set("solves", stats.solves);
  sat.set("wall_s", stats.wall_s);
  out.set("sat", std::move(sat));
  if (cex.has_value()) {
    util::Json c = util::Json::make_object();
    c.set("diverging_output", cex->diverging_output);
    c.set("value_a", cex->value_a);
    c.set("value_b", cex->value_b);
    util::Json inputs = util::Json::make_object();
    for (const auto& [name, v] : cex->inputs) inputs.set(name, v);
    c.set("inputs", std::move(inputs));
    util::Json registers = util::Json::make_object();
    for (const auto& [name, v] : cex->registers) registers.set(name, v);
    c.set("registers", std::move(registers));
    util::Json care = util::Json::make_array();
    for (const std::string& name : cex->care_inputs) {
      care.push_back(util::Json::make_string(name));
    }
    c.set("care_inputs", std::move(care));
    out.set("counterexample", std::move(c));
  }
  return out;
}

}  // namespace amdrel::verify
