#include "bench_gen/bench_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace amdrel::bench_gen {

using netlist::kNoSignal;
using netlist::LatchInit;
using netlist::Network;
using netlist::SignalId;
using netlist::TruthTable;

namespace {

// prefix+index without ostream/temporary-concatenation churn — the
// generator emits millions of names on giant tiers.
std::string idx_name(const char* prefix, int i) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%s%d", prefix, i);
  return std::string(buf, static_cast<std::size_t>(len));
}

}  // namespace

Network generate(const BenchSpec& spec) {
  AMDREL_CHECK(spec.n_inputs >= 1 && spec.n_outputs >= 1 && spec.n_gates >= 1);
  Rng rng(spec.seed);
  Network net(spec.name);
  // Size everything up front: one allocation per table, O(n) overall.
  const int clk_signals = spec.n_latches > 0 ? 1 : 0;
  net.reserve(spec.n_inputs + clk_signals + spec.n_latches + spec.n_gates +
                  spec.n_outputs,
              spec.n_gates + spec.n_outputs, spec.n_latches);

  std::vector<SignalId> pool;  // candidate fanin signals, creation order
  pool.reserve(static_cast<std::size_t>(spec.n_inputs + spec.n_latches +
                                        spec.n_gates));
  for (int i = 0; i < spec.n_inputs; ++i) {
    SignalId s = net.add_signal(idx_name("pi", i));
    net.add_input(s);
    pool.push_back(s);
  }
  SignalId clk = kNoSignal;
  if (spec.n_latches > 0) {
    clk = net.add_signal("clk");
    net.add_input(clk);
  }
  std::vector<SignalId> latch_q;
  latch_q.reserve(static_cast<std::size_t>(spec.n_latches));
  for (int i = 0; i < spec.n_latches; ++i) {
    SignalId q = net.add_signal(idx_name("ff", i));
    latch_q.push_back(q);
    pool.push_back(q);
  }

  // Locality-biased fanin pick: prefer recently created signals.
  auto pick_fanin = [&]() -> SignalId {
    const std::size_t n = pool.size();
    if (rng.next_double() < spec.locality) {
      // Geometric-ish window over the most recent quarter, capped at the
      // spec's absolute window (see BenchSpec::window).
      std::size_t window = std::max<std::size_t>(4, n / 4);
      if (spec.window > 0) {
        window = std::min(window, static_cast<std::size_t>(spec.window));
      }
      std::size_t back = rng.next_below(std::min(window, n));
      return pool[n - 1 - back];
    }
    return pool[static_cast<std::size_t>(rng.next_below(n))];
  };

  // Random nontrivial 2-input functions.
  auto random_tt2 = [&]() {
    for (;;) {
      std::uint64_t bits = rng.next_below(16);
      TruthTable t = TruthTable::from_bits(2, bits);
      if (!t.is_constant() && t.depends_on(0) && t.depends_on(1)) return t;
    }
  };

  std::vector<SignalId> gate_outs;
  gate_outs.reserve(static_cast<std::size_t>(spec.n_gates));
  for (int i = 0; i < spec.n_gates; ++i) {
    SignalId a = pick_fanin();
    SignalId b = pick_fanin();
    int guard = 0;
    while (b == a && ++guard < 10) b = pick_fanin();
    SignalId out = net.add_signal(idx_name("n", i));
    if (a == b) {
      net.add_gate(idx_name("g", i), TruthTable::inverter(), {a}, out);
    } else {
      net.add_gate(idx_name("g", i), random_tt2(), {a, b}, out);
    }
    pool.push_back(out);
    gate_outs.push_back(out);
  }

  // Latch D inputs from late gates (keeps sequential depth interesting).
  for (int i = 0; i < spec.n_latches; ++i) {
    SignalId d = gate_outs[static_cast<std::size_t>(
        rng.next_below(gate_outs.size()))];
    net.add_latch(idx_name("ff", i), d, latch_q[static_cast<std::size_t>(i)],
                  clk, rng.next_bool() ? LatchInit::kOne : LatchInit::kZero);
  }

  // Outputs from the last gates (plus random earlier picks).
  for (int i = 0; i < spec.n_outputs; ++i) {
    SignalId src;
    if (i < static_cast<int>(gate_outs.size())) {
      src = gate_outs[gate_outs.size() - 1 - static_cast<std::size_t>(i)];
    } else {
      src = gate_outs[static_cast<std::size_t>(rng.next_below(gate_outs.size()))];
    }
    SignalId po = net.add_signal(idx_name("po", i));
    net.add_gate(idx_name("obuf", i), TruthTable::identity(), {src}, po);
    net.add_output(po);
  }

  net.validate();
  return net;
}

netlist::Network perturb(const netlist::Network& base, const EditSpec& spec) {
  Rng rng(spec.seed);
  Network net = base;
  const int n_gates = static_cast<int>(net.gates().size());
  AMDREL_CHECK_MSG(n_gates > 0, "cannot perturb a gate-free network");

  // Safe rewire sources: PIs and latch outputs (never a clock) — feeding
  // a gate from one of these can never create a combinational cycle.
  std::vector<SignalId> safe_sources;
  {
    std::vector<char> is_clock;
    is_clock.assign(static_cast<std::size_t>(net.num_signals()), 0);
    for (const auto& l : net.latches()) {
      if (l.clock != kNoSignal) is_clock[static_cast<std::size_t>(l.clock)] = 1;
    }
    for (SignalId s : net.inputs()) {
      if (!is_clock[static_cast<std::size_t>(s)]) safe_sources.push_back(s);
    }
    for (const auto& l : net.latches()) safe_sources.push_back(l.q);
  }

  // Random nontrivial table of the same arity, different from `old`.
  auto retune = [&](const TruthTable& old) {
    const int k = old.n_inputs();
    for (;;) {
      std::uint64_t bits = rng.next_below(1ull << (1 << k));
      TruthTable t = TruthTable::from_bits(k, bits);
      if (t.is_constant() || t == old) continue;
      bool full = true;
      for (int i = 0; i < k; ++i) full = full && t.depends_on(i);
      if (full) return t;
    }
  };

  for (int i = 0; i < spec.flips; ++i) {
    netlist::Gate& g = net.gate(static_cast<int>(rng.next_below(
        static_cast<std::size_t>(n_gates))));
    g.table = retune(g.table);
  }

  for (int i = 0; i < spec.rewires && !safe_sources.empty(); ++i) {
    netlist::Gate& g = net.gate(static_cast<int>(rng.next_below(
        static_cast<std::size_t>(n_gates))));
    const std::size_t slot = rng.next_below(g.inputs.size());
    SignalId repl = kNoSignal;
    for (int guard = 0; guard < 32; ++guard) {
      SignalId cand = safe_sources[static_cast<std::size_t>(
          rng.next_below(safe_sources.size()))];
      if (std::find(g.inputs.begin(), g.inputs.end(), cand) ==
          g.inputs.end()) {
        repl = cand;
        break;
      }
    }
    if (repl != kNoSignal) g.inputs[slot] = repl;
  }

  for (int i = 0; i < spec.added_luts; ++i) {
    // Splice: new_sig = old_out XOR pi, then retarget one gate-consumer of
    // old_out to new_sig. Both fanins of the new gate already exist, and
    // the consumer was downstream of old_out before, so no cycle forms.
    std::vector<std::pair<int, std::size_t>> consumers;  // (gate, slot)
    const netlist::Gate& src = net.gates()[rng.next_below(
        static_cast<std::size_t>(n_gates))];
    const SignalId old_out = src.output;
    for (int gi = 0; gi < static_cast<int>(net.gates().size()); ++gi) {
      const auto& ins = net.gates()[static_cast<std::size_t>(gi)].inputs;
      for (std::size_t k = 0; k < ins.size(); ++k) {
        if (ins[k] == old_out) consumers.emplace_back(gi, k);
      }
    }
    if (consumers.empty() || safe_sources.empty()) continue;
    const auto [ci, slot] =
        consumers[static_cast<std::size_t>(rng.next_below(consumers.size()))];
    const SignalId pi = safe_sources[static_cast<std::size_t>(
        rng.next_below(safe_sources.size()))];
    std::string name = strprintf("eco_add%d", i);
    while (net.find_signal(name) != kNoSignal) name += "_";
    const SignalId fresh = net.add_signal(name);
    net.add_gate(name, TruthTable::from_bits(2, 0b0110), {old_out, pi}, fresh);
    net.gate(ci).inputs[slot] = fresh;
  }

  net.validate();
  return net;
}

std::vector<BenchSpec> mcnc_like_suite() {
  // Sizes loosely follow the LGSynth93 range the paper's tools target.
  std::vector<BenchSpec> suite;
  auto add = [&](const char* name, int pi, int po, int gates, int ffs,
                 std::uint64_t seed) {
    BenchSpec s;
    s.name = name;
    s.n_inputs = pi;
    s.n_outputs = po;
    s.n_gates = gates;
    s.n_latches = ffs;
    s.seed = seed;
    suite.push_back(s);
  };
  add("syn_ex5p", 8, 28, 350, 0, 11);
  add("syn_misex", 14, 14, 500, 0, 12);
  add("syn_alu4", 14, 8, 800, 0, 13);
  add("syn_apex4", 9, 19, 900, 0, 14);
  add("syn_tseng", 52, 30, 600, 128, 15);
  add("syn_dsip", 36, 28, 900, 224, 16);
  add("syn_s298", 4, 6, 1200, 8, 17);
  add("syn_bigseq", 16, 16, 1600, 96, 18);
  return suite;
}

}  // namespace amdrel::bench_gen
