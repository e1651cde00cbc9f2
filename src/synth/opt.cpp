#include "synth/opt.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::synth {

using netlist::Gate;
using netlist::kNoSignal;
using netlist::Network;
using netlist::SignalId;
using netlist::TruthTable;

namespace {

/// A bit during network rewriting: constant or signal in the NEW network.
struct Bit {
  bool is_const = false;
  bool const_val = false;
  SignalId sig = kNoSignal;
  static Bit constant(bool v) { return {true, v, kNoSignal}; }
  static Bit signal(SignalId s) { return {false, false, s}; }
};

/// Gate emission with folding + structural hashing into a new network.
class Rebuilder {
 public:
  explicit Rebuilder(Network& net) : net_(&net) {}

  Network& net() { return *net_; }

  SignalId fresh(const std::string& hint) {
    // Always decorated: bare original names are reserved for pin_to_name
    // (POs and latch-D signals must keep their names).
    std::string name = strprintf("%s_r%d", hint.c_str(), counter_++);
    while (net_->find_signal(name) != kNoSignal) {
      name = strprintf("%s_r%d", hint.c_str(), counter_++);
    }
    return net_->add_signal(name);
  }

  SignalId materialize(const Bit& b, const std::string& hint) {
    if (!b.is_const) return b.sig;
    SignalId& cached = b.const_val ? const1_ : const0_;
    if (cached == kNoSignal) {
      cached = fresh(b.const_val ? "const1" : "const0");
      net_->add_gate(strprintf("const%d", counter_++),
                     TruthTable::constant(b.const_val), {}, cached);
    }
    (void)hint;
    return cached;
  }

  Bit make(TruthTable table, std::vector<Bit> ins, const std::string& hint) {
    for (int i = static_cast<int>(ins.size()) - 1; i >= 0; --i) {
      if (ins[static_cast<std::size_t>(i)].is_const) {
        table = table.cofactor(i, ins[static_cast<std::size_t>(i)].const_val);
        ins.erase(ins.begin() + i);
      }
    }
    for (int i = static_cast<int>(ins.size()) - 1; i >= 0; --i) {
      if (!table.depends_on(i)) {
        table = table.cofactor(i, false);
        ins.erase(ins.begin() + i);
      }
    }
    if (table.n_inputs() == 0) return Bit::constant(table.constant_value());
    if (table == TruthTable::identity()) return ins[0];

    std::string key = table.to_hex();
    for (const Bit& b : ins) {
      key += ',';
      key += std::to_string(b.sig);
    }
    auto it = strash_.find(key);
    if (it != strash_.end()) return Bit::signal(it->second);

    std::vector<SignalId> sig_ins;
    for (const Bit& b : ins) sig_ins.push_back(b.sig);
    SignalId out = fresh(hint);
    net_->add_gate(strprintf("g%d", counter_++), std::move(table),
                   std::move(sig_ins), out);
    strash_.emplace(std::move(key), out);
    return Bit::signal(out);
  }

  /// Forces bit `b` to appear under signal name `name` (for PO/latch-D).
  SignalId pin_to_name(const Bit& b, const std::string& name) {
    if (!b.is_const && b.sig != kNoSignal &&
        net_->signal_name(b.sig) == name) {
      return b.sig;
    }
    SignalId s = net_->find_signal(name);
    if (s == kNoSignal) s = net_->add_signal(name);
    if (b.is_const) {
      net_->add_gate(strprintf("pin%d", counter_++),
                     TruthTable::constant(b.const_val), {}, s);
    } else {
      net_->add_gate(strprintf("pin%d", counter_++),
                     TruthTable::identity(), {b.sig}, s);
    }
    return s;
  }

 private:
  Network* net_;
  int counter_ = 0;
  SignalId const0_ = kNoSignal;
  SignalId const1_ = kNoSignal;
  std::map<std::string, SignalId> strash_;
};

/// Shared rewrite driver: rebuilds `src` gate by gate, transforming each
/// gate's function through `emit` (which may expand it into several gates).
template <typename EmitFn>
Network rewrite_network(const Network& src, EmitFn emit) {
  Network dst(src.name());
  Rebuilder rb(dst);
  std::vector<Bit> value(static_cast<std::size_t>(src.num_signals()));

  for (SignalId s : src.inputs()) {
    SignalId ns = dst.add_signal(src.signal_name(s));
    dst.add_input(ns);
    value[static_cast<std::size_t>(s)] = Bit::signal(ns);
  }
  for (const auto& l : src.latches()) {
    SignalId nq = dst.add_signal(src.signal_name(l.q));
    value[static_cast<std::size_t>(l.q)] = Bit::signal(nq);
  }

  for (int gi : src.topo_order()) {
    const Gate& g = src.gates()[static_cast<std::size_t>(gi)];
    std::vector<Bit> ins;
    ins.reserve(g.inputs.size());
    for (SignalId in : g.inputs) {
      ins.push_back(value[static_cast<std::size_t>(in)]);
    }
    value[static_cast<std::size_t>(g.output)] =
        emit(rb, g.table, std::move(ins), src.signal_name(g.output));
  }

  for (const auto& l : src.latches()) {
    SignalId d =
        rb.pin_to_name(value[static_cast<std::size_t>(l.d)],
                       src.signal_name(l.d));
    SignalId clk = kNoSignal;
    if (l.clock != kNoSignal) {
      const Bit& cb = value[static_cast<std::size_t>(l.clock)];
      clk = rb.materialize(cb, src.signal_name(l.clock));
    }
    dst.add_latch(l.name, d, dst.find_signal(src.signal_name(l.q)), clk,
                  l.init);
  }
  for (SignalId s : src.outputs()) {
    SignalId po = rb.pin_to_name(value[static_cast<std::size_t>(s)],
                                 src.signal_name(s));
    dst.add_output(po);
  }
  return dst;
}

}  // namespace

int sweep_dead_logic(Network& network) {
  // Needed signals: POs, latch D and clocks.
  std::vector<char> needed(static_cast<std::size_t>(network.num_signals()), 0);
  for (SignalId s : network.outputs()) needed[static_cast<std::size_t>(s)] = 1;
  for (const auto& l : network.latches()) {
    needed[static_cast<std::size_t>(l.d)] = 1;
    if (l.clock != kNoSignal) needed[static_cast<std::size_t>(l.clock)] = 1;
  }
  // Walk gates in reverse topological order, marking inputs of needed gates.
  auto topo = network.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const Gate& g = network.gates()[static_cast<std::size_t>(*it)];
    if (!needed[static_cast<std::size_t>(g.output)]) continue;
    for (SignalId in : g.inputs) needed[static_cast<std::size_t>(in)] = 1;
  }
  // Rebuild the gate list without dead gates.
  Network fresh(network.name());
  // Cheap approach: rewrite with identity emit, but skip dead gates by
  // filtering before rewrite. Simplest correct path: mark and rebuild via
  // rewrite_network (dead gates are skipped automatically because their
  // outputs feed nothing — the rewrite only materializes reachable logic
  // lazily). rewrite_network walks all gates though; filter here instead.
  int removed = 0;
  std::vector<Gate> kept;
  for (const Gate& g : network.gates()) {
    if (needed[static_cast<std::size_t>(g.output)]) {
      kept.push_back(g);
    } else {
      ++removed;
    }
  }
  if (removed == 0) return 0;
  Network out(network.name());
  std::map<std::string, SignalId> name_map;
  auto xfer = [&](SignalId s) {
    const std::string& n = network.signal_name(s);
    auto it = name_map.find(n);
    if (it != name_map.end()) return it->second;
    SignalId ns = out.add_signal(n);
    name_map.emplace(n, ns);
    return ns;
  };
  for (SignalId s : network.inputs()) out.add_input(xfer(s));
  for (const Gate& g : kept) {
    std::vector<SignalId> ins;
    for (SignalId in : g.inputs) ins.push_back(xfer(in));
    out.add_gate(g.name, g.table, std::move(ins), xfer(g.output));
  }
  for (const auto& l : network.latches()) {
    out.add_latch(l.name, xfer(l.d), xfer(l.q),
                  l.clock == kNoSignal ? kNoSignal : xfer(l.clock), l.init);
  }
  for (SignalId s : network.outputs()) out.add_output(xfer(s));
  network = std::move(out);
  return removed;
}

Network propagate_constants(const Network& network) {
  return rewrite_network(
      network, [](Rebuilder& rb, const TruthTable& table, std::vector<Bit> ins,
                  const std::string& hint) {
        return rb.make(table, std::move(ins), hint);
      });
}

namespace {

/// Emits `table` over `ins` as a tree of ≤2-input gates (Shannon).
Bit shannon(Rebuilder& rb, const TruthTable& table, const std::vector<Bit>& ins,
            const std::string& hint) {
  std::vector<Bit> work = ins;
  TruthTable t = table;
  // Fold constants first so recursion terminates cleanly.
  for (int i = static_cast<int>(work.size()) - 1; i >= 0; --i) {
    if (work[static_cast<std::size_t>(i)].is_const) {
      t = t.cofactor(i, work[static_cast<std::size_t>(i)].const_val);
      work.erase(work.begin() + i);
    }
  }
  for (int i = static_cast<int>(work.size()) - 1; i >= 0; --i) {
    if (!t.depends_on(i)) {
      t = t.cofactor(i, false);
      work.erase(work.begin() + i);
    }
  }
  if (t.n_inputs() <= 2) return rb.make(t, work, hint);

  const int split = t.n_inputs() - 1;
  Bit x = work[static_cast<std::size_t>(split)];
  std::vector<Bit> rest(work.begin(), work.end() - 1);
  Bit f0 = shannon(rb, t.cofactor(split, false), rest, hint);
  Bit f1 = shannon(rb, t.cofactor(split, true), rest, hint);
  // out = (x & f1) | (!x & f0), all 2-input gates.
  Bit a = rb.make(TruthTable::and_n(2), {x, f1}, hint);
  TruthTable andc(2);  // !in0 & in1
  andc.set(0b10, true);
  Bit b = rb.make(andc, {x, f0}, hint);
  return rb.make(TruthTable::or_n(2), {a, b}, hint);
}

}  // namespace

Network decompose_to_2input(const Network& network) {
  return rewrite_network(
      network, [](Rebuilder& rb, const TruthTable& table, std::vector<Bit> ins,
                  const std::string& hint) {
        return shannon(rb, table, ins, hint);
      });
}

NetworkCost network_cost(const Network& network) {
  NetworkCost cost;
  cost.gates = static_cast<int>(network.gates().size());
  std::vector<int> level(static_cast<std::size_t>(network.num_signals()), 0);
  for (int gi : network.topo_order()) {
    const Gate& g = network.gates()[static_cast<std::size_t>(gi)];
    cost.literals += static_cast<int>(g.inputs.size());
    int lvl = 0;
    for (SignalId in : g.inputs) {
      lvl = std::max(lvl, level[static_cast<std::size_t>(in)]);
    }
    level[static_cast<std::size_t>(g.output)] = lvl + 1;
    cost.depth = std::max(cost.depth, lvl + 1);
  }
  return cost;
}

}  // namespace amdrel::synth
