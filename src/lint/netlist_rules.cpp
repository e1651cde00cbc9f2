#include "lint/netlist_rules.hpp"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace amdrel::lint {

namespace {

using netlist::Gate;
using netlist::Latch;
using netlist::Network;
using netlist::SignalId;

std::string sig(const Network& net, SignalId s) {
  return "signal '" + net.signal_name(s) + "'";
}

/// Counts drivers of every signal (PIs, gate outputs, latch Qs).
std::vector<int> driver_counts(const Network& net) {
  std::vector<int> drivers(static_cast<std::size_t>(net.num_signals()), 0);
  for (SignalId s : net.inputs()) ++drivers[static_cast<std::size_t>(s)];
  for (const Gate& g : net.gates()) {
    ++drivers[static_cast<std::size_t>(g.output)];
  }
  for (const Latch& l : net.latches()) ++drivers[static_cast<std::size_t>(l.q)];
  return drivers;
}

/// Counts readers of every signal (gate inputs, latch D/clock, POs).
std::vector<int> reader_counts(const Network& net) {
  std::vector<int> readers(static_cast<std::size_t>(net.num_signals()), 0);
  for (const Gate& g : net.gates()) {
    for (SignalId in : g.inputs) ++readers[static_cast<std::size_t>(in)];
  }
  for (const Latch& l : net.latches()) {
    ++readers[static_cast<std::size_t>(l.d)];
    if (l.clock != netlist::kNoSignal) {
      ++readers[static_cast<std::size_t>(l.clock)];
    }
  }
  for (SignalId s : net.outputs()) ++readers[static_cast<std::size_t>(s)];
  return readers;
}

// NL002: a signal with more than one driver.
void check_multi_driven(const Network& net, const std::vector<int>& drivers,
                        Report* report) {
  for (SignalId s = 0; s < net.num_signals(); ++s) {
    const int n = drivers[static_cast<std::size_t>(s)];
    if (n > 1) {
      report->add(rules::kMultiDriven, sig(net, s),
                  strprintf("driven by %d sources", n));
    }
  }
}

// NL003: a signal read by a gate/latch/PO but never driven.
void check_undriven(const Network& net, const std::vector<int>& drivers,
                    Report* report) {
  auto driven = [&](SignalId s) {
    return drivers[static_cast<std::size_t>(s)] > 0;
  };
  std::set<SignalId> flagged;  // one diagnostic per signal, first use named
  auto flag = [&](SignalId s, const std::string& use) {
    if (!flagged.insert(s).second) return;
    report->add(rules::kUndrivenSignal, sig(net, s), "floating: " + use);
  };
  for (const Gate& g : net.gates()) {
    for (SignalId in : g.inputs) {
      if (!driven(in)) flag(in, "input of gate '" + g.name + "'");
    }
  }
  for (const Latch& l : net.latches()) {
    if (!driven(l.d)) flag(l.d, "D of latch '" + l.name + "'");
    if (l.clock != netlist::kNoSignal && !driven(l.clock)) {
      flag(l.clock, "clock of latch '" + l.name + "'");
    }
  }
  for (SignalId s : net.outputs()) {
    if (!driven(s)) flag(s, "primary output");
  }
}

// NL004 / NL008: driven-but-unread signals; unread primary inputs.
void check_dangling(const Network& net, const std::vector<int>& readers,
                    Report* report) {
  std::set<SignalId> pis(net.inputs().begin(), net.inputs().end());
  auto unread = [&](SignalId s) {
    return readers[static_cast<std::size_t>(s)] == 0 && !net.is_output(s);
  };
  for (SignalId s : net.inputs()) {
    if (unread(s)) {
      report->add(rules::kUnusedInput, sig(net, s),
                  "primary input drives nothing");
    }
  }
  for (const Gate& g : net.gates()) {
    if (unread(g.output) && !pis.count(g.output)) {
      report->add(rules::kDanglingOutput, sig(net, g.output),
                  "output of gate '" + g.name + "' is never read");
    }
  }
  for (const Latch& l : net.latches()) {
    if (unread(l.q) && !pis.count(l.q)) {
      report->add(rules::kDanglingOutput, sig(net, l.q),
                  "Q of latch '" + l.name + "' is never read");
    }
  }
}

// NL001: combinational cycles among gates. Kahn peeling; the residual
// gates are exactly the cycle members (plus logic fed only by cycles).
void check_cycles(const Network& net, Report* report) {
  const auto& gates = net.gates();
  const int n = static_cast<int>(gates.size());
  std::vector<int> gate_of_signal(static_cast<std::size_t>(net.num_signals()),
                                  -1);
  for (int g = 0; g < n; ++g) {
    gate_of_signal[static_cast<std::size_t>(
        gates[static_cast<std::size_t>(g)].output)] = g;
  }
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> fanout(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) {
    for (SignalId in : gates[static_cast<std::size_t>(g)].inputs) {
      const int src = gate_of_signal[static_cast<std::size_t>(in)];
      if (src >= 0 && src != g) {
        fanout[static_cast<std::size_t>(src)].push_back(g);
        ++indegree[static_cast<std::size_t>(g)];
      } else if (src == g) {
        // direct self-loop: g's output feeds its own input
        ++indegree[static_cast<std::size_t>(g)];
      }
    }
  }
  std::vector<int> ready;
  for (int g = 0; g < n; ++g) {
    if (indegree[static_cast<std::size_t>(g)] == 0) ready.push_back(g);
  }
  int peeled = 0;
  while (!ready.empty()) {
    const int g = ready.back();
    ready.pop_back();
    ++peeled;
    for (int next : fanout[static_cast<std::size_t>(g)]) {
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        ready.push_back(next);
      }
    }
  }
  if (peeled == n) return;
  // Name the residual gates (bounded — the report caps per-rule output,
  // but keep the single summary diagnostic readable).
  std::string members;
  int listed = 0;
  for (int g = 0; g < n && listed < 8; ++g) {
    if (indegree[static_cast<std::size_t>(g)] > 0) {
      if (listed) members += ", ";
      members += "'" + gates[static_cast<std::size_t>(g)].name + "'";
      ++listed;
    }
  }
  if (n - peeled > listed) members += ", ...";
  report->add(rules::kCombCycle, "network '" + net.name() + "'",
              strprintf("%d gate(s) on combinational cycles: ", n - peeled) +
                  members);
}

// NL005: constant truth tables, and connected inputs the table ignores.
void check_constant_luts(const Network& net, Report* report) {
  for (const Gate& g : net.gates()) {
    if (g.table.n_inputs() > 0 && g.table.is_constant()) {
      report->add(rules::kConstantLut, "gate '" + g.name + "'",
                  strprintf("output is constant %d despite %d input(s)",
                            g.table.constant_value() ? 1 : 0,
                            g.table.n_inputs()));
      continue;
    }
    for (int i = 0; i < g.table.n_inputs(); ++i) {
      if (!g.table.depends_on(i)) {
        report->add(
            rules::kConstantLut, "gate '" + g.name + "'",
            strprintf("ignores connected input %d (%s)", i,
                      net.signal_name(g.inputs[static_cast<std::size_t>(i)])
                          .c_str()));
      }
    }
  }
}

// NL006: structurally identical LUTs (same table, same input signals).
void check_duplicate_luts(const Network& net, Report* report) {
  std::map<std::string, const Gate*> seen;
  for (const Gate& g : net.gates()) {
    std::string key = g.table.to_hex();
    for (SignalId in : g.inputs) {
      key += ',';
      key += std::to_string(in);
    }
    auto [it, inserted] = seen.emplace(std::move(key), &g);
    if (!inserted) {
      report->add(rules::kDuplicateLut, "gate '" + g.name + "'",
                  "computes the same function of the same inputs as gate '" +
                      it->second->name + "'");
    }
  }
}

// NL007: clock-domain sanity. The fabric registers everything on one
// global clock; flag gated clocks, clocks used as data, and multi-clock
// networks early (they would otherwise die in packing or silently lose
// the paper's single-clock assumption).
void check_clocks(const Network& net, Report* report) {
  std::set<SignalId> clocks;
  for (const Latch& l : net.latches()) {
    if (l.clock != netlist::kNoSignal) clocks.insert(l.clock);
  }
  if (clocks.empty()) return;
  for (SignalId c : clocks) {
    if (net.driver_gate(c) >= 0) {
      report->add(rules::kClockSanity, sig(net, c),
                  "clock is driven by combinational logic (gated clock)");
    } else if (net.driver_latch(c) >= 0) {
      report->add(rules::kClockSanity, sig(net, c),
                  "clock is driven by a latch (derived clock)");
    }
    for (const Gate& g : net.gates()) {
      for (SignalId in : g.inputs) {
        if (in == c) {
          report->add(rules::kClockSanity, sig(net, c),
                      "clock also feeds data input of gate '" + g.name + "'");
          break;
        }
      }
    }
  }
  if (clocks.size() > 1) {
    std::string names;
    for (SignalId c : clocks) {
      if (!names.empty()) names += ", ";
      names += "'" + net.signal_name(c) + "'";
    }
    report->add(rules::kClockSanity, "network '" + net.name() + "'",
                strprintf("%d clock domains (%s); the fabric provides a "
                          "single global clock",
                          static_cast<int>(clocks.size()), names.c_str()));
  }
}

}  // namespace

void lint_network(const netlist::Network& network, Report* report) {
  const std::vector<int> drivers = driver_counts(network);
  const std::vector<int> readers = reader_counts(network);
  check_multi_driven(network, drivers, report);
  check_undriven(network, drivers, report);
  check_dangling(network, readers, report);
  check_cycles(network, report);
  check_constant_luts(network, report);
  check_duplicate_luts(network, report);
  check_clocks(network, report);
}

}  // namespace amdrel::lint
