#include "pack/pack.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::pack {

using netlist::kNoSignal;
using netlist::Network;
using netlist::SignalId;

PackedNetlist::PackedNetlist(const Network& network,
                             const arch::ArchSpec& spec)
    : PackedNetlist(network, spec, static_cast<const PackHints*>(nullptr)) {}

PackedNetlist::PackedNetlist(const Network& network, const arch::ArchSpec& spec,
                             const PackHints& hints)
    : PackedNetlist(network, spec, &hints) {}

PackedNetlist::PackedNetlist(const Network& network,
                             const arch::ArchSpec& spec,
                             const PackHints* hints)
    : network_(&network), spec_(&spec) {
  for (const auto& g : network.gates()) {
    AMDREL_CHECK_MSG(g.table.n_inputs() <= spec.k,
                     "gate wider than K; run the LUT mapper first: " + g.name);
  }
  obs::Span span("pack.cluster");
  form_bles();
  pack_clusters(hints);
  validate();
  static obs::Counter& c_bles = obs::counter("pack.bles");
  static obs::Counter& c_clusters = obs::counter("pack.clusters");
  static obs::Counter& c_absorbed = obs::counter("pack.absorbed");
  static obs::Counter& c_rollbacks = obs::counter("pack.rollbacks");
  c_bles.add(bles_.size());
  c_clusters.add(clusters_.size());
  c_absorbed.add(absorbed_nets_);
  c_rollbacks.add(rollbacks_);
  if (span.active()) {
    span.metric("bles", static_cast<double>(bles_.size()));
    span.metric("clusters", static_cast<double>(clusters_.size()));
    span.metric("absorbed", static_cast<double>(absorbed_nets_));
    span.metric("rollbacks", static_cast<double>(rollbacks_));
  }
}

void PackedNetlist::form_bles() {
  const Network& net = *network_;
  // Fanout count per signal (gates + latches + POs).
  std::vector<int> fanout(static_cast<std::size_t>(net.num_signals()), 0);
  for (const auto& g : net.gates()) {
    for (SignalId in : g.inputs) ++fanout[static_cast<std::size_t>(in)];
  }
  for (const auto& l : net.latches()) {
    ++fanout[static_cast<std::size_t>(l.d)];
  }
  for (SignalId s : net.outputs()) ++fanout[static_cast<std::size_t>(s)];

  std::vector<int> gate_of(static_cast<std::size_t>(net.num_signals()), -1);
  for (std::size_t gi = 0; gi < net.gates().size(); ++gi) {
    gate_of[static_cast<std::size_t>(net.gates()[gi].output)] =
        static_cast<int>(gi);
  }

  std::vector<char> gate_used(net.gates().size(), 0);

  // FF+LUT pairing: latch D driven by a LUT whose only fanout is this FF,
  // and the LUT output is not itself a primary output.
  for (std::size_t li = 0; li < net.latches().size(); ++li) {
    const auto& l = net.latches()[li];
    Ble ble;
    ble.latch = static_cast<int>(li);
    ble.output = l.q;
    ble.clock = l.clock;
    int src = gate_of[static_cast<std::size_t>(l.d)];
    if (src >= 0 && fanout[static_cast<std::size_t>(l.d)] == 1 &&
        !net.is_output(l.d)) {
      ble.lut_gate = src;
      gate_used[static_cast<std::size_t>(src)] = 1;
      ble.inputs = net.gates()[static_cast<std::size_t>(src)].inputs;
    } else {
      // FF alone: the BLE's LUT is a route-through; D is the single input.
      ble.inputs = {l.d};
    }
    bles_.push_back(std::move(ble));
  }
  // Remaining LUTs occupy BLEs without a FF.
  for (std::size_t gi = 0; gi < net.gates().size(); ++gi) {
    if (gate_used[gi]) continue;
    const auto& g = net.gates()[gi];
    Ble ble;
    ble.lut_gate = static_cast<int>(gi);
    ble.output = g.output;
    ble.inputs = g.inputs;
    bles_.push_back(std::move(ble));
  }
}

void PackedNetlist::pack_clusters(const PackHints* hints) {
  const Network& net = *network_;
  const int capacity = spec_->n;
  const int max_inputs = spec_->cluster_inputs();

  // Signal → producing BLE (if any).
  std::vector<int> producer(static_cast<std::size_t>(net.num_signals()), -1);
  for (std::size_t bi = 0; bi < bles_.size(); ++bi) {
    producer[static_cast<std::size_t>(bles_[bi].output)] =
        static_cast<int>(bi);
  }
  // Signal → consuming BLEs.
  std::vector<std::vector<int>> consumers(
      static_cast<std::size_t>(net.num_signals()));
  for (std::size_t bi = 0; bi < bles_.size(); ++bi) {
    for (SignalId in : bles_[bi].inputs) {
      consumers[static_cast<std::size_t>(in)].push_back(static_cast<int>(bi));
    }
  }

  ble_cluster_.assign(bles_.size(), -1);
  std::vector<char> clustered(bles_.size(), 0);

  // Working cluster state.
  struct Work {
    std::vector<int> members;
    std::set<SignalId> internal_outputs;
    std::set<SignalId> external_inputs;
    SignalId clock = kNoSignal;
  };

  auto can_add = [&](const Work& w, int bi) {
    const Ble& b = bles_[static_cast<std::size_t>(bi)];
    if (static_cast<int>(w.members.size()) >= capacity) return false;
    if (b.clock != kNoSignal && w.clock != kNoSignal && b.clock != w.clock) {
      ++rollbacks_;
      return false;
    }
    // Recompute external inputs with b added.
    std::set<SignalId> ext = w.external_inputs;
    ext.erase(b.output);  // b's output becomes internal
    for (SignalId in : b.inputs) {
      if (w.internal_outputs.count(in) || in == b.output) continue;
      ext.insert(in);
    }
    if (static_cast<int>(ext.size()) > max_inputs) {
      ++rollbacks_;
      return false;
    }
    return true;
  };

  auto add_to = [&](Work& w, int bi) {
    const Ble& b = bles_[static_cast<std::size_t>(bi)];
    for (SignalId in : b.inputs) {
      if (w.internal_outputs.count(in)) ++absorbed_nets_;
    }
    if (w.external_inputs.count(b.output)) ++absorbed_nets_;
    w.members.push_back(bi);
    w.internal_outputs.insert(b.output);
    w.external_inputs.erase(b.output);
    for (SignalId in : b.inputs) {
      if (!w.internal_outputs.count(in)) w.external_inputs.insert(in);
    }
    if (b.clock != kNoSignal) w.clock = b.clock;
    clustered[static_cast<std::size_t>(bi)] = 1;
  };

  // Attraction: nets shared with the cluster.
  auto attraction = [&](const Work& w, int bi) {
    const Ble& b = bles_[static_cast<std::size_t>(bi)];
    int score = 0;
    for (SignalId in : b.inputs) {
      if (w.internal_outputs.count(in)) score += 2;  // absorbs a net
      if (w.external_inputs.count(in)) score += 1;   // shares an input
    }
    if (w.external_inputs.count(b.output)) score += 2;
    return score;
  };

  // ECO hint pre-pass: recreate previous clusters all-or-nothing, in hint
  // order and with their original slot order, before greedy packing sees
  // the netlist. A hint fails cleanly (rollback, BLEs stay free) when a
  // named BLE is gone, already taken, or the constraints no longer hold.
  if (hints != nullptr) {
    std::map<std::string, int> ble_by_output;
    for (std::size_t bi = 0; bi < bles_.size(); ++bi) {
      ble_by_output[net.signal_name(bles_[bi].output)] = static_cast<int>(bi);
    }
    hint_cluster_.assign(hints->clusters.size(), -1);
    for (std::size_t hi = 0; hi < hints->clusters.size(); ++hi) {
      std::vector<int> members;
      members.reserve(hints->clusters[hi].size());
      bool ok = !hints->clusters[hi].empty();
      for (const std::string& name : hints->clusters[hi]) {
        auto it = ble_by_output.find(name);
        if (it == ble_by_output.end() ||
            clustered[static_cast<std::size_t>(it->second)]) {
          ok = false;
          break;
        }
        members.push_back(it->second);
      }
      if (ok) {
        Work w;
        for (int bi : members) {
          if (!w.members.empty() && !can_add(w, bi)) {
            ok = false;
            break;
          }
          add_to(w, bi);
        }
        if (ok) {
          Cluster cluster;
          cluster.bles = w.members;
          cluster.clock = w.clock;
          cluster.input_signals.assign(w.external_inputs.begin(),
                                       w.external_inputs.end());
          for (int bi : w.members) {
            ble_cluster_[static_cast<std::size_t>(bi)] =
                static_cast<int>(clusters_.size());
          }
          hint_cluster_[hi] = static_cast<int>(clusters_.size());
          clusters_.push_back(std::move(cluster));
        } else {
          for (int bi : w.members) clustered[static_cast<std::size_t>(bi)] = 0;
        }
      }
    }
  }

  // Seed order: most inputs first (T-VPack's unconnected-seed heuristic).
  std::vector<int> seeds(bles_.size());
  for (std::size_t i = 0; i < bles_.size(); ++i) seeds[i] = static_cast<int>(i);
  std::sort(seeds.begin(), seeds.end(), [&](int a, int b) {
    return bles_[static_cast<std::size_t>(a)].inputs.size() >
           bles_[static_cast<std::size_t>(b)].inputs.size();
  });

  for (int seed : seeds) {
    if (clustered[static_cast<std::size_t>(seed)]) continue;
    Work w;
    add_to(w, seed);
    // Grow greedily by attraction.
    while (static_cast<int>(w.members.size()) < capacity) {
      int best = -1;
      int best_score = -1;
      // Candidates: BLEs touching the cluster's nets, else any unclustered.
      std::set<int> cand;
      for (SignalId s : w.internal_outputs) {
        for (int c : consumers[static_cast<std::size_t>(s)]) cand.insert(c);
      }
      for (SignalId s : w.external_inputs) {
        int p = producer[static_cast<std::size_t>(s)];
        if (p >= 0) cand.insert(p);
        for (int c : consumers[static_cast<std::size_t>(s)]) cand.insert(c);
      }
      for (int c : cand) {
        if (clustered[static_cast<std::size_t>(c)]) continue;
        if (!can_add(w, c)) continue;
        int score = attraction(w, c);
        if (score > best_score) {
          best_score = score;
          best = c;
        }
      }
      if (best < 0) {
        // Fill with any packable unclustered BLE (T-VPack fills clusters).
        for (std::size_t c = 0; c < bles_.size(); ++c) {
          if (clustered[c]) continue;
          if (can_add(w, static_cast<int>(c))) {
            best = static_cast<int>(c);
            break;
          }
        }
      }
      if (best < 0) break;
      add_to(w, best);
    }

    Cluster cluster;
    cluster.bles = w.members;
    cluster.clock = w.clock;
    cluster.input_signals.assign(w.external_inputs.begin(),
                                 w.external_inputs.end());
    for (int bi : w.members) {
      ble_cluster_[static_cast<std::size_t>(bi)] =
          static_cast<int>(clusters_.size());
    }
    clusters_.push_back(std::move(cluster));
  }

  // Output signals: BLE outputs consumed outside the cluster or by POs.
  std::vector<std::set<SignalId>> outs(clusters_.size());
  for (std::size_t ci = 0; ci < clusters_.size(); ++ci) {
    for (int bi : clusters_[ci].bles) {
      const Ble& b = bles_[static_cast<std::size_t>(bi)];
      bool leaves = net.is_output(b.output);
      for (int consumer : consumers[static_cast<std::size_t>(b.output)]) {
        if (ble_cluster_[static_cast<std::size_t>(consumer)] !=
            static_cast<int>(ci)) {
          leaves = true;
          break;
        }
      }
      if (leaves) outs[ci].insert(b.output);
    }
    clusters_[ci].output_signals.assign(outs[ci].begin(), outs[ci].end());
  }
}

std::vector<PackViolation> PackedNetlist::violations() const {
  const Network& net = *network_;
  std::vector<PackViolation> found;
  const auto fail = [&](PackInvariant kind, std::string object,
                        std::string message) {
    found.push_back({kind, std::move(object), std::move(message)});
  };
  std::vector<int> gate_seen(net.gates().size(), 0);
  std::vector<int> latch_seen(net.latches().size(), 0);
  for (std::size_t bi = 0; bi < bles_.size(); ++bi) {
    const Ble& b = bles_[bi];
    if (b.lut_gate >= 0) ++gate_seen[static_cast<std::size_t>(b.lut_gate)];
    if (b.latch >= 0) ++latch_seen[static_cast<std::size_t>(b.latch)];
    if (b.lut_gate < 0 && b.latch < 0) {
      fail(PackInvariant::kCoverage, strprintf("BLE %zu", bi),
           "empty BLE (no LUT and no FF)");
    }
    if (static_cast<int>(b.inputs.size()) > spec_->k) {
      fail(PackInvariant::kCoverage, strprintf("BLE %zu", bi),
           strprintf("%zu inputs exceed K=%d", b.inputs.size(), spec_->k));
    }
  }
  for (std::size_t g = 0; g < gate_seen.size(); ++g) {
    if (gate_seen[g] != 1) {
      fail(PackInvariant::kCoverage, "gate '" + net.gates()[g].name + "'",
           strprintf("packed into %d BLE(s), expected 1", gate_seen[g]));
    }
  }
  for (std::size_t l = 0; l < latch_seen.size(); ++l) {
    if (latch_seen[l] != 1) {
      fail(PackInvariant::kCoverage, "latch '" + net.latches()[l].name + "'",
           strprintf("packed into %d BLE(s), expected 1", latch_seen[l]));
    }
  }

  std::vector<int> ble_seen(bles_.size(), 0);
  for (std::size_t ci = 0; ci < clusters_.size(); ++ci) {
    const Cluster& c = clusters_[ci];
    if (static_cast<int>(c.bles.size()) > spec_->n) {
      fail(PackInvariant::kClusterSize, strprintf("cluster %zu", ci),
           strprintf("%zu BLEs exceed N=%d", c.bles.size(), spec_->n));
    }
    if (static_cast<int>(c.input_signals.size()) > spec_->cluster_inputs()) {
      fail(PackInvariant::kClusterInputs, strprintf("cluster %zu", ci),
           strprintf("%zu external inputs exceed I=%d",
                     c.input_signals.size(), spec_->cluster_inputs()));
    }
    std::set<SignalId> clocks;
    for (int bi : c.bles) {
      ++ble_seen[static_cast<std::size_t>(bi)];
      const Ble& b = bles_[static_cast<std::size_t>(bi)];
      if (b.clock != kNoSignal) clocks.insert(b.clock);
    }
    if (clocks.size() > 1) {
      fail(PackInvariant::kClusterClock, strprintf("cluster %zu", ci),
           strprintf("%zu distinct clocks in one cluster", clocks.size()));
    }
  }
  for (std::size_t bi = 0; bi < ble_seen.size(); ++bi) {
    if (ble_seen[bi] != 1) {
      fail(PackInvariant::kCoverage, strprintf("BLE %zu", bi),
           strprintf("clustered %d time(s), expected 1", ble_seen[bi]));
    }
  }
  return found;
}

std::string PackedNetlist::stats() const {
  int used_bles = static_cast<int>(bles_.size());
  int cap = static_cast<int>(clusters_.size()) * spec_->n;
  return strprintf("%d BLEs in %d clusters (N=%d, K=%d, I=%d, %.0f%% full)",
                   used_bles, static_cast<int>(clusters_.size()), spec_->n,
                   spec_->k, spec_->cluster_inputs(),
                   cap ? 100.0 * used_bles / cap : 0.0);
}

void write_net_file(const PackedNetlist& packed, std::ostream& out) {
  const Network& net = packed.network();
  out << "# T-VPack style clustered netlist\n";
  out << ".model " << net.name() << "\n";
  for (SignalId s : net.inputs()) {
    out << ".input " << net.signal_name(s) << "\n";
  }
  for (SignalId s : net.outputs()) {
    out << ".output " << net.signal_name(s) << "\n";
  }
  for (std::size_t ci = 0; ci < packed.clusters().size(); ++ci) {
    const Cluster& c = packed.clusters()[ci];
    out << ".clb cluster" << ci << "\n";
    out << " pins:";
    for (SignalId s : c.input_signals) out << " " << net.signal_name(s);
    out << "\n outputs:";
    for (SignalId s : c.output_signals) out << " " << net.signal_name(s);
    out << "\n";
    if (c.clock != kNoSignal) {
      out << " clock: " << net.signal_name(c.clock) << "\n";
    }
    for (int bi : c.bles) {
      const Ble& b = packed.bles()[static_cast<std::size_t>(bi)];
      out << " ble " << net.signal_name(b.output) << " lut="
          << (b.lut_gate >= 0 ? net.gates()[static_cast<std::size_t>(b.lut_gate)].name
                              : std::string("-"))
          << " ff="
          << (b.latch >= 0 ? net.latches()[static_cast<std::size_t>(b.latch)].name
                           : std::string("-"))
          << "\n";
    }
  }
  out << ".end\n";
}

std::string write_net_string(const PackedNetlist& packed) {
  std::ostringstream out;
  write_net_file(packed, out);
  return out.str();
}

netlist::Network reconstruct_network(const PackedNetlist& packed) {
  const netlist::Network& src = packed.network();
  netlist::Network out(src.name());
  const auto sig = [&](SignalId s) {
    return out.get_or_add_signal(src.signal_name(s));
  };
  for (const SignalId s : src.inputs()) out.add_input(sig(s));
  for (const Cluster& cluster : packed.clusters()) {
    for (const int bi : cluster.bles) {
      const Ble& ble = packed.bles()[static_cast<std::size_t>(bi)];
      if (ble.lut_gate >= 0) {
        const netlist::Gate& g =
            src.gates()[static_cast<std::size_t>(ble.lut_gate)];
        AMDREL_CHECK_MSG(ble.inputs.size() == g.inputs.size(),
                         "BLE input arity disagrees with its LUT");
        std::vector<SignalId> inputs;
        inputs.reserve(ble.inputs.size());
        for (const SignalId s : ble.inputs) inputs.push_back(sig(s));
        // A latched BLE's external output is the FF Q; the LUT then
        // drives the FF's D signal internally.
        const SignalId lut_out =
            ble.latch >= 0
                ? src.latches()[static_cast<std::size_t>(ble.latch)].d
                : ble.output;
        out.add_gate(g.name, g.table, std::move(inputs), sig(lut_out));
      }
      if (ble.latch >= 0) {
        const netlist::Latch& l =
            src.latches()[static_cast<std::size_t>(ble.latch)];
        const SignalId d = ble.lut_gate >= 0 ? l.d : ble.inputs.at(0);
        out.add_latch(l.name, sig(d), sig(ble.output),
                      ble.clock == kNoSignal ? kNoSignal : sig(ble.clock),
                      l.init);
      }
    }
  }
  for (const SignalId s : src.outputs()) out.add_output(sig(s));
  out.validate();
  return out;
}

}  // namespace amdrel::pack
