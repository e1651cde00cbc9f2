#include "eco/eco.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "synth/opt.hpp"
#include "util/error.hpp"

namespace amdrel::eco {

namespace {

using netlist::kNoSignal;
using netlist::Network;
using netlist::SignalId;

/// Edits dirtying more than this fraction of the design skip the
/// patch-based mapper and recompile the netlist from scratch (the
/// pack/place/route reuse still applies to whatever survives).
constexpr double kMaxDirtyFraction = 0.5;
/// Cap on the move-radius window of the bounded local re-anneal over the
/// unlocked blocks (moves per block per temperature stay the annealer's).
constexpr double kReannealRadius = 5.0;

void throw_if_cancelled(const EcoOptions& options) {
  if (options.route.cancel != nullptr &&
      options.route.cancel->load(std::memory_order_acquire)) {
    throw CancelledError("ECO recompile cancelled");
  }
}

std::set<std::string> signal_names(const Network& net,
                                   const std::vector<SignalId>& sigs) {
  std::set<std::string> out;
  for (SignalId s : sigs) out.insert(net.signal_name(s));
  return out;
}

std::vector<std::string> fanin_names(const Network& net,
                                     const netlist::Gate& g) {
  std::vector<std::string> out;
  out.reserve(g.inputs.size());
  for (SignalId s : g.inputs) out.push_back(net.signal_name(s));
  return out;
}

/// LUT levels on the longest PI/FF → PO/FF path of a mapped network.
int lut_depth(const Network& net) {
  std::vector<int> level(static_cast<std::size_t>(net.num_signals()), 0);
  int depth = 0;
  for (int gi : net.topo_order()) {
    const netlist::Gate& g = net.gates()[static_cast<std::size_t>(gi)];
    int lv = 0;
    for (SignalId s : g.inputs) {
      lv = std::max(lv, level[static_cast<std::size_t>(s)]);
    }
    level[static_cast<std::size_t>(g.output)] = lv + 1;
    depth = std::max(depth, lv + 1);
  }
  return depth;
}

// ---------------------------------------------------------------------------
// Stage 2 of the ECO pipeline: patch-based incremental LUT mapping.
//
// A base-mapped LUT implements its output as a fixed function of its leaf
// signals; that implementation stays correct in the edited design as long
// as no cell in its *local cone* — the entry gates between its leaves and
// its output — changed. Upstream edits only change leaf values, which
// composition handles, so a LUT is dirty only when a dirty entry gate sits
// inside its own cone.
//
// The pre-map rewrite (synth::propagate_constants) renames every internal
// signal it emits to "<hint>_r<n>", where the hint is the name of the
// source signal the gate descends from (itself possibly decorated by an
// earlier rewrite pass). Stripping "_r<digits>" suffixes therefore recovers
// the entry-network signal behind a mapped-space name; the resolution is
// only trusted when exactly one strip depth names an entry signal.
class OriginResolver {
 public:
  explicit OriginResolver(const Network& entry) : entry_(&entry) {}

  /// Entry-network name behind a mapped-space name, or "" when it cannot
  /// be recovered unambiguously.
  const std::string& resolve(const std::string& name) {
    auto it = memo_.find(name);
    if (it != memo_.end()) return it->second;
    std::string hit;
    int hits = 0;
    std::string probe = name;
    for (;;) {
      if (entry_->find_signal(probe) != kNoSignal) {
        hit = probe;
        ++hits;
      }
      const std::size_t pos = probe.rfind("_r");
      if (pos == std::string::npos || pos + 2 >= probe.size()) break;
      bool digits = true;
      for (std::size_t i = pos + 2; i < probe.size(); ++i) {
        digits = digits && std::isdigit(static_cast<unsigned char>(probe[i]));
      }
      if (!digits) break;
      probe.erase(pos);
    }
    if (hits != 1) hit.clear();
    return memo_.emplace(name, std::move(hit)).first->second;
  }

 private:
  const Network* entry_;
  std::map<std::string, std::string> memo_;
};

/// Per-LUT cone verdict against the base entry network.
struct LutCone {
  bool clean = false;     ///< local cone free of dirty entry gates
  bool is_const = false;  ///< 0-input LUT: no cone, trivially clean
  SignalId out_entry = kNoSignal;    ///< resolved origin (kNoSignal: none)
  std::vector<SignalId> leaf_entry;  ///< parallel to the LUT's inputs
};

std::unique_ptr<Network> try_patch_map(const Network& edited,
                                       const Network& base_entry,
                                       const Network& base_mapped,
                                       const NetlistDiff& diff,
                                       const synth::LutMapOptions& lopt,
                                       int* luts_reused) {
  // Dirty entry gates: removed, retuned or rewired base cells.
  std::vector<char> gate_dirty(base_entry.gates().size(), 0);
  auto mark = [&](const std::string& name) {
    const SignalId s = base_entry.find_signal(name);
    if (s == kNoSignal) return;
    const int gi = base_entry.driver_gate(s);
    if (gi >= 0) gate_dirty[static_cast<std::size_t>(gi)] = 1;
  };
  for (const std::string& n : diff.removed) mark(n);
  for (const std::string& n : diff.retuned) mark(n);
  for (const std::string& n : diff.rewired) mark(n);

  // Classify each base LUT by walking its local cone in the raw entry
  // network from its resolved output origin down to its resolved leaves.
  // The pre-map optimizations only ever remove entry edges, so the raw
  // cone over-approximates the gates whose functions the LUT's table
  // absorbed — a folded-away constant driver is still reached and its
  // dirt detected. Unresolvable signals leave the LUT conservatively
  // un-clean.
  OriginResolver origin(base_entry);
  std::vector<LutCone> cones(base_mapped.gates().size());
  {
    std::vector<int> visited_epoch(base_entry.gates().size(), -1);
    std::vector<int> stack;
    for (std::size_t mi = 0; mi < base_mapped.gates().size(); ++mi) {
      const netlist::Gate& lut = base_mapped.gates()[mi];
      LutCone& cone = cones[mi];
      // A zero-input LUT is a constant the optimizer folded out of base
      // logic; its cone is the ENTIRE fanin of its origin (walked below
      // with an empty leaf set) — an edit anywhere in the folded logic
      // invalidates the constant.
      if (lut.inputs.empty()) cone.is_const = true;
      const std::string& out_name =
          origin.resolve(base_mapped.signal_name(lut.output));
      if (out_name.empty()) continue;
      cone.out_entry = base_entry.find_signal(out_name);
      bool ok = true;
      for (SignalId in : lut.inputs) {
        const std::string& leaf_name =
            origin.resolve(base_mapped.signal_name(in));
        if (leaf_name.empty()) {
          ok = false;
          break;
        }
        cone.leaf_entry.push_back(base_entry.find_signal(leaf_name));
      }
      const int root_gate = base_entry.driver_gate(cone.out_entry);
      if (!ok || root_gate < 0) {
        cone.out_entry = kNoSignal;
        cone.leaf_entry.clear();
        continue;
      }
      const std::set<SignalId> leaves(cone.leaf_entry.begin(),
                                      cone.leaf_entry.end());
      stack.clear();
      stack.push_back(root_gate);
      visited_epoch[static_cast<std::size_t>(root_gate)] =
          static_cast<int>(mi);
      bool clean = true;
      while (!stack.empty() && clean) {
        const int gi = stack.back();
        stack.pop_back();
        if (gate_dirty[static_cast<std::size_t>(gi)]) {
          clean = false;
          break;
        }
        for (SignalId in : base_entry.gates()[static_cast<std::size_t>(gi)]
                               .inputs) {
          if (leaves.count(in)) continue;
          const int di = base_entry.driver_gate(in);
          if (di < 0 ||
              visited_epoch[static_cast<std::size_t>(di)] ==
                  static_cast<int>(mi)) {
            continue;  // leaf, PI, FF output, or already walked
          }
          visited_epoch[static_cast<std::size_t>(di)] = static_cast<int>(mi);
          stack.push_back(di);
        }
      }
      cone.clean = clean;
    }
  }

  const std::set<std::string> edited_pis = signal_names(edited, edited.inputs());
  std::set<std::string> edited_ffs;
  for (const netlist::Latch& l : edited.latches()) {
    edited_ffs.insert(edited.signal_name(l.q));
  }

  // Exact path for structure-preserving edits (truth-table retunes only):
  // copy the base mapping wholesale and recompute just the dirty LUTs'
  // tables by evaluating the edited cone over each LUT's leaves. The
  // result is structurally identical to the base, so packing, placement
  // and routing reuse is total. Bails to the general patch when an edited
  // cone no longer folds to the old leaf cut.
  if (diff.removed.empty() && diff.rewired.empty() && diff.added.empty()) {
    auto exact = [&]() -> std::unique_ptr<Network> {
      std::vector<netlist::TruthTable> tables;
      tables.reserve(base_mapped.gates().size());
      int reused = 0;
      for (std::size_t mi = 0; mi < base_mapped.gates().size(); ++mi) {
        const netlist::Gate& lut = base_mapped.gates()[mi];
        const LutCone& cone = cones[mi];
        if (cone.clean) {
          tables.push_back(lut.table);
          ++reused;
          continue;
        }
        if (cone.out_entry == kNoSignal) return nullptr;
        std::map<SignalId, int> leaf_pos;  // edited signal → LUT input
        for (std::size_t i = 0; i < cone.leaf_entry.size(); ++i) {
          const SignalId es = edited.find_signal(
              base_entry.signal_name(cone.leaf_entry[i]));
          if (es == kNoSignal ||
              !leaf_pos.emplace(es, static_cast<int>(i)).second) {
            return nullptr;
          }
        }
        const SignalId eo =
            edited.find_signal(base_entry.signal_name(cone.out_entry));
        if (eo == kNoSignal) return nullptr;
        // Non-leaf terminals the raw edited cone can reach (the base
        // mapper pruned leaves its table ignored; constant folding cut
        // others): treat them as free variables and accept the recompute
        // only when the edited function is independent of all of them.
        std::map<SignalId, int> free_pos;
        std::uint64_t xrow = 0;
        const auto evaluate = [&](std::uint64_t row) -> int {
          std::map<SignalId, int> memo;
          const std::function<int(SignalId)> eval = [&](SignalId s) -> int {
            const auto lp = leaf_pos.find(s);
            if (lp != leaf_pos.end()) {
              return static_cast<int>((row >> lp->second) & 1u);
            }
            const auto mm = memo.find(s);
            if (mm != memo.end()) return mm->second;
            int v;
            const int gi = edited.driver_gate(s);
            if (gi < 0) {
              const auto fp =
                  free_pos.emplace(s, static_cast<int>(free_pos.size()));
              v = static_cast<int>((xrow >> fp.first->second) & 1u);
            } else {
              const netlist::Gate& g =
                  edited.gates()[static_cast<std::size_t>(gi)];
              std::uint64_t idx = 0;
              for (std::size_t i = 0; i < g.inputs.size(); ++i) {
                idx |= static_cast<std::uint64_t>(eval(g.inputs[i]) & 1)
                       << i;
              }
              v = g.table.eval(idx) ? 1 : 0;
            }
            memo.emplace(s, v);
            return v;
          };
          return eval(eo);
        };
        evaluate(0);  // inputs evaluate eagerly: one pass finds every free
        if (free_pos.size() > 8) return nullptr;  // cone blew up; re-map
        netlist::TruthTable table(static_cast<int>(lut.inputs.size()));
        for (std::uint64_t row = 0; row < table.n_rows(); ++row) {
          xrow = 0;
          const int v = evaluate(row);
          for (xrow = 1; xrow < (1ull << free_pos.size()); ++xrow) {
            if (evaluate(row) != v) return nullptr;  // real new dependence
          }
          table.set(row, v == 1);
        }
        tables.push_back(std::move(table));
      }

      auto mapped = std::make_unique<Network>(edited.name());
      for (SignalId s : edited.inputs()) {
        mapped->add_input(mapped->get_or_add_signal(edited.signal_name(s)));
      }
      for (std::size_t mi = 0; mi < base_mapped.gates().size(); ++mi) {
        const netlist::Gate& g = base_mapped.gates()[mi];
        std::vector<SignalId> ins;
        ins.reserve(g.inputs.size());
        for (SignalId in : g.inputs) {
          ins.push_back(
              mapped->get_or_add_signal(base_mapped.signal_name(in)));
        }
        mapped->add_gate(g.name, tables[mi], std::move(ins),
                         mapped->get_or_add_signal(
                             base_mapped.signal_name(g.output)));
      }
      for (const netlist::Latch& l : edited.latches()) {
        mapped->add_latch(
            l.name, mapped->get_or_add_signal(edited.signal_name(l.d)),
            mapped->get_or_add_signal(edited.signal_name(l.q)),
            l.clock != kNoSignal
                ? mapped->get_or_add_signal(edited.signal_name(l.clock))
                : kNoSignal,
            l.init);
      }
      for (SignalId s : edited.outputs()) {
        mapped->add_output(mapped->get_or_add_signal(edited.signal_name(s)));
      }
      try {
        mapped->validate();
      } catch (const Error&) {
        return nullptr;
      }
      *luts_reused = reused;
      return mapped;
    }();
    if (exact != nullptr) return exact;
  }

  // General patch. Clean LUTs are reachable two ways: by their mapped-
  // space output name (as leaves of other copied LUTs) and by their
  // entry-network origin (as fanins of re-mapped edited gates); keep an
  // index for each. When one origin has several clean representatives the
  // pinned one (mapped name == origin) wins for the origin index — every
  // clean representative computes the same edited-valid function, so the
  // choice only affects reuse, not correctness.
  std::map<std::string, int> clean_lut;      // mapped output name → LUT
  std::map<std::string, int> clean_by_orig;  // entry origin name → LUT
  for (std::size_t mi = 0; mi < base_mapped.gates().size(); ++mi) {
    if (!cones[mi].clean) continue;
    const std::string& mname =
        base_mapped.signal_name(base_mapped.gates()[mi].output);
    clean_lut[mname] = static_cast<int>(mi);
    if (cones[mi].is_const) continue;
    const std::string oname = base_entry.signal_name(cones[mi].out_entry);
    const auto [it, inserted] =
        clean_by_orig.emplace(oname, static_cast<int>(mi));
    if (!inserted && mname == oname) it->second = static_cast<int>(mi);
  }

  // Backward need-traversal from everything the design must drive: POs,
  // FF D inputs and FF clocks. A clean LUT satisfies a need and pushes
  // its leaves; a dirty signal descends through the edited network,
  // collecting the gates the patch must re-map. Dirty signals needed
  // *externally* (by a PO, FF or clean-LUT leaf, rather than only inside
  // the dirty region) become the patch's outputs. The traversal runs in
  // two name spaces — mapped names below copied LUTs, entry/edited names
  // below patched gates — bridged by in_alias (patched gates consuming a
  // copied LUT's origin read its mapped signal) and need_alias (a patched
  // signal also drives the mapped-space aliases copied LUTs expect).
  struct Item {
    std::string name;
    bool mapped_space;
    bool external;
  };
  std::vector<Item> work;
  for (SignalId s : edited.outputs()) {
    work.push_back({edited.signal_name(s), false, true});
  }
  for (const netlist::Latch& l : edited.latches()) {
    work.push_back({edited.signal_name(l.d), false, true});
    if (l.clock != kNoSignal) {
      work.push_back({edited.signal_name(l.clock), false, true});
    }
  }
  enum Cls { kAvail, kCopied, kDirty };
  std::map<std::string, Cls> cls;  // edited-space classification
  std::set<std::string> mapped_seen;
  std::set<int> copy_luts;           // base_mapped gate indices to copy
  std::set<int> patch_gates;         // edited gate indices to re-map
  std::set<std::string> patch_outs;  // externally needed dirty signals
  std::map<std::string, std::string> in_alias;  // edited → mapped name
  std::map<std::string, std::set<std::string>> need_alias;
  const auto push_copied_leaves = [&](int mi) {
    for (SignalId in :
         base_mapped.gates()[static_cast<std::size_t>(mi)].inputs) {
      work.push_back({base_mapped.signal_name(in), true, true});
    }
  };
  while (!work.empty()) {
    const Item item = work.back();
    work.pop_back();
    if (item.mapped_space) {
      if (!mapped_seen.insert(item.name).second) continue;
      if (edited_pis.count(item.name) || edited_ffs.count(item.name)) {
        continue;
      }
      if (const auto lt = clean_lut.find(item.name); lt != clean_lut.end()) {
        copy_luts.insert(lt->second);
        push_copied_leaves(lt->second);
        continue;
      }
      // Dirty mapped-space leaf: the patch must re-drive its origin and
      // alias it back under the mapped name the copied consumers use.
      const std::string& o = origin.resolve(item.name);
      if (o.empty()) return nullptr;
      if (o != item.name) need_alias[o].insert(item.name);
      work.push_back({o, false, true});
      continue;
    }
    auto it = cls.find(item.name);
    if (it == cls.end()) {
      Cls c;
      if (edited_pis.count(item.name) || edited_ffs.count(item.name)) {
        c = kAvail;
      } else if (const auto ct = clean_by_orig.find(item.name);
                 ct != clean_by_orig.end()) {
        c = kCopied;
        in_alias[item.name] = base_mapped.signal_name(
            base_mapped.gates()[static_cast<std::size_t>(ct->second)].output);
        copy_luts.insert(ct->second);
        push_copied_leaves(ct->second);
      } else {
        c = kDirty;
        const SignalId es = edited.find_signal(item.name);
        if (es == kNoSignal) return nullptr;  // base-only signal needed
        const int gi = edited.driver_gate(es);
        if (gi < 0) return nullptr;  // undriven non-PI (e.g. FF removed)
        patch_gates.insert(gi);
        for (SignalId in :
             edited.gates()[static_cast<std::size_t>(gi)].inputs) {
          work.push_back({edited.signal_name(in), false, false});
        }
      }
      it = cls.emplace(item.name, c).first;
    }
    if (it->second == kDirty && item.external) patch_outs.insert(item.name);
  }
  // A mapped-space alias whose origin turned out clean or available means
  // the origin resolution contradicted the cone verdicts — bail out.
  for (const auto& [o, aliases] : need_alias) {
    (void)aliases;
    if (cls.at(o) != kDirty) return nullptr;
  }

  // Extract the dirty sub-network from the edited design and re-map it.
  Network sub("eco_patch");
  synth::LutMapStats sub_stats;
  Network sub_mapped("eco_patch_mapped");
  if (!patch_gates.empty()) {
    std::set<std::string> sub_inputs;
    for (int gi : patch_gates) {
      for (SignalId in :
           edited.gates()[static_cast<std::size_t>(gi)].inputs) {
        const std::string& name = edited.signal_name(in);
        if (cls.at(name) != kDirty) sub_inputs.insert(name);
      }
    }
    for (const std::string& name : sub_inputs) {
      sub.add_input(sub.get_or_add_signal(name));
    }
    for (int gi : patch_gates) {  // std::set: ascending, deterministic
      const netlist::Gate& g = edited.gates()[static_cast<std::size_t>(gi)];
      std::vector<SignalId> ins;
      ins.reserve(g.inputs.size());
      for (SignalId in : g.inputs) {
        ins.push_back(sub.get_or_add_signal(edited.signal_name(in)));
      }
      sub.add_gate(g.name, g.table, std::move(ins),
                   sub.get_or_add_signal(edited.signal_name(g.output)));
    }
    for (const std::string& name : patch_outs) {
      sub.add_output(sub.get_or_add_signal(name));
    }
    try {
      sub.validate();
      sub_mapped = synth::map_to_luts(sub, lopt, &sub_stats);
    } catch (const Error&) {
      return nullptr;
    }
  }

  // Assemble: edited IO and FFs, copied clean cones (mapped names), the
  // re-mapped patch (edited names, bridged through the alias maps).
  auto mapped = std::make_unique<Network>(edited.name());
  std::set<std::string> driven;
  for (SignalId s : edited.inputs()) {
    mapped->add_input(mapped->get_or_add_signal(edited.signal_name(s)));
    driven.insert(edited.signal_name(s));
  }
  for (int gi : copy_luts) {
    const netlist::Gate& g =
        base_mapped.gates()[static_cast<std::size_t>(gi)];
    const std::string& out = base_mapped.signal_name(g.output);
    if (!driven.insert(out).second) return nullptr;
    std::vector<SignalId> ins;
    ins.reserve(g.inputs.size());
    for (SignalId in : g.inputs) {
      ins.push_back(mapped->get_or_add_signal(base_mapped.signal_name(in)));
    }
    mapped->add_gate(g.name, g.table, std::move(ins),
                     mapped->get_or_add_signal(out));
  }
  const auto patch_in_name = [&](const std::string& n) -> const std::string& {
    const auto it = in_alias.find(n);
    return it != in_alias.end() ? it->second : n;
  };
  for (const netlist::Gate& g : sub_mapped.gates()) {
    const std::string& out = sub_mapped.signal_name(g.output);
    if (!driven.insert(out).second) return nullptr;
    std::vector<SignalId> ins;
    ins.reserve(g.inputs.size());
    for (SignalId in : g.inputs) {
      ins.push_back(mapped->get_or_add_signal(
          patch_in_name(sub_mapped.signal_name(in))));
    }
    mapped->add_gate(g.name, g.table, std::move(ins),
                     mapped->get_or_add_signal(out));
    if (const auto na = need_alias.find(out); na != need_alias.end()) {
      for (const std::string& alias : na->second) {
        if (!driven.insert(alias).second) return nullptr;
        mapped->add_gate("eco_alias_" + alias,
                         netlist::TruthTable::identity(),
                         {mapped->get_or_add_signal(out)},
                         mapped->get_or_add_signal(alias));
      }
    }
  }
  for (const netlist::Latch& l : edited.latches()) {
    if (!driven.insert(edited.signal_name(l.q)).second) return nullptr;
    mapped->add_latch(
        l.name, mapped->get_or_add_signal(edited.signal_name(l.d)),
        mapped->get_or_add_signal(edited.signal_name(l.q)),
        l.clock != kNoSignal
            ? mapped->get_or_add_signal(edited.signal_name(l.clock))
            : kNoSignal,
        l.init);
  }
  // A required edited-space signal whose clean representative lives under
  // a decorated mapped name needs a buffer back to the pinned name.
  const auto ensure_driven = [&](const std::string& o) {
    if (driven.count(o)) return;
    const auto ia = in_alias.find(o);
    if (ia == in_alias.end()) return;  // validate reports it
    driven.insert(o);
    mapped->add_gate("eco_pin_" + o, netlist::TruthTable::identity(),
                     {mapped->get_or_add_signal(ia->second)},
                     mapped->get_or_add_signal(o));
  };
  for (SignalId s : edited.outputs()) ensure_driven(edited.signal_name(s));
  for (const netlist::Latch& l : edited.latches()) {
    ensure_driven(edited.signal_name(l.d));
    if (l.clock != kNoSignal) ensure_driven(edited.signal_name(l.clock));
  }
  for (SignalId s : edited.outputs()) {
    mapped->add_output(mapped->get_or_add_signal(edited.signal_name(s)));
  }
  try {
    mapped->validate();
  } catch (const Error&) {
    return nullptr;
  }
  *luts_reused = static_cast<int>(copy_luts.size());
  return mapped;
}

/// The from-scratch mapping stage, byte-identical to the full flow's.
std::unique_ptr<Network> full_remap(const Network& edited,
                                    const synth::LutMapOptions& lopt,
                                    synth::LutMapStats* stats) {
  Network opt = synth::propagate_constants(edited);
  synth::sweep_dead_logic(opt);
  return std::make_unique<Network>(synth::map_to_luts(opt, lopt, stats));
}

// ---------------------------------------------------------------------------
// Stage 4: placement transfer. Matched blocks (clusters via surviving
// pack hints, pads by name) take their previous locations and are locked;
// the rest get free slots in deterministic scan order.
// ---------------------------------------------------------------------------
bool transfer_placement(const place::Placement& base_pl,
                        place::Placement& pl,
                        const std::vector<int>& hint_cluster,
                        std::vector<int>* old_to_new,
                        std::vector<char>* movable) {
  // A grown grid (the edit pushed the cluster count past a square
  // boundary) still transfers: every old CLB coordinate stays legal and
  // pads keep their correspondence, though pads on edges that moved lose
  // their locations (and any route through them fails the per-edge seed
  // checks). Only a SHRUNK grid aborts the transfer.
  if (pl.nx() < base_pl.nx() || pl.ny() < base_pl.ny()) return false;
  const auto& old_blocks = base_pl.blocks();
  const auto& new_blocks = pl.blocks();
  old_to_new->assign(old_blocks.size(), -1);
  movable->assign(new_blocks.size(), 1);
  for (std::size_t ci = 0; ci < hint_cluster.size(); ++ci) {
    const int nc = hint_cluster[ci];
    if (nc < 0) continue;
    (*old_to_new)[static_cast<std::size_t>(
        base_pl.block_of_cluster(static_cast<int>(ci)))] =
        pl.block_of_cluster(nc);
  }
  for (std::size_t ob = 0; ob < old_blocks.size(); ++ob) {
    if (old_blocks[ob].kind == place::BlockKind::kClb) continue;
    const int nb = pl.block_by_name(old_blocks[ob].name);
    if (nb >= 0 && new_blocks[static_cast<std::size_t>(nb)].kind ==
                       old_blocks[ob].kind) {
      (*old_to_new)[ob] = nb;
    }
  }

  auto key = [](const place::Loc& l) {
    return std::tuple<int, int, int>(l.x, l.y, l.sub);
  };
  std::set<std::tuple<int, int, int>> io_ok;
  for (const place::Loc& l : pl.legal_io_locs()) io_ok.insert(key(l));
  std::set<std::tuple<int, int, int>> used;
  for (std::size_t ob = 0; ob < old_blocks.size(); ++ob) {
    const int nb = (*old_to_new)[ob];
    if (nb < 0) continue;
    const place::Loc& loc = base_pl.location(static_cast<int>(ob));
    if (old_blocks[ob].kind != place::BlockKind::kClb &&
        !io_ok.count(key(loc))) {
      continue;  // pad edge moved with the grid: re-place this pad
    }
    pl.set_location(nb, loc);
    used.insert(key(loc));
    (*movable)[static_cast<std::size_t>(nb)] = 0;
  }
  const std::vector<place::Loc> clb_locs = pl.legal_clb_locs();
  const std::vector<place::Loc> io_locs = pl.legal_io_locs();
  std::size_t clb_i = 0;
  std::size_t io_i = 0;
  for (std::size_t nb = 0; nb < new_blocks.size(); ++nb) {
    if (!(*movable)[nb]) continue;
    const bool is_clb = new_blocks[nb].kind == place::BlockKind::kClb;
    const std::vector<place::Loc>& locs = is_clb ? clb_locs : io_locs;
    std::size_t& i = is_clb ? clb_i : io_i;
    while (i < locs.size() && used.count(key(locs[i]))) ++i;
    if (i >= locs.size()) return false;  // no free slot of this kind
    pl.set_location(static_cast<int>(nb), locs[i]);
    used.insert(key(locs[i]));
  }
  pl.validate();
  return true;
}

// ---------------------------------------------------------------------------
// Stage 5: route-seed translation. Same grid and channel width mean wire
// node ids are identical between the base and new RR graphs; pin/sink
// nodes are translated through the block correspondence. A net seeds only
// if its name, its translated source/sink blocks and every tree edge
// survive intact in the new graph.
// ---------------------------------------------------------------------------
int translate_seeds(const place::Placement& base_pl,
                    const place::Placement& pl, const route::RrGraph& base_rr,
                    const route::RrGraph& rr,
                    const route::RouteResult& base_routing,
                    const std::vector<int>& old_to_new,
                    std::vector<route::NetRoute>* seeds,
                    std::vector<char>* dirty) {
  seeds->assign(pl.nets().size(), route::NetRoute{});
  dirty->assign(pl.nets().size(), 1);

  std::map<std::string, int> base_net_by_name;
  for (std::size_t ni = 0; ni < base_pl.nets().size(); ++ni) {
    base_net_by_name[base_pl.packed().network().signal_name(
        base_pl.nets()[ni].signal)] = static_cast<int>(ni);
  }
  // Wires are matched by structural position (chan ids shift when the
  // grid grows), pins through the block correspondence — both answered
  // by the new graph's id arithmetic, with no node table to build.
  auto xlat = [&](int oid) -> int {
    const route::RrNode n = base_rr.node_info(oid);
    if (n.type == route::RrType::kChanX || n.type == route::RrType::kChanY) {
      return rr.find_chan(n.type, n.x, n.y, n.track);
    }
    const int nb = old_to_new[static_cast<std::size_t>(n.block)];
    if (nb < 0) return -1;
    return rr.find_block_node(nb, n.type, n.pin);
  };
  auto has_edge = [&](int from, int to) { return rr.has_edge(from, to); };

  int n_seeded = 0;
  for (std::size_t ni = 0; ni < pl.nets().size(); ++ni) {
    const place::Placement::Net& net = pl.nets()[ni];
    const auto it = base_net_by_name.find(
        pl.packed().network().signal_name(net.signal));
    if (it == base_net_by_name.end()) continue;
    const place::Placement::Net& bnet =
        base_pl.nets()[static_cast<std::size_t>(it->second)];
    // Source and sink blocks must correspond exactly (an unmatched block
    // never translates, so nets touching moved logic stay dirty).
    if (old_to_new[static_cast<std::size_t>(bnet.source)] != net.source)
      continue;
    std::vector<int> bsinks;
    bsinks.reserve(bnet.sinks.size());
    bool ok = true;
    for (int b : bnet.sinks) {
      const int nb = old_to_new[static_cast<std::size_t>(b)];
      if (nb < 0) {
        ok = false;
        break;
      }
      bsinks.push_back(nb);
    }
    if (!ok || bsinks.size() != net.sinks.size()) continue;
    std::vector<int> nsinks = net.sinks;
    std::sort(bsinks.begin(), bsinks.end());
    std::sort(nsinks.begin(), nsinks.end());
    if (bsinks != nsinks) continue;

    const route::NetRoute& old_route =
        base_routing.routes[static_cast<std::size_t>(it->second)];
    if (old_route.nodes.empty()) continue;
    route::NetRoute tr;
    tr.nodes.reserve(old_route.nodes.size());
    tr.parent = old_route.parent;
    for (int oid : old_route.nodes) {
      const int nid = xlat(oid);
      if (nid < 0) {
        ok = false;
        break;
      }
      tr.nodes.push_back(nid);
    }
    if (!ok) continue;
    int root = -1;
    for (std::size_t i = 0; i < tr.nodes.size() && ok; ++i) {
      const int p = tr.parent[i];
      if (p < 0) {
        root = tr.nodes[i];
      } else if (!has_edge(tr.nodes[static_cast<std::size_t>(p)],
                           tr.nodes[i])) {
        ok = false;
      }
    }
    if (!ok || root != rr.opin_of_net(static_cast<int>(ni))) continue;
    const std::set<int> in_tree(tr.nodes.begin(), tr.nodes.end());
    for (int sink : rr.sinks_of_net(static_cast<int>(ni))) {
      if (!in_tree.count(sink)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    (*seeds)[ni] = std::move(tr);
    (*dirty)[ni] = 0;
    ++n_seeded;
  }
  return n_seeded;
}

}  // namespace

NetlistDiff diff_networks(const Network& base, const Network& edited) {
  NetlistDiff d;
  d.base_cells =
      static_cast<int>(base.gates().size() + base.latches().size());
  d.edited_cells =
      static_cast<int>(edited.gates().size() + edited.latches().size());
  d.io_changed =
      signal_names(base, base.inputs()) != signal_names(edited, edited.inputs()) ||
      signal_names(base, base.outputs()) != signal_names(edited, edited.outputs());

  std::map<std::string, int> base_gates;
  std::map<std::string, int> edited_gates;
  for (std::size_t gi = 0; gi < base.gates().size(); ++gi) {
    base_gates[base.signal_name(base.gates()[gi].output)] =
        static_cast<int>(gi);
  }
  for (std::size_t gi = 0; gi < edited.gates().size(); ++gi) {
    edited_gates[edited.signal_name(edited.gates()[gi].output)] =
        static_cast<int>(gi);
  }
  for (const auto& [name, bi] : base_gates) {
    const auto it = edited_gates.find(name);
    if (it == edited_gates.end()) {
      d.removed.push_back(name);
      continue;
    }
    const netlist::Gate& bg = base.gates()[static_cast<std::size_t>(bi)];
    const netlist::Gate& eg =
        edited.gates()[static_cast<std::size_t>(it->second)];
    if (fanin_names(base, bg) != fanin_names(edited, eg)) {
      d.rewired.push_back(name);
    } else if (!(bg.table == eg.table)) {
      d.retuned.push_back(name);
    } else {
      ++d.matched_clean;
    }
  }
  for (const auto& [name, gi] : edited_gates) {
    (void)gi;
    if (!base_gates.count(name)) d.added.push_back(name);
  }

  std::map<std::string, int> base_ffs;
  std::map<std::string, int> edited_ffs;
  for (std::size_t li = 0; li < base.latches().size(); ++li) {
    base_ffs[base.signal_name(base.latches()[li].q)] = static_cast<int>(li);
  }
  for (std::size_t li = 0; li < edited.latches().size(); ++li) {
    edited_ffs[edited.signal_name(edited.latches()[li].q)] =
        static_cast<int>(li);
  }
  auto latch_sig = [](const Network& n, const netlist::Latch& l) {
    return std::tuple<std::string, std::string, int>(
        n.signal_name(l.d),
        l.clock != kNoSignal ? n.signal_name(l.clock) : std::string(),
        static_cast<int>(l.init));
  };
  for (const auto& [name, bi] : base_ffs) {
    const auto it = edited_ffs.find(name);
    if (it == edited_ffs.end()) {
      d.removed.push_back(name);
      continue;
    }
    const netlist::Latch& bl = base.latches()[static_cast<std::size_t>(bi)];
    const netlist::Latch& el =
        edited.latches()[static_cast<std::size_t>(it->second)];
    if (latch_sig(base, bl) != latch_sig(edited, el)) {
      d.rewired.push_back(name);
    } else {
      ++d.matched_clean;
    }
  }
  for (const auto& [name, li] : edited_ffs) {
    (void)li;
    if (!base_ffs.count(name)) d.added.push_back(name);
  }
  return d;
}

int headroom_width(int min_width) {
  return min_width + std::max(4, min_width * 15 / 100);
}

EcoResult recompile(const Network& edited, const Network& base_entry,
                    const Network& base_mapped,
                    const pack::PackedNetlist& base_packed,
                    const place::Placement& base_placement,
                    const route::RrGraph& base_rr,
                    const route::RouteResult& base_routing, int base_width,
                    const arch::ArchSpec& arch, const EcoOptions& options) {
  static obs::Counter& c_runs = obs::counter("eco.runs");
  static obs::Counter& c_cells = obs::counter("eco.cells");
  static obs::Counter& c_dirty = obs::counter("eco.dirty_cells");
  static obs::Counter& c_luts_reused = obs::counter("eco.luts_reused");
  static obs::Counter& c_clusters_reused = obs::counter("eco.clusters_reused");
  static obs::Counter& c_blocks_matched = obs::counter("eco.blocks_matched");
  static obs::Counter& c_nets_seeded = obs::counter("eco.nets_seeded");
  static obs::Counter& c_nets_rerouted = obs::counter("eco.nets_rerouted");
  static obs::Counter& c_fallbacks = obs::counter("eco.fallbacks");
  c_runs.add(1);

  obs::Span root("eco.recompile");
  EcoResult r;
  EcoStats& st = r.stats;

  // --- 1. diff ---
  {
    obs::Span span("eco.diff");
    st.entry_diff = diff_networks(base_entry, edited);
    if (span.active()) {
      span.metric("dirty_cells", st.entry_diff.dirty_cells());
      span.metric("dirty_pct", st.entry_diff.dirty_pct() * 100.0);
    }
  }
  c_cells.add(static_cast<std::uint64_t>(st.entry_diff.edited_cells));
  c_dirty.add(static_cast<std::uint64_t>(st.entry_diff.dirty_cells()));
  throw_if_cancelled(options);

  // --- 2. map (patch-based, falling back to from-scratch) ---
  {
    obs::Span span("eco.map");
    if (!st.entry_diff.io_changed &&
        st.entry_diff.dirty_pct() <= kMaxDirtyFraction) {
      r.mapped = try_patch_map(edited, base_entry, base_mapped, st.entry_diff,
                               options.lutmap, &st.luts_reused);
    }
    if (r.mapped != nullptr) {
      st.incremental_map = true;
      r.map_stats.luts = static_cast<int>(r.mapped->gates().size());
      r.map_stats.depth = lut_depth(*r.mapped);
    } else {
      st.luts_reused = 0;
      ++st.fallbacks;
      r.mapped = full_remap(edited, options.lutmap, &r.map_stats);
    }
    st.luts_total = static_cast<int>(r.mapped->gates().size());
    if (span.active()) {
      span.metric("luts", st.luts_total);
      span.metric("luts_reused", st.luts_reused);
      span.metric("incremental", st.incremental_map ? 1.0 : 0.0);
    }
  }
  c_luts_reused.add(static_cast<std::uint64_t>(st.luts_reused));
  throw_if_cancelled(options);

  // --- 3. pack with reuse hints ---
  {
    obs::Span span("eco.pack");
    pack::PackHints hints;
    const Network& bm = base_packed.network();
    hints.clusters.reserve(base_packed.clusters().size());
    for (const pack::Cluster& c : base_packed.clusters()) {
      std::vector<std::string> names;
      names.reserve(c.bles.size());
      for (int bi : c.bles) {
        names.push_back(
            bm.signal_name(base_packed.bles()[static_cast<std::size_t>(bi)].output));
      }
      hints.clusters.push_back(std::move(names));
    }
    r.packed = std::make_unique<pack::PackedNetlist>(*r.mapped, arch, hints);
    st.clusters_total = static_cast<int>(r.packed->clusters().size());
    for (int ci : r.packed->hint_cluster()) {
      if (ci >= 0) ++st.clusters_reused;
    }
    if (span.active()) {
      span.metric("clusters", st.clusters_total);
      span.metric("clusters_reused", st.clusters_reused);
    }
  }
  c_clusters_reused.add(static_cast<std::uint64_t>(st.clusters_reused));
  throw_if_cancelled(options);

  // --- 4. locked placement + bounded local re-anneal ---
  std::vector<int> old_to_new;
  {
    obs::Span span("eco.place");
    r.placement =
        std::make_unique<place::Placement>(*r.packed, arch, options.seed);
    std::vector<char> movable;
    st.placement_transferred = transfer_placement(
        base_placement, *r.placement, r.packed->hint_cluster(), &old_to_new,
        &movable);
    st.blocks_total = static_cast<int>(r.placement->blocks().size());
    place::Placement::AnnealOptions popt;
    popt.seed = options.seed;
    if (st.placement_transferred) {
      for (char m : movable) {
        if (!m) ++st.blocks_matched;
      }
      popt.movable = &movable;
      popt.rlim_max = kReannealRadius;
      r.place_stats = r.placement->anneal(popt);
    } else {
      // Grid changed (or nothing matched): place from scratch.
      old_to_new.assign(base_placement.blocks().size(), -1);
      ++st.fallbacks;
      r.place_stats = r.placement->anneal(popt);
    }
    if (span.active()) {
      span.metric("blocks", st.blocks_total);
      span.metric("blocks_matched", st.blocks_matched);
      span.metric("place_cost", r.place_stats.final_cost);
    }
  }
  c_blocks_matched.add(static_cast<std::uint64_t>(st.blocks_matched));
  throw_if_cancelled(options);

  // --- 5. seeded reroute ---
  {
    obs::Span span("eco.route");
    route::RouteOptions ropt = options.route;
    r.channel_width = base_width;
    r.rr_graph = std::make_unique<route::RrGraph>(*r.placement, arch,
                                                  base_width, ropt.rr);
    st.nets_total = static_cast<int>(r.placement->nets().size());
    std::vector<route::NetRoute> seeds;
    std::vector<char> dirty;
    if (st.placement_transferred && base_width == base_rr.channel_width()) {
      st.nets_seeded =
          translate_seeds(base_placement, *r.placement, base_rr, *r.rr_graph,
                          base_routing, old_to_new, &seeds, &dirty);
    } else {
      seeds.assign(static_cast<std::size_t>(st.nets_total), route::NetRoute{});
      dirty.assign(static_cast<std::size_t>(st.nets_total), 1);
    }
    r.routing = route::route_seeded(*r.rr_graph, *r.placement, seeds, dirty,
                                    ropt);
    st.route_seeded = r.routing.success && st.nets_seeded > 0;
    if (!r.routing.success) {
      // Seeds poisoned the search or the design no longer fits: retry
      // cold at the base width, then fall back to the full min-W search.
      ++st.fallbacks;
      r.routing = route::route_all(*r.rr_graph, *r.placement, ropt);
      if (!r.routing.success) {
        ++st.fallbacks;
        route::RouteResult routing;
        r.channel_width = route::minimum_channel_width(
            *r.placement, arch, &routing, ropt);
        if (r.channel_width <= 0) {
          throw InfeasibleError(
              "ECO design is unroutable: the minimum channel width search "
              "found no width");
        }
        r.rr_graph = std::make_unique<route::RrGraph>(
            *r.placement, arch, r.channel_width, ropt.rr);
        r.routing = std::move(routing);
      }
    }
    st.nets_rerouted = r.routing.nets_rerouted;
    st.channel_width = r.channel_width;
    route::verify_routing(*r.rr_graph, r.routing);
    if (span.active()) {
      span.metric("nets", st.nets_total);
      span.metric("nets_seeded", st.nets_seeded);
      span.metric("nets_rerouted", st.nets_rerouted);
      span.metric("channel_width", st.channel_width);
    }
  }
  c_nets_seeded.add(static_cast<std::uint64_t>(st.nets_seeded));
  c_nets_rerouted.add(static_cast<std::uint64_t>(st.nets_rerouted));
  throw_if_cancelled(options);

  // --- 6. full analysis + bitstream recompute (no stale data) ---
  {
    obs::Span span("eco.analysis");
    r.power = power::estimate_power(*r.packed, *r.placement, *r.rr_graph,
                                    r.routing, arch, options.power);
    r.timing = timing::analyze_timing(*r.packed, *r.placement, *r.rr_graph,
                                      r.routing, arch);
  }
  {
    obs::Span span("eco.bitgen");
    r.bitstream = bitgen::generate_bitstream(*r.packed, *r.placement,
                                             *r.rr_graph, r.routing, arch);
    r.bitstream_bytes = bitgen::serialize(r.bitstream);
  }
  c_fallbacks.add(static_cast<std::uint64_t>(st.fallbacks));
  if (root.active()) {
    root.metric("dirty_pct", st.entry_diff.dirty_pct() * 100.0);
    root.metric("reuse_ratio", st.reuse_ratio());
    root.metric("fallbacks", st.fallbacks);
  }
  return r;
}

}  // namespace amdrel::eco
