// ECO incremental recompilation: diff classification, artifact reuse,
// placement preservation and the formal-equivalence safety net.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "eco/eco.hpp"
#include "flow/jobspec.hpp"
#include "flow/session.hpp"
#include "util/error.hpp"
#include "verify/equiv.hpp"

namespace amdrel {
namespace {

netlist::Network small_design(int gates = 160, int latches = 8,
                              std::uint64_t seed = 91) {
  bench_gen::BenchSpec spec;
  spec.n_gates = gates;
  spec.n_latches = latches;
  spec.seed = seed;
  return bench_gen::generate(spec);
}

flow::FlowOptions fast_options() {
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kOff;
  return opt;
}

TEST(EcoDiff, IdenticalNetworksAreClean) {
  const netlist::Network net = small_design();
  const eco::NetlistDiff d = eco::diff_networks(net, net);
  EXPECT_TRUE(d.identical());
  EXPECT_EQ(d.dirty_cells(), 0);
  EXPECT_FALSE(d.io_changed);
  EXPECT_EQ(d.matched_clean, d.base_cells);
  EXPECT_DOUBLE_EQ(d.dirty_pct(), 0.0);
}

TEST(EcoDiff, ClassifiesRetuneRewireAndAdd) {
  const netlist::Network base = small_design();
  bench_gen::EditSpec edit;
  edit.flips = 2;
  edit.rewires = 1;
  edit.added_luts = 1;
  edit.seed = 7;
  const netlist::Network edited = bench_gen::perturb(base, edit);
  const eco::NetlistDiff d = eco::diff_networks(base, edited);
  EXPECT_FALSE(d.identical());
  EXPECT_FALSE(d.io_changed);
  EXPECT_GE(static_cast<int>(d.retuned.size()), 1);
  // A rewired gate may collide with a flipped one, but the added LUT is
  // always a fresh cell.
  EXPECT_GE(static_cast<int>(d.added.size()), 1);
  EXPECT_TRUE(d.removed.empty());
  EXPECT_GT(d.dirty_pct(), 0.0);
  EXPECT_LT(d.dirty_pct(), 0.1);
}

TEST(EcoDiff, DetectsIoChange) {
  const netlist::Network base = small_design();
  netlist::Network other = base;
  const netlist::SignalId extra = other.add_signal("extra_pi");
  other.add_input(extra);
  const eco::NetlistDiff d = eco::diff_networks(base, other);
  EXPECT_TRUE(d.io_changed);
  EXPECT_FALSE(d.identical());
}

TEST(PerturbEdits, PreserveIoAndValidate) {
  const netlist::Network base = small_design();
  bench_gen::EditSpec edit;
  edit.flips = 3;
  edit.rewires = 2;
  edit.added_luts = 2;
  edit.seed = 3;
  const netlist::Network edited = bench_gen::perturb(base, edit);
  edited.validate();  // throws on structural damage
  EXPECT_EQ(base.inputs().size(), edited.inputs().size());
  EXPECT_EQ(base.outputs().size(), edited.outputs().size());
  EXPECT_EQ(base.latches().size(), edited.latches().size());
  EXPECT_EQ(edited.gates().size(), base.gates().size() + 2);
}

// A truth-table retune leaves the netlist structure intact: the ECO
// compile must reuse the mapping, packing, every block location and
// every route, and still produce a bitstream equivalent to the edit.
TEST(Eco, RetuneReusesEverythingAndVerifies) {
  const netlist::Network base = small_design();
  flow::FlowOptions opt = fast_options();
  flow::FlowSession session(base, opt);
  ASSERT_EQ(session.resume(), flow::SessionState::kDone);
  // Snapshot the base placement by block name before the ECO replaces it.
  std::vector<std::pair<std::string, place::Loc>> base_locs;
  {
    const place::Placement& pl = *session.result().placement;
    for (std::size_t b = 0; b < pl.blocks().size(); ++b) {
      base_locs.emplace_back(pl.blocks()[b].name,
                             pl.location(static_cast<int>(b)));
    }
  }

  bench_gen::EditSpec edit;
  edit.flips = 2;
  edit.seed = 11;
  const netlist::Network edited = bench_gen::perturb(base, edit);

  eco::EcoStats stats;
  ASSERT_EQ(session.resume_with_edit(edited, &stats),
            flow::SessionState::kDone);
  EXPECT_TRUE(stats.incremental_map);
  EXPECT_GT(stats.luts_reused, 0);
  EXPECT_EQ(stats.clusters_reused, stats.clusters_total);
  EXPECT_TRUE(stats.placement_transferred);
  // Structure unchanged: every block is matched and keeps its location
  // bit-for-bit.
  EXPECT_EQ(stats.blocks_matched, stats.blocks_total);
  const place::Placement& pl = *session.result().placement;
  for (const auto& [name, loc] : base_locs) {
    const int b = pl.block_by_name(name);
    ASSERT_GE(b, 0) << "block " << name << " lost by the ECO";
    EXPECT_TRUE(pl.location(b) == loc) << "block " << name << " moved";
  }
  EXPECT_GT(stats.nets_seeded, 0);
  EXPECT_GT(stats.reuse_ratio(), 0.9);
  EXPECT_EQ(session.result().channel_width, stats.channel_width);

  // The safety net, explicitly: the ECO bitstream implements the edit.
  const netlist::Network fabric =
      bitgen::decode_to_network(session.result().bitstream);
  const verify::EquivResult eq = verify::prove_equivalence(edited, fabric);
  EXPECT_TRUE(eq.equivalent()) << eq.message;
}

// A mixed edit (retune + rewire + added LUTs): the ECO result must be
// formally equivalent to a from-scratch compile of the edited netlist.
TEST(Eco, MixedEditMatchesFromScratchCompile) {
  const netlist::Network base = small_design();
  flow::FlowOptions opt = fast_options();
  flow::FlowSession session(base, opt);
  ASSERT_EQ(session.resume(), flow::SessionState::kDone);

  bench_gen::EditSpec edit;
  edit.flips = 1;
  edit.rewires = 1;
  edit.added_luts = 2;
  edit.seed = 23;
  const netlist::Network edited = bench_gen::perturb(base, edit);

  eco::EcoStats stats;
  ASSERT_EQ(session.resume_with_edit(edited, &stats),
            flow::SessionState::kDone);
  EXPECT_TRUE(stats.incremental_map);
  EXPECT_GT(stats.clusters_reused, 0);
  EXPECT_GT(stats.blocks_matched, 0);
  EXPECT_GT(stats.nets_seeded, 0);
  EXPECT_GT(stats.reuse_ratio(), 0.5);

  flow::FlowSession from_scratch(edited, opt);
  ASSERT_EQ(from_scratch.resume(), flow::SessionState::kDone);
  const flow::FlowResult& scratch = from_scratch.result();
  const netlist::Network eco_fabric =
      bitgen::decode_to_network(session.result().bitstream);
  const netlist::Network scratch_fabric =
      bitgen::decode_to_network(scratch.bitstream);
  const verify::EquivResult eq =
      verify::prove_equivalence(scratch_fabric, eco_fabric);
  EXPECT_TRUE(eq.equivalent()) << eq.message;
}

// resume_with_edit honors the session's verify mode: a formal-mode
// session proves the ECO hand-off internally.
TEST(Eco, FormalModeSessionVerifiesInternally) {
  const netlist::Network base = small_design(120, 4, 55);
  flow::FlowOptions opt;
  opt.verify_mode = flow::VerifyMode::kFormal;
  flow::FlowSession session(base, opt);
  ASSERT_EQ(session.resume(), flow::SessionState::kDone);
  bench_gen::EditSpec edit;
  edit.flips = 1;
  edit.seed = 5;
  eco::EcoStats stats;
  ASSERT_EQ(session.resume_with_edit(bench_gen::perturb(base, edit), &stats),
            flow::SessionState::kDone);
  EXPECT_TRUE(session.eco_metrics().ran);
  EXPECT_GT(session.eco_metrics().counter("verify.formal_checks"), 0u);
  EXPECT_GT(session.eco_metrics().counter("eco.runs"), 0u);
}

// An ECO on a session that was cancelled mid-flow and then resumed works
// exactly like one on an uninterrupted session.
TEST(Eco, WorksAfterCancelledAndResumedSession) {
  const netlist::Network base = small_design();
  flow::FlowOptions opt = fast_options();
  flow::FlowSession session(base, opt);
  ASSERT_EQ(session.run_until(flow::Stage::kPlace),
            flow::SessionState::kReady);
  session.cancel();
  EXPECT_EQ(session.resume(), flow::SessionState::kCancelled);
  ASSERT_EQ(session.resume(), flow::SessionState::kDone);

  bench_gen::EditSpec edit;
  edit.flips = 1;
  edit.added_luts = 1;
  edit.seed = 17;
  const netlist::Network edited = bench_gen::perturb(base, edit);
  eco::EcoStats stats;
  ASSERT_EQ(session.resume_with_edit(edited, &stats),
            flow::SessionState::kDone);
  const netlist::Network fabric =
      bitgen::decode_to_network(session.result().bitstream);
  const verify::EquivResult eq = verify::prove_equivalence(edited, fabric);
  EXPECT_TRUE(eq.equivalent()) << eq.message;
}

// A cancel during the ECO leaves the session unchanged (base artifacts
// intact, still kDone) and is consumed.
TEST(Eco, CancelDiscardsTheAttempt) {
  const netlist::Network base = small_design();
  flow::FlowOptions opt = fast_options();
  flow::FlowSession session(base, opt);
  ASSERT_EQ(session.resume(), flow::SessionState::kDone);
  const std::vector<std::uint8_t> base_bits =
      session.result().bitstream_bytes;

  session.cancel();
  bench_gen::EditSpec edit;
  edit.flips = 1;
  edit.seed = 29;
  EXPECT_EQ(session.resume_with_edit(bench_gen::perturb(base, edit)),
            flow::SessionState::kCancelled);
  EXPECT_EQ(session.state(), flow::SessionState::kDone);
  EXPECT_EQ(session.result().bitstream_bytes, base_bits);
  // The request was consumed: the next attempt runs to completion.
  EXPECT_EQ(session.resume_with_edit(bench_gen::perturb(base, edit)),
            flow::SessionState::kDone);
}

// Edits larger than the dirty-fraction threshold (or with changed IO)
// fall back to a full remap but still complete and verify.
TEST(Eco, OversizedEditFallsBackAndStillVerifies) {
  const netlist::Network base = small_design(80, 0, 13);
  flow::FlowOptions opt = fast_options();
  flow::FlowSession session(base, opt);
  ASSERT_EQ(session.resume(), flow::SessionState::kDone);

  bench_gen::EditSpec edit;
  edit.flips = 70;  // dirties well over half the design
  edit.seed = 31;
  const netlist::Network edited = bench_gen::perturb(base, edit);
  eco::EcoStats stats;
  ASSERT_EQ(session.resume_with_edit(edited, &stats),
            flow::SessionState::kDone);
  EXPECT_FALSE(stats.incremental_map);
  EXPECT_GT(stats.fallbacks, 0);
  const netlist::Network fabric =
      bitgen::decode_to_network(session.result().bitstream);
  const verify::EquivResult eq = verify::prove_equivalence(edited, fabric);
  EXPECT_TRUE(eq.equivalent()) << eq.message;
}

/// SplitMix64 of (a, b): the edit-seed stream of the eco_chain benchmark.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A refuted edit leaves the session on its last proven bitstream. This
/// chain (eco_chain's edit recipe on a 600-gate base) hits the known
/// incremental-remap miscompile at edit 11: the formal safety net must
/// refute it with a counterexample and commit nothing.
TEST(Eco, RefutedEditKeepsLastProvenBitstream) {
  flow::JobSpec job;
  job.source = flow::JobSpec::Source::kBenchGen;
  job.bench.name = "eco_large";
  job.bench.n_gates = 600;
  job.bench.n_latches = 16;
  job.bench.seed = 75;
  job.options.verify_mode = flow::VerifyMode::kFormal;
  job.options.arch.channel_width = 40;
  flow::FlowSession session(job);
  ASSERT_EQ(session.run_until(flow::Stage::kBitgen),
            flow::SessionState::kDone);
  netlist::Network current = flow::resolve_job_network(job);
  for (int k = 0; k <= 11; ++k) {
    bench_gen::EditSpec spec;
    spec.flips = 3;
    spec.rewires = 1;
    spec.added_luts = k % 4 == 3 ? 1 : 0;
    spec.seed = mix_seed(75, 1000 + static_cast<std::uint64_t>(k));
    netlist::Network edited = bench_gen::perturb(current, spec);
    if (k < 11) {
      ASSERT_EQ(session.resume_with_edit(edited), flow::SessionState::kDone)
          << "edit " << k;
      current = std::move(edited);
      continue;
    }
    const std::string proven =
        flow::fnv1a64_hex(session.result().bitstream_bytes);
    EXPECT_EQ(proven, "bcd72874dba38d39");
    try {
      session.resume_with_edit(edited);
      ADD_FAILURE() << "edit 11 was not refuted";
    } catch (const InfeasibleError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ECO recompile"), std::string::npos) << what;
      // The patch mapping is what broke, and its own proof says so.
      EXPECT_NE(what.find("ECO recompile (LUT mapping)"), std::string::npos)
          << what;
      EXPECT_NE(what.find("miter satisfiable at 'po1'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("counterexample: output 'po1'"), std::string::npos)
          << what;
    }
    EXPECT_EQ(flow::fnv1a64_hex(session.result().bitstream_bytes), proven);
  }
}

}  // namespace
}  // namespace amdrel
