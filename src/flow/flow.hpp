#pragma once
// The complete design flow of the paper's Fig. 11 (and the six GUI stages
// of Fig. 12), as a library: VHDL → synthesis (DIVINER) → EDIF →
// DRUID/E2FMT → BLIF → SIS-role optimization + LUT mapping → T-VPack
// packing → DUTYS architecture → VPR-role place & route → PowerModel →
// DAGGER bitstream, with equivalence verification at each handoff.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "bitgen/bitstream.hpp"
#include "lint/lint.hpp"
#include "util/error.hpp"
#include "netlist/network.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/pathfinder.hpp"
#include "route/rr_graph.hpp"
#include "synth/lutmap.hpp"
#include "timing/timing.hpp"

namespace amdrel::flow {

/// The stages of the Fig. 11 tool chain, in execution order. `kSynth`
/// covers VHDL parsing + DIVINER synthesis + the EDIF round-trip (for a
/// network/BLIF entry point it just records the input network); `kPower`
/// covers the PowerModel and static timing analysis, which run after P&R.
enum class Stage : int {
  kSynth = 0,
  kMap,
  kPack,
  kPlace,
  kRoute,
  kPower,
  kBitgen,
};
inline constexpr int kNumStages = 7;

/// Short lower-case stage name ("synth", "map", ..., "bitgen").
const char* stage_name(Stage stage);
/// Parses a stage name ("synth" ... "bitgen"); throws Error otherwise.
Stage parse_stage(const std::string& name);

/// A FlowSession stage threw: the failing stage travels as a
/// machine-readable enum (stage()) so services can report structured
/// errors, in addition to the historical name-prefixed message. Thrown
/// by FlowSession::run_until; derives from Error so existing handlers
/// keep working unchanged.
class StageError : public Error {
 public:
  StageError(Stage stage, const std::string& what)
      : Error(what), stage_(stage) {}
  Stage stage() const { return stage_; }

 private:
  Stage stage_;
};

/// Stage-enum-carrying variant of InfeasibleError (lint barrier hits,
/// unroutable designs, proven equivalence failures), the same way.
class StageInfeasibleError : public InfeasibleError {
 public:
  StageInfeasibleError(Stage stage, const std::string& what)
      : InfeasibleError(what), stage_(stage) {}
  Stage stage() const { return stage_; }

 private:
  Stage stage_;
};

/// Wall time, memory footprint and work counters of one executed stage.
struct StageMetrics {
  bool ran = false;       ///< stage executed to completion
  double wall_s = 0.0;    ///< stage wall-clock time [s]
  long peak_rss_kb = 0;   ///< process peak RSS when the stage finished [kB]
  /// Metrics-registry counter deltas attributed to this stage (name →
  /// increment while the stage ran), name-sorted; only counters that
  /// actually moved are recorded. See obs/metrics.hpp.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// Delta for one registry counter (0 when the stage did not bump it).
  std::uint64_t counter(const std::string& name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  }
};

/// How stage hand-offs are equivalence-verified (FlowOptions::verify_mode).
enum class VerifyMode : int {
  kOff = 0,  ///< no equivalence checking
  kFormal,   ///< SAT proof of each artifact against its predecessor
  kBoth,     ///< the formal proofs plus random vectors at every hand-off
};
/// Lower-case mode name ("off", "formal", "both").
const char* verify_mode_name(VerifyMode mode);
/// Parses a verify mode name; throws Error naming the valid modes on
/// anything else.
VerifyMode parse_verify_mode(const std::string& name);

struct FlowOptions {
  arch::ArchSpec arch;
  std::uint64_t seed = 1;
  /// Equivalence verification at stage hand-offs. kFormal (the default)
  /// and kBoth prove each artifact once against its predecessor with the
  /// SAT-based checker in src/verify; kBoth also runs random vectors at
  /// every hand-off as a cross-check. Formal proofs per stage:
  ///
  ///   synth  map  pack  place  route  power  bitgen
  ///     1     1    1      1      1      0      0
  ///
  /// synth proves the EDIF (VHDL) or BLIF (network) round trip; route
  /// proves the bitstream it builds, through a fabric decode. power reads
  /// the packing the pack proof covered. bitgen checks instead, in every
  /// mode but kOff, that the bytes read back as exactly that bitstream.
  VerifyMode verify_mode = VerifyMode::kFormal;
  std::uint64_t verify_seed = 1;      ///< seeds random vectors + SAT sweeps
  double verify_time_limit_s = 60.0;  ///< formal wall budget per hand-off
  /// Run the lint barriers (netlist lint on the mapped design, RR-graph
  /// lint, bitstream checks; pack, place and route check their own
  /// artifacts always). Error-severity findings abort the flow with an
  /// InfeasibleError carrying the full report; warnings accumulate in
  /// FlowResult::lint.
  bool check_invariants = true;
  bool search_min_channel_width = false;
  /// Tile-pattern deduplicated RR graph (O(patterns) memory; the
  /// default). false rebuilds the dense per-node oracle representation.
  bool rr_dedup = true;
  power::PowerOptions power;
  /// Write per-stage artifacts (EDIF/BLIF/net/arch/bitstream) here if set.
  std::string artifact_dir;
};

/// Everything the flow produced; stages mirror the GUI's six steps.
struct FlowResult {
  /// The architecture the design was implemented on. Heap-held because
  /// the packed netlist, placement and RR graph reference it — it must
  /// outlive them and stay at a stable address across moves.
  std::unique_ptr<arch::ArchSpec> arch;
  // Stage 2: synthesis.
  netlist::Network synthesized;     ///< gate-level network (DIVINER)
  // Stage 3: format translation + LUT mapping. Heap-held: the packed
  // netlist (and everything downstream) keeps pointers into it, so its
  // address must survive moves of this result object.
  std::unique_ptr<netlist::Network> mapped;  ///< K-LUT network
  synth::LutMapStats map_stats;
  // Stage 5a: packing.
  std::unique_ptr<pack::PackedNetlist> packed;
  // Stage 5b: placement.
  std::unique_ptr<place::Placement> placement;
  place::Placement::AnnealStats place_stats;
  // Stage 5c: routing.
  std::unique_ptr<route::RrGraph> rr_graph;
  route::RouteResult routing;
  int channel_width = 0;
  // Stage 4 (runs after P&R in practice): power estimation.
  power::PowerReport power;
  // Timing.
  timing::TimingReport timing;
  // Stage 6: FPGA programming file. The route stage builds `bitstream`
  // from the routing it commits (so it is filled after
  // run_until(kRoute)); the bitgen stage serializes it into
  // `bitstream_bytes`, which stays empty until then.
  bitgen::Bitstream bitstream;
  std::vector<std::uint8_t> bitstream_bytes;
  /// Diagnostics from the per-stage lint barriers (check_invariants).
  lint::Report lint;
  /// Wall time / peak RSS per executed stage, indexed by Stage.
  std::array<StageMetrics, kNumStages> stage_metrics{};

  const StageMetrics& metrics(Stage stage) const {
    return stage_metrics[static_cast<std::size_t>(stage)];
  }

  std::string report() const;  ///< multi-line human-readable summary
};

/// Ground-truth register correspondence between the mapped netlist and
/// the decoded fabric: packing pins each FF to a BLE slot, placement
/// pins the cluster to a tile, and those coordinates are exactly the
/// name the fabric decoder gives the FF's Q output ("clbX_Y_bS"). Feed
/// to verify::EquivOptions::register_map so sequential matching against
/// bitgen::decode_to_network output is pinned instead of guessed.
/// Requires result.mapped / result.packed / result.placement.
std::vector<std::pair<std::string, std::string>> fabric_register_map(
    const netlist::Network& mapped, const pack::PackedNetlist& packed,
    const place::Placement& placement);
std::vector<std::pair<std::string, std::string>> fabric_register_map(
    const FlowResult& result);

}  // namespace amdrel::flow
