#include "flow/flow.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"

namespace amdrel::flow {

std::string FlowResult::report() const {
  std::ostringstream os;
  // One line per stage that ran: after run_until(kSynth) the later
  // artifacts (mapped, packed, ...) do not exist yet.
  os << "=== AMDREL design flow report ===\n";
  if (metrics(Stage::kSynth).ran) {
    os << "[2] synthesis   : " << synthesized.stats() << "\n";
  }
  if (metrics(Stage::kMap).ran) {
    os << "[3] mapping     : " << mapped->stats() << " — " << map_stats.luts
       << " LUTs, depth " << map_stats.depth << "\n";
  }
  if (metrics(Stage::kPack).ran) {
    os << "[5a] packing    : " << packed->stats() << "\n";
  }
  if (metrics(Stage::kPlace).ran) {
    os << strprintf("[5b] placement  : %dx%d grid, cost %.1f → %.1f\n",
                    placement->nx(), placement->ny(),
                    place_stats.initial_cost, place_stats.final_cost);
  }
  if (metrics(Stage::kRoute).ran) {
    os << strprintf(
        "[5c] routing    : W=%d, %d iterations, %d wire segments\n",
        channel_width, routing.iterations, routing.total_wire_nodes);
  }
  if (metrics(Stage::kPower).ran) {
    os << "[4] power       : " << power.summary() << "\n";
    os << strprintf(
        "    timing      : critical path %.2f ns (fmax %.1f MHz)\n",
        timing.critical_path_s * 1e9, timing.fmax_hz / 1e6);
  }
  if (metrics(Stage::kBitgen).ran) {
    os << strprintf(
        "[6] bitstream   : %lld config bits (%zu bytes serialized)\n",
        bitstream.config_bits(), bitstream_bytes.size());
  }
  std::string stages;
  long peak_kb = 0;
  for (int s = 0; s < kNumStages; ++s) {
    const StageMetrics& m = stage_metrics[static_cast<std::size_t>(s)];
    if (!m.ran) continue;
    if (!stages.empty()) stages += " | ";
    stages += strprintf("%s %.3fs", stage_name(static_cast<Stage>(s)),
                        m.wall_s);
    peak_kb = std::max(peak_kb, m.peak_rss_kb);
  }
  if (!stages.empty()) {
    os << "    stages      : " << stages;
    if (peak_kb > 0) os << strprintf("  (peak RSS %.1f MB)", peak_kb / 1024.0);
    os << "\n";
  }
  if (!lint.empty()) {
    os << strprintf("    lint        : %d error(s), %d warning(s), %d note(s)\n",
                    lint.count(lint::Severity::kError),
                    lint.count(lint::Severity::kWarning),
                    lint.count(lint::Severity::kInfo));
  }
  return os.str();
}

std::vector<std::pair<std::string, std::string>> fabric_register_map(
    const netlist::Network& mapped, const pack::PackedNetlist& packed,
    const place::Placement& placement) {
  std::vector<std::pair<std::string, std::string>> map;
  for (std::size_t ci = 0; ci < packed.clusters().size(); ++ci) {
    const pack::Cluster& cluster = packed.clusters()[ci];
    const place::Loc& loc = placement.location(
        placement.block_of_cluster(static_cast<int>(ci)));
    for (std::size_t slot = 0; slot < cluster.bles.size(); ++slot) {
      const pack::Ble& ble =
          packed.bles()[static_cast<std::size_t>(cluster.bles[slot])];
      if (ble.latch < 0) continue;
      map.emplace_back(
          mapped.signal_name(
              mapped.latches()[static_cast<std::size_t>(ble.latch)].q),
          strprintf("clb%d_%d_b%zu", loc.x, loc.y, slot));
    }
  }
  return map;
}

std::vector<std::pair<std::string, std::string>> fabric_register_map(
    const FlowResult& result) {
  if (!result.mapped || !result.packed || !result.placement) return {};
  return fabric_register_map(*result.mapped, *result.packed,
                             *result.placement);
}

}  // namespace amdrel::flow
