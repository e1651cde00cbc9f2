// Runs the MCNC-like synthetic benchmark suite through the complete CAD
// flow (the paper's Fig. 11 pipeline) and prints a per-circuit QoR table:
// LUTs, depth, clusters, grid, minimum channel width, critical path and
// power. This is the workload a user of the toolset would run to evaluate
// an architecture.

#include <cstdio>
#include <exception>

#include "bench_gen/bench_gen.hpp"
#include "flow/session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace amdrel;
  std::printf("MCNC-like suite through the AMDREL flow "
              "(K=4, N=5, I=12, min-W search)\n\n");

  Table table({"circuit", "LUTs", "FFs", "depth", "CLBs", "grid", "minW",
               "crit ns", "fmax MHz", "power mW"});

  for (const auto& spec : bench_gen::mcnc_like_suite()) {
    try {
      auto net = bench_gen::generate(spec);
      flow::FlowOptions options;
      options.verify_mode = flow::VerifyMode::kOff;  // speed; covered by tests
      options.search_min_channel_width = true;
      flow::FlowSession session(net, options);
      session.resume();
      const flow::FlowResult& r = session.result();
      table.add_row(
          {spec.name, std::to_string(r.map_stats.luts),
           std::to_string(static_cast<int>(r.mapped->latches().size())),
           std::to_string(r.map_stats.depth),
           std::to_string(static_cast<int>(r.packed->clusters().size())),
           std::to_string(r.placement->nx()) + "x" +
               std::to_string(r.placement->ny()),
           std::to_string(r.channel_width),
           strprintf("%.2f", r.timing.critical_path_s * 1e9),
           strprintf("%.1f", r.timing.fmax_hz / 1e6),
           strprintf("%.2f", r.power.total_w * 1e3)});
      std::printf("  %-12s done\n", spec.name.c_str());
    } catch (const std::exception& e) {
      std::printf("  %-12s FAILED: %s\n", spec.name.c_str(), e.what());
    }
  }
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}
