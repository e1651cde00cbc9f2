// Architecture exploration: sweeps the CLB parameters (K, N) around the
// paper's chosen point (K=4, N=5) and reports how packing density,
// minimum channel width, critical path and power respond — the same style
// of exploration §3.1 of the paper used to select the CLB.

#include <cstdio>
#include <exception>

#include "bench_gen/bench_gen.hpp"
#include "flow/session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace amdrel;
  std::printf("CLB architecture exploration (paper's pick: K=4, N=5)\n\n");

  bench_gen::BenchSpec spec;
  spec.name = "explore";
  spec.n_inputs = 14;
  spec.n_outputs = 10;
  spec.n_gates = 600;
  spec.n_latches = 48;
  spec.seed = 4;
  auto net = bench_gen::generate(spec);

  Table table({"K", "N", "I=(K/2)(N+1)", "LUTs", "CLBs", "minW", "crit ns",
               "power mW"});
  for (int k : {3, 4, 5}) {
    for (int n : {3, 5, 8}) {
      try {
        flow::FlowOptions options;
        options.arch.k = k;
        options.arch.n = n;
        options.verify_mode = flow::VerifyMode::kOff;
        options.search_min_channel_width = true;
        flow::FlowSession session(net, options);
        session.resume();
        const flow::FlowResult& r = session.result();
        table.add_row({std::to_string(k), std::to_string(n),
                       std::to_string(options.arch.cluster_inputs()),
                       std::to_string(r.map_stats.luts),
                       std::to_string(
                           static_cast<int>(r.packed->clusters().size())),
                       std::to_string(r.channel_width),
                       strprintf("%.2f", r.timing.critical_path_s * 1e9),
                       strprintf("%.2f", r.power.total_w * 1e3)});
        std::printf("  K=%d N=%d done\n", k, n);
      } catch (const std::exception& e) {
        std::printf("  K=%d N=%d FAILED: %s\n", k, n, e.what());
      }
    }
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf("\nNote: the K=4 LUT count differs across K because mapping "
              "re-covers the same logic; the paper selects K=4/N=5 for the "
              "energy-area balance.\n");
  return 0;
}
