// Reproduces Table 1: energy consumption, worst-case delay and
// energy-delay product of the five DETFF candidates, simulated at
// transistor level in the 0.18 µm substitute process.
//
// Paper conclusions to match (absolute fJ/ps differ, see EXPERIMENTS.md):
//   * Llopis 1 has the lowest total energy (and is selected for the BLE);
//   * Chung 2 has the lowest energy-delay product.

#include <cstdio>

#include "bench_common.hpp"
#include "cells/characterize.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amdrel;
  using namespace amdrel::cells;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  auto trace_guard = bench::install_trace(args);
  bench::ScopedMetricsFile metrics_guard(args);

  DetffBenchOptions opt;
  opt.solver = args.solver();
  opt.n_threads = args.threads;
  auto rows = characterize_all_detffs(opt);

  const DetffMetrics* best_e = nullptr;
  const DetffMetrics* best_edp = nullptr;
  for (const auto& m : rows) {
    if (best_e == nullptr || m.energy_j < best_e->energy_j) best_e = &m;
    if (best_edp == nullptr || m.edp < best_edp->edp) best_edp = &m;
  }

  if (args.json) {
    util::Json cells = util::Json::make_array();
    for (const auto& m : rows) {
      util::Json c = util::Json::make_object();
      c.set("cell", detff_name(m.kind));
      c.set("energy_fj", m.energy_j * 1e15);
      c.set("delay_ps", m.delay_s * 1e12);
      c.set("edp_fj_ps", m.edp * 1e27);
      c.set("transistors", m.transistors);
      c.set("functional", m.functional);
      cells.push_back(std::move(c));
    }
    util::Json doc = util::Json::make_object();
    doc.set("bench", "table1_detff");
    doc.set("cells", std::move(cells));
    doc.set("lowest_energy", detff_name(best_e->kind));
    doc.set("lowest_edp", detff_name(best_edp->kind));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  std::printf("Table 1: energy, delay and E*D of DET flip-flops "
              "(level-1 0.18um simulation)\n\n");
  Table table({"Cell", "Total Energy (fJ)", "Delay (ps)",
               "Energy*Delay (fJ*ps)", "transistors", "functional"});
  for (const auto& m : rows) {
    table.add_row({detff_name(m.kind), strprintf("%.1f", m.energy_j * 1e15),
                   strprintf("%.1f", m.delay_s * 1e12),
                   strprintf("%.0f", m.edp * 1e27),
                   std::to_string(m.transistors), m.functional ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("lowest energy       : %s (paper: Llopis 1)\n",
              detff_name(best_e->kind));
  std::printf("lowest energy-delay : %s (paper: Chung 2)\n",
              detff_name(best_edp->kind));
  std::printf("selected for the BLE: Llopis 1 (lowest energy, simplest "
              "structure / smallest area)\n");
  return 0;
}
