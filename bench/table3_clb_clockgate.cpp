// Reproduces Table 3: energy per clock cycle of the CLB local clock
// network (root stage + local wire + 5 BLE gating stages + FF clock pins)
// for the single clock vs the CLB-level gated clock, under 0 / 1 / 5
// active flip-flops.
//
// Paper values: all OFF 23.1→3.9 fJ (−83%); one ON 24.1→32.1 (+33%);
// all ON 27.8→35.8 (+29%); conclusion: CLB gating pays off when
// P(all FFs idle) > 1/3.

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
  auto rows = measure_clb_clock_gating(opt);

  double save_off = 0, cost_on = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double delta =
        100.0 * (rows[i].gated_clock_j / rows[i].single_clock_j - 1.0);
    if (i == 0) save_off = delta;
    if (i == 2) cost_on = delta;
  }
  // Break-even idle probability p solving p*saving = (1-p)*overhead.
  const double p = cost_on / (cost_on - save_off);

  if (args.json) {
    util::Json conditions = util::Json::make_array();
    for (const auto& r : rows) {
      util::Json c = util::Json::make_object();
      c.set("n_ffs_on", r.n_ffs_on);
      c.set("single_clock_fj", r.single_clock_j * 1e15);
      c.set("gated_clock_fj", r.gated_clock_j * 1e15);
      c.set("delta_pct", 100.0 * (r.gated_clock_j / r.single_clock_j - 1.0));
      conditions.push_back(std::move(c));
    }
    util::Json doc = util::Json::make_object();
    doc.set("bench", "table3_clb_clockgate");
    doc.set("conditions", std::move(conditions));
    doc.set("break_even_p_idle", p);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  std::printf("Table 3: CLB-level clock gating energy per cycle (5 BLEs)\n\n");
  Table table({"Condition", "Single Clock (fJ)", "Gated Clock (fJ)",
               "delta"});
  const char* names[] = {"all F/Fs OFF", "one F/F ON", "all F/Fs ON"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    double delta = 100.0 * (r.gated_clock_j / r.single_clock_j - 1.0);
    table.add_row({names[i], strprintf("%.2f", r.single_clock_j * 1e15),
                   strprintf("%.2f", r.gated_clock_j * 1e15),
                   strprintf("%+.0f%%", delta)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("paper: -83%% all-off, +33%% one-on, +29%% all-on\n");
  std::printf("break-even P(all FFs OFF) = %.2f (paper: 1/3)\n", p);
  return 0;
}
