// Reproduces Table 2: energy per clock cycle of one BLE's clock path
// (driver chain + final stage + DETFF) for a plain clock vs the gated
// clock (NAND + inverter), with the enable high and low.
//
// Paper values: single 40.76 fJ; gated EN=1 43.44 fJ (+6.2%); gated EN=0
// 9.31 fJ (−77%). The shape to match: small overhead when enabled, large
// saving when disabled.

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
  auto e = measure_ble_clock_gating(opt);
  const double d_en = 100.0 * (e.gated_enabled_j / e.single_clock_j - 1.0);
  const double d_dis = 100.0 * (e.gated_disabled_j / e.single_clock_j - 1.0);

  if (args.json) {
    util::Json doc = util::Json::make_object();
    doc.set("bench", "table2_ble_clockgate");
    doc.set("single_clock_fj", e.single_clock_j * 1e15);
    doc.set("gated_enabled_fj", e.gated_enabled_j * 1e15);
    doc.set("gated_disabled_fj", e.gated_disabled_j * 1e15);
    doc.set("enabled_delta_pct", d_en);
    doc.set("disabled_delta_pct", d_dis);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  std::printf("Table 2: BLE-level clock gating energy per cycle\n\n");
  Table table({"Configuration", "Energy (fJ)", "vs single clock"});
  table.add_row({"Single clock", strprintf("%.2f", e.single_clock_j * 1e15),
                 "-"});
  table.add_row({"Gated clock, CLK_ENABLE=1",
                 strprintf("%.2f", e.gated_enabled_j * 1e15),
                 strprintf("%+.1f%%", d_en)});
  table.add_row({"Gated clock, CLK_ENABLE=0",
                 strprintf("%.2f", e.gated_disabled_j * 1e15),
                 strprintf("%+.1f%%", d_dis)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("paper: +6.2%% when enabled, -77%% when disabled\n");
  return 0;
}
