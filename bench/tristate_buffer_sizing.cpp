// Reproduces the §3.3.2 tri-state buffer exploration (results "omitted for
// lack of space" in the paper): routing switches as pairs of two-stage
// tri-state buffers, output-stage width swept up to 16× minimum (beyond
// which the paper notes energy becomes prohibitive). The paper's final
// selection — pass transistors on length-1, min-width double-spaced wires
// — is checked at the end.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "cells/routing_expt.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace amdrel;
  using namespace amdrel::cells;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  auto trace_guard = bench::install_trace(args);
  bench::ScopedMetricsFile metrics_guard(args);

  const std::vector<double> widths = {1, 2, 4, 8, 16};
  const std::vector<int> lengths = {1, 4};

  // The sweep points plus the reference pass-transistor switch are
  // independent testbenches; run them on the pool.
  const std::size_t n_sweep = lengths.size() * widths.size();
  std::vector<RoutingExptResult> res(n_sweep + 1);
  parallel_for(
      n_sweep + 1,
      [&](std::size_t i) {
        RoutingExptOptions opt;
        opt.wire_spacing = process::WireSpacing::kDouble;
        opt.dt = 5e-12;
        opt.solver = args.solver();
        if (i < n_sweep) {
          opt.style = SwitchStyle::kTriStateBuffer;
          opt.wire_length = lengths[i / widths.size()];
          opt.switch_width_x = widths[i % widths.size()];
        } else {
          // Selected pass-transistor switch (10x, L=1) on the same wires.
          opt.wire_length = 1;
          opt.switch_width_x = 10;
        }
        res[i] = run_routing_experiment(opt);
      },
      static_cast<std::size_t>(args.threads));
  const double base = res[0].eda;
  const RoutingExptResult& rp = res[n_sweep];

  if (args.json) {
    util::Json points = util::Json::make_array();
    for (std::size_t i = 0; i < n_sweep; ++i) {
      util::Json pt = util::Json::make_object();
      pt.set("length", lengths[i / widths.size()]);
      pt.set("width_x", widths[i % widths.size()]);
      pt.set("delay_ps", res[i].delay_s * 1e12);
      pt.set("energy_fj", res[i].energy_j * 1e15);
      pt.set("area_um2", res[i].area_um2);
      pt.set("eda_norm", res[i].eda / base);
      points.push_back(std::move(pt));
    }
    util::Json doc = util::Json::make_object();
    doc.set("bench", "tristate_buffer_sizing");
    doc.set("points", std::move(points));
    doc.set("pass_transistor_delay_ps", rp.delay_s * 1e12);
    doc.set("pass_transistor_energy_fj", rp.energy_j * 1e15);
    doc.set("pass_transistor_area_um2", rp.area_um2);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  std::printf("S3.3.2: tri-state buffer routing switch sizing "
              "(min wire width, double spacing)\n\n");
  Table table({"W/Wmin", "L", "delay (ps)", "energy (fJ)", "area (um2)",
               "E*D*A (norm)"});
  for (std::size_t i = 0; i < n_sweep; ++i) {
    const auto& r = res[i];
    table.add_row({strprintf("%.0f", widths[i % widths.size()]),
                   std::to_string(lengths[i / widths.size()]),
                   strprintf("%.0f", r.delay_s * 1e12),
                   strprintf("%.0f", r.energy_j * 1e15),
                   strprintf("%.0f", r.area_um2),
                   strprintf("%.3f", r.eda / base)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("selected pass-transistor switch (10x, L=1, double spacing): "
              "delay %.0f ps, energy %.0f fJ, area %.0f um2\n",
              rp.delay_s * 1e12, rp.energy_j * 1e15, rp.area_um2);
  std::printf("paper conclusion: pass transistors with length-1 wires at "
              "minimum width / double spacing give the low-energy fabric\n");
  return 0;
}
