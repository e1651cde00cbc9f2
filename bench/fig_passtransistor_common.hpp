#pragma once
// Shared sweep harness for the paper's Figs 8–10: energy·delay·area
// product vs routing pass-transistor width, for wire lengths 1/2/4/8, at
// one wire width/spacing configuration per figure.
//
// The widths×lengths grid points are independent testbenches, so they run
// on a thread pool (--threads); results land in index-addressed slots, so
// the output is identical for any thread count.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "cells/routing_expt.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace amdrel::bench {

inline void run_passtransistor_figure(const char* name, const char* title,
                                      process::WireWidth ww,
                                      process::WireSpacing ws,
                                      const BenchArgs& args) {
  using cells::RoutingExptOptions;
  using cells::run_routing_experiment;

  auto trace_guard = install_trace(args);

  const std::vector<double> widths = {1, 2, 4, 6, 8, 10, 16, 32, 64};
  const std::vector<int> lengths = {1, 2, 4, 8};

  // Normalize each length's series by its W=10 point so the curve shapes
  // (and the optimum position) are directly comparable with the figures.
  std::vector<std::vector<double>> eda(
      lengths.size(), std::vector<double>(widths.size(), 0.0));
  parallel_for(
      lengths.size() * widths.size(),
      [&](std::size_t i) {
        const std::size_t li = i / widths.size();
        const std::size_t wi = i % widths.size();
        RoutingExptOptions opt;
        opt.wire_length = lengths[li];
        opt.switch_width_x = widths[wi];
        opt.wire_width = ww;
        opt.wire_spacing = ws;
        opt.dt = 5e-12;
        opt.solver = args.solver();
        eda[li][wi] = run_routing_experiment(opt).eda;
      },
      static_cast<std::size_t>(args.threads));

  std::vector<double> best_w(lengths.size(), 0.0);
  std::vector<double> w10(lengths.size(), 0.0);
  for (std::size_t li = 0; li < lengths.size(); ++li) {
    double best = 0;
    for (std::size_t wi = 0; wi < widths.size(); ++wi) {
      if (widths[wi] == 10) w10[li] = eda[li][wi];
      if (best == 0 || eda[li][wi] < best) {
        best = eda[li][wi];
        best_w[li] = widths[wi];
      }
    }
  }

  if (args.json) {
    util::Json points = util::Json::make_array();
    util::Json optimal = util::Json::make_array();
    for (std::size_t li = 0; li < lengths.size(); ++li) {
      for (std::size_t wi = 0; wi < widths.size(); ++wi) {
        util::Json pt = util::Json::make_object();
        pt.set("length", lengths[li]);
        pt.set("width_x", widths[wi]);
        pt.set("eda_norm", eda[li][wi] / w10[li]);
        points.push_back(std::move(pt));
      }
      util::Json best = util::Json::make_object();
      best.set("length", lengths[li]);
      best.set("width_x", best_w[li]);
      optimal.push_back(std::move(best));
    }
    util::Json doc = util::Json::make_object();
    doc.set("bench", name);
    doc.set("points", std::move(points));
    doc.set("optimal_width_x", std::move(optimal));
    std::printf("%s\n", doc.dump().c_str());
    return;
  }

  std::printf("%s\n", title);
  std::printf("E*D*A product vs routing pass-transistor width "
              "(relative to the width=10x value of each length)\n\n");
  std::vector<std::string> header{"W/Wmin"};
  for (int len : lengths) header.push_back("L=" + std::to_string(len));
  Table table(header);
  for (std::size_t wi = 0; wi < widths.size(); ++wi) {
    std::vector<std::string> row{strprintf("%.0f", widths[wi])};
    for (std::size_t li = 0; li < lengths.size(); ++li) {
      row.push_back(strprintf("%.3f", eda[li][wi] / w10[li]));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  for (std::size_t li = 0; li < lengths.size(); ++li) {
    std::printf("optimal width for L=%d: %.0fx\n", lengths[li], best_w[li]);
  }
}

}  // namespace amdrel::bench
