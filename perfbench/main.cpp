// The repository benchmark: JobSpec→bitstream latency and throughput on
// three workloads (flow_minw, serve_fixedw, eco_chain), with every op's
// output checked independently, and a separate traced run that reports
// per-layer self times and work counts.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--serve-bin PATH] [--small] [--corrupt-op K]
//
// Prints a report line (fingerprint, digests, workload-specific names of
// the figures) and, last, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. See README.md.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "util/strings.hpp"

namespace {

using namespace perfbench;
using amdrel::util::Json;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload flow_minw|serve_fixedw|eco_chain "
               "--seed N --seconds S --trace 0|1\n"
               "          [--serve-bin PATH] [--small] [--corrupt-op K]\n",
               argv0);
  return 2;
}

/// Each replayed kernel's share of the stage that encloses it in the
/// flow; kernels without a stage of their own are shares of the op.
struct Share {
  const char* kernel;
  const char* stage;
};
const Share kShares[] = {
    {"synth.map_to_luts", "flow.map_s"},  {"pack.cluster", "flow.pack_s"},
    {"place.anneal", "flow.place_s"},     {"route.minw_search", "flow.route_s"},
    {"route.rr_build", "flow.route_s"},   {"route.route_all", "flow.route_s"},
    {"timing.analyze", "flow.power_s"},   {"power.estimate", "flow.power_s"},
    {"bitgen.generate", "flow.bitgen_s"}, {"bitgen.serialize", "flow.bitgen_s"},
    {"bitgen.decode", "flow.bitgen_s"},   {"verify.prove", nullptr},
    {"lint.barriers", nullptr},           {"eco.diff", nullptr},
    {"eco.recompile", nullptr},
};

void add_shares(RunResult* run) {
  auto& layer = run->layer;
  for (const Share& s : kShares) {
    const std::string kernel = s.kernel;
    double denom = s.stage != nullptr ? layer[s.stage] : 0.0;
    if (denom <= 0.0) denom = layer["trace.stage_sum_s"];
    layer[kernel + "_share"] = denom > 0.0 ? layer[kernel + "_s"] / denom : 0.0;
  }
}

/// {"name": {"value": v, "unit": u}, ...} in table order. Missing
/// per-layer values are 0: that layer does no work on the workload.
Json metrics_json(const std::vector<MetricDef>& defs,
                  std::map<std::string, double> values, bool* finite) {
  Json out = Json::make_object();
  for (const MetricDef& d : defs) {
    double v = values[d.name];
    if (!std::isfinite(v)) {
      *finite = false;
      v = 0.0;
    }
    Json m = Json::make_object();
    m.set("value", v);
    m.set("unit", d.unit);
    out.set(d.name, std::move(m));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (std::strcmp(a, "--workload") == 0 && has_value) {
        cfg.workload = argv[++i];
      } else if (std::strcmp(a, "--seed") == 0 && has_value) {
        cfg.seed = amdrel::parse_u64(argv[++i], "--seed");
      } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
        cfg.seconds = amdrel::parse_double(argv[++i], "--seconds");
      } else if (std::strcmp(a, "--trace") == 0 && has_value) {
        trace = amdrel::parse_int(argv[++i], "--trace");
      } else if (std::strcmp(a, "--serve-bin") == 0 && has_value) {
        cfg.serve_bin = argv[++i];
      } else if (std::strcmp(a, "--corrupt-op") == 0 && has_value) {
        cfg.corrupt_op = amdrel::parse_int(argv[++i], "--corrupt-op");
      } else if (std::strcmp(a, "--small") == 0) {
        cfg.small = true;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage(argv[0]);
    }
  }
  if ((trace != 0 && trace != 1) || !(cfg.seconds > 0.0)) return usage(argv[0]);
  cfg.trace = trace == 1;

  try {
    RunResult run;
    if (cfg.workload == "flow_minw") {
      run = run_flow_minw(cfg);
    } else if (cfg.workload == "serve_fixedw") {
      if (cfg.serve_bin.empty()) return usage(argv[0]);
      run = run_serve_fixedw(cfg);
    } else if (cfg.workload == "eco_chain") {
      run = run_eco_chain(cfg);
    } else {
      return usage(argv[0]);
    }
    const double attempted = run.attempted > 0 ? run.attempted : 1;
    run.e2e["ops_ok_ratio"] = (run.attempted - run.failed) / attempted;
    if (cfg.trace) add_shares(&run);

    bool finite = true;
    Json metrics = cfg.trace ? metrics_json(kPerLayer, run.layer, &finite)
                             : metrics_json(kEndToEnd, run.e2e, &finite);
    const bool correct = run.failed == 0 && run.replay_ok && finite;

    Json report = Json::make_object();
    report.set("report", "perfbench");
    report.set("fingerprint", fingerprint(cfg));
    report.set("ops_failed_ratio", run.failed / attempted);
    report.set("ops_failed_ratio_base",
               amdrel::strprintf("%d failed of %d attempted ops", run.failed,
                                 run.attempted));
    report.set("info", run.info);
    std::printf("%s\n", report.dump().c_str());

    Json result = Json::make_object();
    result.set("correct", correct);
    result.set("attempted", run.attempted);
    result.set("failed", run.failed);
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
