#pragma once
// Shared command-line handling for the paper-table/figure bench drivers,
// layered on flow::parse_job_spec (flow/jobspec.hpp) so every binary in
// the repo strips the same flags with the same spellings. The flow layer
// handles:
//   --trace FILE --progress --metrics FILE --threads N --dense
//   --rr-dedup --rr-dense --verify MODE --seed N
//   --priority low|normal|high --until STAGE
// and this layer adds the bench-only --json. Drivers with extra flags
// pass an `extra` callback to parse_bench_args; it sees every argument
// the shared parsers do not recognise and returns whether it consumed it
// (advancing *i for flags that take a value).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "flow/jobspec.hpp"
#include "obs/obs.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace amdrel::bench {

struct BenchArgs {
  bool json = false;
  /// Shared job knobs (--seed/--verify/--rr-dedup/--until/--priority):
  /// flow benches use spec.options as their base FlowOptions, so a QoR
  /// run can be re-seeded or switched to the dense RR oracle without
  /// per-bench flag code.
  flow::JobSpec spec;
  /// Process runtime (--trace/--metrics/--progress/--threads/--dense).
  flow::JobRuntime runtime;
  int threads = 0;  ///< mirror of runtime.threads (0 = hw concurrency)
  bool verify_given = false;  ///< --verify was passed explicitly

  spice::MnaSolver solver() const {
    return runtime.dense_mna ? spice::MnaSolver::kDense
                             : spice::MnaSolver::kSparse;
  }
};

/// Callback for driver-specific flags: examine argv[*i] (and following
/// values), return true after consuming it. `*i` points at the unrecognised
/// argument; advance it past any value the flag takes.
using ExtraFlagFn = std::function<bool(int argc, char** argv, int* i)>;

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const char* extra_usage = "",
                                  const ExtraFlagFn& extra = {}) {
  BenchArgs args;
  try {
    flow::JobSpecCli cli = flow::parse_job_spec(&argc, argv);
    args.spec = std::move(cli.spec);
    args.runtime = std::move(cli.runtime);
    args.verify_given = cli.verify_given;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], e.what());
    std::exit(2);
  }
  args.threads = args.runtime.threads;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.json = true;
    } else if (extra && extra(argc, argv, &i)) {
      // consumed by the driver
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--dense] [--threads N] "
                   "[--trace FILE] [--metrics FILE] [--progress] "
                   "[--seed N] [--verify MODE] [--rr-dedup|--rr-dense]%s\n",
                   argv[0], extra_usage);
      std::exit(2);
    }
  }
  return args;
}

/// Attaches the trace sink requested by --trace / --progress for the
/// guard's lifetime; a no-op guard when neither flag was given. --trace
/// wins when both are present (one sink per process).
inline obs::ScopedSink install_trace(const BenchArgs& args) {
  return flow::install_runtime_trace(args.runtime);
}

/// Writes the metrics-registry snapshot requested by --metrics when the
/// guard leaves scope (normal or error exit); no-op when the flag was not
/// given. Declare it right after install_trace in main().
struct ScopedMetricsFile : flow::RuntimeMetricsGuard {
  explicit ScopedMetricsFile(const BenchArgs& args)
      : flow::RuntimeMetricsGuard(args.runtime) {}
};

}  // namespace amdrel::bench
