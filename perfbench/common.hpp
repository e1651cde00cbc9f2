#pragma once
// Shared pieces of the benchmark driver: run configuration, the metric
// tables (names and units, mirrored by BENCHMARK.json), timing and
// quantile helpers, the independent per-op correctness check, and the
// traced run's kernel replay.
//
// The driver measures every layer from outside: it times calls into the
// layers' public functions and reads work counts from
// obs::snapshot_metrics(). Nothing here adds tracing inside src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/session.hpp"
#include "netlist/network.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest size of each workload (the self-test).
  bool small = false;
  /// Self-test: corrupt this op's bitstream before the correctness
  /// check, which must then count the op as failed (-1 = off).
  int corrupt_op = -1;
  std::string serve_bin;  ///< amdrel_serve executable (serve_fixedw)
};

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupReps = 3;

/// Everything a workload measured. `e2e` and `layer` are keyed by the
/// metric names of kEndToEnd / kPerLayer; missing per-layer entries
/// print as 0 (the layer does no work on that workload).
struct RunResult {
  int attempted = 0;
  int failed = 0;
  /// Traced runs: the kernel replay reproduced every op it replayed.
  bool replay_ok = true;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Informational report fields (digest, ratio bases, workload names).
  amdrel::util::Json info = amdrel::util::Json::make_object();
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json).
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, printed by every traced run (BENCHMARK.json).
extern const std::vector<MetricDef> kPerLayer;

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Peak resident set of a process in MB, from /proc/<pid>/status VmHWM
/// (pid 0 = this process).
double peak_rss_mb(int pid = 0);

/// Worker threads of the min-W probe waves. FlowSession exposes no
/// probe-thread knob and sizes the pool to the hardware concurrency, so
/// that is the pinned value; the replay passes it explicitly. The search
/// result does not depend on it.
int probe_threads();

/// Machine and build fingerprint recorded with every capture.
amdrel::util::Json fingerprint(const RunConfig& cfg);

/// SplitMix64 of (a, b): independent per-op seeds derived from the run
/// seed.
inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a 64 folded over a value (combined digests of per-op hashes).
std::uint64_t fnv_fold(std::uint64_t h, const std::string& s);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
std::string hex64(std::uint64_t h);

/// The independent correctness check of one op: deserializes `bytes`,
/// decodes the fabric to a netlist and random-vector simulates it against
/// the *source* netlist under `seed`. Returns "" when it passes, else the
/// reason. Never throws.
std::string check_bitstream(const std::vector<std::uint8_t>& bytes,
                            const amdrel::netlist::Network& source,
                            std::uint64_t seed);

/// The self-test's corruption: complements the LUTs of the first used
/// CLB, so the stream still parses and decodes but computes something
/// else.
void corrupt(std::vector<std::uint8_t>* bytes);

/// Work counts read from obs::snapshot_metrics() (this process).
std::map<std::string, double> counter_snapshot();
/// after - before, per counter.
std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

/// Registry counters the per-layer metrics are read from.
extern const std::vector<std::string> kCounterNames;

/// Sets a run's per-op work counts from registry deltas summed over
/// `n_ops` ops (verify.formal_checks is reported as verify.proofs).
void add_counts(const std::map<std::string, double>& totals, double n_ops,
                RunResult* run);

/// Per-kernel self times of the traced replay, summed over the replayed
/// ops; the caller counts the ops in `n_ops`, which divides them into
/// per-op means.
struct KernelTimes {
  std::map<std::string, double> seconds;  ///< per-layer metric name → s
  int n_ops = 0;
  int mismatches = 0;
  std::vector<std::string> notes;  ///< first few mismatch descriptions

  /// Runs `fn` and adds its wall time to `name`.
  template <typename Fn>
  void time(const char* name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    seconds[name] += seconds_since(t0);
  }
  void mismatch(const std::string& what) {
    ++mismatches;
    if (notes.size() < 4) notes.push_back(what);
  }
};

/// Replays the public kernel calls of a completed flow on the session's
/// own stage artifacts, timing each call, and checks that the replay
/// reproduces the session's width and bitstream hash. `min_width`
/// selects the minimum-channel-width search (else route_all at the
/// pinned width).
void replay_flow(const amdrel::flow::FlowResult& r,
                 const amdrel::flow::FlowOptions& options, bool min_width,
                 KernelTimes* out);

/// Adds the per-op means of `kt` and its replay check to a run's
/// per-layer metrics.
void add_kernel_metrics(const KernelTimes& kt, RunResult* run);

/// The three workloads.
RunResult run_flow_minw(const RunConfig& cfg);
RunResult run_serve_fixedw(const RunConfig& cfg);
RunResult run_eco_chain(const RunConfig& cfg);

}  // namespace perfbench
