#pragma once
// flow::JobSpec — one serializable description of a compile job.
//
// Before this existed, "what to run" was smeared across three places:
// FlowOptions (the library knobs), per-binary CLI flag loops
// (--verify/--seed/--rr-dedup/--trace/--metrics/--threads copied into
// amdrel_cli and every bench), and the input source (a Network reference
// or VHDL string picked by constructor overload). A JobSpec consolidates
// all of it into one first-class struct with a JSON round-trip, so the
// amdrel_serve daemon, amdrel_cli, the benches and the tests share a
// single entry-point contract: build a JobSpec, hand it to
// FlowSession(JobSpec), run_until(spec.until).
//
// The JSON schema (DESIGN.md §13.2) mirrors the struct field-for-field;
// job_spec_from_json rejects unknown keys so client typos fail loudly
// instead of silently compiling the wrong thing.

#include <string>

#include "bench_gen/bench_gen.hpp"
#include "flow/flow.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"

namespace amdrel::flow {

/// Scheduling class of a job in the amdrel_serve priority queue.
enum class JobPriority : int { kLow = 0, kNormal = 1, kHigh = 2 };
const char* job_priority_name(JobPriority priority);
JobPriority parse_job_priority(const std::string& name);

struct JobSpec {
  // ---- identity / scheduling (consumed by amdrel_serve) ----
  std::string label;  ///< client-chosen job label, echoed in replies
  JobPriority priority = JobPriority::kNormal;

  // ---- input source (exactly one kind) ----
  enum class Source : int {
    kNone = 0,  ///< invalid — a runnable spec must pick a source
    kBlif,      ///< `text` holds BLIF
    kVhdl,      ///< `text` holds VHDL; `top` names the entity
    kFile,      ///< `path` names a design file, loaded by extension
    kBenchGen,  ///< `bench` (+ `bench_edits`) generates the circuit
  };
  Source source = Source::kNone;
  std::string text;  ///< inline design text (kBlif / kVhdl)
  std::string path;  ///< design path: .vhd/.vhdl/.edif/.bit/BLIF (kFile)
  std::string top = "top";     ///< VHDL top entity (kVhdl / .vhd files)
  bench_gen::BenchSpec bench;  ///< kBenchGen generator parameters
  int bench_edits = 0;  ///< perturb the generated circuit (ECO workloads)

  // ---- what to run ----
  Stage until = Stage::kBitgen;  ///< last stage to execute
  FlowOptions options;           ///< the library knobs, unchanged

  /// Architecture as DUTYS text; when non-empty it is parsed into
  /// options.arch before the run. amdrel_serve parses it at submit, so a
  /// bad one is rejected as bad_job, and caches the elaborated ArchSpec
  /// keyed on this text, so concurrent jobs share one copy.
  std::string arch_text;

  // ---- result shaping (serve protocol) ----
  bool return_bitstream = false;  ///< include bitstream hex in the reply

  /// True when a source has been chosen (the spec can be run).
  bool runnable() const { return source != Source::kNone; }
};

/// JSON ⇄ JobSpec. from_json throws Error on unknown keys, type
/// mismatches, or out-of-range values; only "source" is mandatory
/// (everything else defaults as the struct does).
JobSpec job_spec_from_json(const util::Json& json);
JobSpec parse_job_spec_json(const std::string& text);
util::Json job_spec_to_json(const JobSpec& spec);

/// Materializes the entry network of a non-VHDL spec: parses inline
/// BLIF, loads `path` by extension, or runs bench_gen (+ perturb), then
/// checks it with Network::validate() — a netlist with an undriven or
/// multiply-driven signal throws Error here, before any kernel runs.
/// kVhdl specs go through FlowSession's VHDL path instead (the EDIF
/// round-trip is part of the synth stage); calling this on one throws.
netlist::Network resolve_job_network(const JobSpec& spec);

/// FNV-1a 64-bit of a byte buffer (bitgen::HashSink) as 16 lowercase hex
/// digits — the bitstream fingerprint in serve replies and `amdrel_cli
/// job` output, equal to a streamed hash of the same bytes.
std::string fnv1a64_hex(const std::vector<std::uint8_t>& bytes);

/// The shared job-result payload of the serve protocol (`result` reply)
/// and `amdrel_cli job`: executed-stage metrics (wall_s / peak_rss_kb /
/// counter deltas), the QoR summary, and — when bitgen ran — the
/// bitstream fingerprint plus hex bytes when spec.return_bitstream.
util::Json job_result_to_json(const JobSpec& spec, const FlowResult& result);

// ---------------------------------------------------------------------
// Shared command-line layer: every binary (amdrel_cli, amdrel_serve,
// all benches) strips the same flags with the same spellings, instead
// of the per-binary copies this replaced.

/// Process-level runtime settings that are not part of the job itself.
struct JobRuntime {
  std::string trace;    ///< --trace FILE: obs JSONL trace
  std::string metrics;  ///< --metrics FILE: registry snapshot on exit
  bool progress = false;  ///< --progress: TextSink spans on stderr
  int threads = 0;        ///< --threads N (0 = hardware concurrency)
  bool dense_mna = false;  ///< --dense: dense MNA oracle (SPICE benches)
};

/// A parsed command line: the job description plus runtime settings.
struct JobSpecCli {
  JobSpec spec;
  JobRuntime runtime;
  /// True when --verify / --seed was given explicitly — lets a driver
  /// with a different default (e.g. flow_qor verifies 'both') keep it
  /// unless the user overrode.
  bool verify_given = false;
  bool seed_given = false;
};

/// Strips every shared flag out of argv (compacting it in place, argv[0]
/// untouched) and returns the parsed result. Flags handled here:
///   --trace FILE --progress --metrics FILE --threads N --dense
///   --rr-dedup --rr-dense --verify MODE --seed N
///   --priority low|normal|high --until STAGE
/// Anything unrecognised stays in argv for the caller (positional
/// arguments, binary-specific flags). Throws Error on malformed values.
JobSpecCli parse_job_spec(int* argc, char** argv);

/// Attaches the sink requested by --trace / --progress for the guard's
/// lifetime (--trace wins when both are present; one sink per process).
obs::ScopedSink install_runtime_trace(const JobRuntime& runtime);

/// Writes the --metrics registry snapshot when the guard leaves scope
/// (normal or error exit); no-op when the flag was not given.
struct RuntimeMetricsGuard {
  std::string path;
  RuntimeMetricsGuard() = default;
  explicit RuntimeMetricsGuard(const JobRuntime& runtime)
      : path(runtime.metrics) {}
  ~RuntimeMetricsGuard();
};

}  // namespace amdrel::flow
