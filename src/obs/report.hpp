#pragma once
// Trace analyzer: the consumer side of the obs event stream. Parses a
// JSONL trace (the schema JsonlSink writes; DESIGN.md §8) into a span
// tree and reduces it to
//
//  * per-name aggregates — count, total and self wall time (self =
//    duration minus in-tree children), exact p50/p95 over span
//    durations, and the sum of every metric key, for spans and points
//    alike;
//  * a flow QoR summary — per-stage wall time from the flow.<stage>
//    spans plus the headline QoR numbers the paper reports (channel
//    width, routed wire nodes, LUTs, CLBs, config bits, critical path,
//    power), read from the span metrics FlowSession attaches.
//
// Surfaced as `amdrel_cli trace-report <trace.jsonl> [--json]`; the same
// analysis backs tests that cross-check span durations against the
// session's own StageMetrics.
//
// Span pairing: events that carry span ids (every trace written since
// the schema gained "id"/"parent"/"trace") are paired begin↔end by id
// and parented by the recorded parent id, so interleaved multi-job
// traces — e.g. a daemon spooling 64 concurrent jobs into one file, or
// several per-job spools concatenated for a fleet-wide view — produce
// exact trees. Id-less events (old traces) fall back to pairing with
// the nearest open span of the same name, whose parentage — and
// therefore the *self* time of whatever span they landed under — is
// approximate in concurrent sections. Totals, counts and quantiles are
// exact under either pairing.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace amdrel::obs {

/// One parsed trace event (a "begin"/"span" pair becomes one SpanNode).
struct TraceEvent {
  enum class Kind { kBegin, kEnd, kPoint };
  Kind kind = Kind::kPoint;
  std::string name;
  double t_s = 0.0;
  double dur_s = 0.0;
  std::uint64_t id = 0;      ///< span id (0: id-less legacy event)
  std::uint64_t parent = 0;  ///< enclosing span id (0: root)
  std::string trace;         ///< owning trace id ("" outside a context)
  std::vector<std::pair<std::string, double>> metrics;
};

/// Parses one JSONL trace line with util::parse_json (string escapes
/// such as \n are decoded). Returns false (and leaves *out unspecified)
/// for lines that are not valid trace events — not one JSON object, an
/// unknown key, a field of the wrong type, a bad "type", a negative or
/// fractional id, or an empty name. Callers skip those, so a trace
/// truncated by a crash still analyzes.
bool parse_trace_line(const std::string& line, TraceEvent* out);

/// A completed span with its nested children (tree order = trace order).
struct SpanNode {
  std::string name;
  double t_s = 0.0;
  double dur_s = 0.0;
  std::uint64_t id = 0;  ///< span id (0 for id-less legacy traces)
  std::string trace;     ///< trace id this span was emitted under
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<SpanNode> children;
};

/// Aggregate over every span/point sharing a name.
struct NameAggregate {
  std::string name;
  bool is_span = false;    ///< false: point events
  std::uint64_t count = 0;
  double total_s = 0.0;    ///< sum of span durations (0 for points)
  double self_s = 0.0;     ///< total minus time inside child spans
  double p50_s = 0.0;      ///< exact median span duration
  double p95_s = 0.0;      ///< exact 95th-percentile span duration
  std::map<std::string, double> metric_sums;
};

/// Wall time of one flow stage summed across every flow in the trace.
struct StageWall {
  std::uint64_t runs = 0;
  double wall_s = 0.0;
};

/// Headline QoR record of the traced flows (see class comment).
struct FlowQorSummary {
  std::uint64_t flows = 0;  ///< completed flows (= flow.bitgen spans)
  std::map<std::string, StageWall> stages;  ///< keyed by stage name
  double total_wall_s = 0.0;                ///< sum over stage walls
  double channel_width_max = 0.0;
  double wire_nodes = 0.0;     ///< summed over flows
  double luts = 0.0;           ///< summed over flows
  double clbs = 0.0;           ///< summed over flows
  double config_bits = 0.0;    ///< summed over flows
  double bitstream_bytes = 0.0;
  double critical_path_ns_max = 0.0;
  double power_mw = 0.0;       ///< summed over flows
};

struct TraceReport {
  std::uint64_t events = 0;        ///< parsed events
  std::uint64_t skipped_lines = 0; ///< unparseable lines (crash tails)
  std::uint64_t unmatched_ends = 0;///< span ends with no open begin
  std::uint64_t traces = 0;        ///< distinct trace ids seen (0: none)
  double trace_dur_s = 0.0;        ///< max event timestamp (+dur)
  std::vector<SpanNode> roots;     ///< top-level spans, trace order
  std::vector<NameAggregate> aggregates;  ///< sorted by total_s desc
  FlowQorSummary qor;

  std::string to_text() const;
  util::Json to_json() const;  ///< one JSON object (DESIGN.md §8.3)
};

/// Analyzes a trace from a stream / a file on disk. The file variant
/// throws amdrel::Error when the file cannot be opened.
TraceReport analyze_trace(std::istream& in);
TraceReport analyze_trace_file(const std::string& path);

}  // namespace amdrel::obs
