#pragma once
// Cross-stage lint & invariant-checker engine.
//
// Every CAD stage hands the next a structured artifact (netlist, packed
// netlist, placement, RR graph, routing, bitstream); a mis-formed hand-off
// otherwise only surfaces as a wrong number several stages downstream.
// This engine gives all checkers a common vocabulary: registered rules
// with stable IDs, diagnostics with severities and design-object
// locations, and text / JSON report emitters. The rule families live in
// netlist_rules.hpp (BLIF/network hygiene), rr_rules.hpp (architecture /
// routing-resource graph) and flow_rules.hpp (post-stage invariants).

#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace amdrel::lint {

enum class Severity { kInfo, kWarning, kError };

/// "info" / "warning" / "error".
const char* severity_name(Severity s);

/// Stable rule identifiers. Tests and tooling match on these exact
/// strings; never renumber an existing rule.
namespace rules {
// --- netlist family (NL0xx) ---
inline constexpr const char* kCombCycle = "NL001";
inline constexpr const char* kMultiDriven = "NL002";
inline constexpr const char* kUndrivenSignal = "NL003";
inline constexpr const char* kDanglingOutput = "NL004";
inline constexpr const char* kConstantLut = "NL005";
inline constexpr const char* kDuplicateLut = "NL006";
inline constexpr const char* kClockSanity = "NL007";
inline constexpr const char* kUnusedInput = "NL008";
// --- architecture / RR-graph family (RR0xx) ---
inline constexpr const char* kRrUnreachable = "RR001";
inline constexpr const char* kRrChannelWidth = "RR002";
inline constexpr const char* kRrAsymmetricSwitch = "RR003";
inline constexpr const char* kRrZeroFanoutWire = "RR004";
inline constexpr const char* kRrInvalidEdge = "RR005";
// --- flow invariant family (FLxxx; x = stage) ---
inline constexpr const char* kPackClusterSize = "FL101";
inline constexpr const char* kPackClusterInputs = "FL102";
inline constexpr const char* kPackClusterClock = "FL103";
inline constexpr const char* kPackCoverage = "FL104";
inline constexpr const char* kPlaceOverlap = "FL201";
inline constexpr const char* kPlaceOffGrid = "FL202";
inline constexpr const char* kRouteOveruse = "FL301";
inline constexpr const char* kRouteDisconnected = "FL302";
inline constexpr const char* kRouteBadEdge = "FL303";
inline constexpr const char* kBitgenRoundtrip = "FL401";
inline constexpr const char* kBitgenMalformed = "FL402";
// --- formal equivalence family (EQ0xx) ---
inline constexpr const char* kEqMiterSat = "EQ001";
inline constexpr const char* kEqInconclusive = "EQ002";
inline constexpr const char* kEqInterface = "EQ003";
inline constexpr const char* kEqRegisterMatch = "EQ004";
inline constexpr const char* kEqRandomMismatch = "EQ005";
}  // namespace rules

/// One registered rule: identity, default severity, one-line summary.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* family;   ///< "netlist" | "rr-graph" | "flow" | "equiv"
  const char* summary;
};

/// All registered rules (stable order: netlist, rr-graph, flow).
const std::vector<RuleInfo>& rule_registry();
/// Registry entry for `id`, nullptr if unknown.
const RuleInfo* find_rule(std::string_view id);

/// One finding: which rule fired, on which design object, and where in
/// the flow. `object` names the offending entity ("signal y", "cluster
/// 3", "rr node 1207"); `stage` is the flow stage or artifact linted.
struct Diagnostic {
  std::string rule;
  Severity severity = Severity::kWarning;
  std::string object;
  std::string message;
  std::string stage;
};

/// Collects diagnostics across checkers. Per-rule output is capped so a
/// systemic defect (e.g. every wire unreachable) cannot flood the report;
/// the counts are always exact.
class Report {
 public:
  /// Diagnostics of one rule kept verbatim before suppression kicks in.
  static constexpr int kMaxPerRule = 100;

  /// Stage label stamped onto subsequently added diagnostics.
  void set_stage(std::string stage) { stage_ = std::move(stage); }
  const std::string& stage() const { return stage_; }

  /// Adds a finding for a registered rule (default severity from the
  /// registry). `rule` must exist in rule_registry().
  void add(std::string_view rule, std::string object, std::string message);
  /// Adds a fully specified diagnostic (stage is stamped if empty).
  void add(Diagnostic d);
  void merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  int count(Severity s) const;
  int count_rule(std::string_view rule) const;
  bool has_errors() const { return count(Severity::kError) > 0; }
  /// True if any diagnostic of `rule` was recorded.
  bool fired(std::string_view rule) const { return count_rule(rule) > 0; }

  /// Human-readable report: one line per diagnostic plus a summary line.
  std::string to_text() const;
  /// Machine-readable report: {"diagnostics":[...],"counts":{...}}.
  util::Json to_json() const;

 private:
  std::string stage_;
  std::vector<Diagnostic> diags_;
  // rule id -> total findings (including suppressed ones).
  std::vector<std::pair<std::string, int>> rule_counts_;
  int& rule_count(std::string_view rule);
};

}  // namespace amdrel::lint
