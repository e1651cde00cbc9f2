#include "lint/lint.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::lint {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRegistry = {
      // netlist
      {rules::kCombCycle, Severity::kError, "netlist",
       "combinational cycle through LUTs/gates"},
      {rules::kMultiDriven, Severity::kError, "netlist",
       "signal driven by more than one source"},
      {rules::kUndrivenSignal, Severity::kError, "netlist",
       "used signal has no driver (floating input)"},
      {rules::kDanglingOutput, Severity::kWarning, "netlist",
       "driven signal has no reader and is not a primary output"},
      {rules::kConstantLut, Severity::kWarning, "netlist",
       "LUT is constant or ignores one of its connected inputs"},
      {rules::kDuplicateLut, Severity::kWarning, "netlist",
       "two LUTs compute the same function of the same inputs"},
      {rules::kClockSanity, Severity::kWarning, "netlist",
       "clock gated by logic, used as data, or multiple clock domains"},
      {rules::kUnusedInput, Severity::kInfo, "netlist",
       "primary input drives nothing"},
      // rr-graph
      {rules::kRrUnreachable, Severity::kWarning, "rr-graph",
       "non-source RR node has no incoming edge"},
      {rules::kRrChannelWidth, Severity::kError, "rr-graph",
       "channel track count or track index inconsistent with W"},
      {rules::kRrAsymmetricSwitch, Severity::kWarning, "rr-graph",
       "wire-wire switch present in one direction only"},
      {rules::kRrZeroFanoutWire, Severity::kWarning, "rr-graph",
       "channel wire with no outgoing switch"},
      {rules::kRrInvalidEdge, Severity::kError, "rr-graph",
       "edge to a nonexistent node, self-loop, or duplicate edge"},
      // flow invariants
      {rules::kPackClusterSize, Severity::kError, "flow",
       "cluster holds more than N BLEs"},
      {rules::kPackClusterInputs, Severity::kError, "flow",
       "cluster uses more than I external inputs"},
      {rules::kPackClusterClock, Severity::kError, "flow",
       "cluster mixes more than one clock"},
      {rules::kPackCoverage, Severity::kError, "flow",
       "LUT, FF or BLE not packed exactly once"},
      {rules::kPlaceOverlap, Severity::kError, "flow",
       "two blocks placed at the same location"},
      {rules::kPlaceOffGrid, Severity::kError, "flow",
       "block placed outside its legal region"},
      {rules::kRouteOveruse, Severity::kError, "flow",
       "RR node used beyond its capacity"},
      {rules::kRouteDisconnected, Severity::kError, "flow",
       "net route is not a connected source-to-sinks tree"},
      {rules::kRouteBadEdge, Severity::kError, "flow",
       "net route uses an edge absent from the RR graph"},
      {rules::kBitgenRoundtrip, Severity::kError, "flow",
       "bitstream does not decode back to the routed configuration"},
      {rules::kBitgenMalformed, Severity::kError, "flow",
       "bitstream fails to deserialize or is internally inconsistent"},
      // formal equivalence
      {rules::kEqMiterSat, Severity::kError, "equiv",
       "formal miter satisfiable: designs provably differ"},
      {rules::kEqInconclusive, Severity::kWarning, "equiv",
       "equivalence proof inconclusive within the solver budget"},
      {rules::kEqInterface, Severity::kError, "equiv",
       "primary input/output interfaces do not match"},
      {rules::kEqRegisterMatch, Severity::kError, "equiv",
       "registers cannot be matched across the two designs"},
      {rules::kEqRandomMismatch, Severity::kError, "equiv",
       "random simulation vectors produce diverging outputs"},
  };
  return kRegistry;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& r : rule_registry()) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

int& Report::rule_count(std::string_view rule) {
  for (auto& [id, n] : rule_counts_) {
    if (id == rule) return n;
  }
  rule_counts_.emplace_back(std::string(rule), 0);
  return rule_counts_.back().second;
}

void Report::add(std::string_view rule, std::string object,
                 std::string message) {
  const RuleInfo* info = find_rule(rule);
  AMDREL_CHECK_MSG(info != nullptr,
                   "unregistered lint rule: " + std::string(rule));
  Diagnostic d;
  d.rule = info->id;
  d.severity = info->severity;
  d.object = std::move(object);
  d.message = std::move(message);
  add(std::move(d));
}

void Report::add(Diagnostic d) {
  if (d.stage.empty()) d.stage = stage_;
  int& n = rule_count(d.rule);
  ++n;
  if (n > kMaxPerRule) return;  // counted, not stored
  if (n == kMaxPerRule) {
    d.message += " [further findings of this rule suppressed]";
  }
  diags_.push_back(std::move(d));
}

void Report::merge(const Report& other) {
  for (const Diagnostic& d : other.diags_) {
    Diagnostic copy = d;
    int& n = rule_count(copy.rule);
    ++n;
    if (n > kMaxPerRule) continue;
    diags_.push_back(std::move(copy));
  }
}

int Report::count(Severity s) const {
  return static_cast<int>(
      std::count_if(diags_.begin(), diags_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

int Report::count_rule(std::string_view rule) const {
  for (const auto& [id, n] : rule_counts_) {
    if (id == rule) return n;
  }
  return 0;
}

std::string Report::to_text() const {
  std::ostringstream os;
  for (const Diagnostic& d : diags_) {
    os << severity_name(d.severity) << " [" << d.rule << "]";
    if (!d.stage.empty()) os << " (" << d.stage << ")";
    if (!d.object.empty()) os << " " << d.object << ":";
    os << " " << d.message << "\n";
  }
  os << strprintf("%d error(s), %d warning(s), %d note(s)\n",
                  count(Severity::kError), count(Severity::kWarning),
                  count(Severity::kInfo));
  return os.str();
}

util::Json Report::to_json() const {
  util::Json diags = util::Json::make_array();
  for (const Diagnostic& d : diags_) {
    util::Json j = util::Json::make_object();
    j.set("rule", d.rule);
    j.set("severity", severity_name(d.severity));
    j.set("object", d.object);
    j.set("message", d.message);
    j.set("stage", d.stage);
    diags.push_back(std::move(j));
  }
  util::Json counts = util::Json::make_object();
  counts.set("error", count(Severity::kError));
  counts.set("warning", count(Severity::kWarning));
  counts.set("info", count(Severity::kInfo));
  util::Json out = util::Json::make_object();
  out.set("diagnostics", std::move(diags));
  out.set("counts", std::move(counts));
  return out;
}

}  // namespace amdrel::lint
