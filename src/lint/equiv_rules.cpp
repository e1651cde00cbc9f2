#include "lint/equiv_rules.hpp"

#include <string>
#include <utility>

#include "netlist/simulate.hpp"

namespace amdrel::lint {

namespace {

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

/// The checker's one-line verdicts are stable API (tests match on them);
/// route each failure class to its EQ rule.
void report_formal(const verify::EquivResult& result, Report* report) {
  switch (result.status) {
    case verify::EquivStatus::kEquivalent:
      return;
    case verify::EquivStatus::kNotEquivalent: {
      if (contains(result.message, "name sets differ")) {
        report->add(rules::kEqInterface, "", result.message);
        return;
      }
      std::string object;
      std::string message = result.message;
      if (result.cex.has_value()) {
        object = result.cex->diverging_output;
        message += '\n';
        message += result.cex->to_text();
      }
      report->add(rules::kEqMiterSat, std::move(object), std::move(message));
      return;
    }
    case verify::EquivStatus::kUnknown:
      if (contains(result.message, "register")) {
        report->add(rules::kEqRegisterMatch, "", result.message);
      } else {
        report->add(rules::kEqInconclusive, "", result.message);
      }
      return;
  }
}

}  // namespace

verify::EquivResult check_equivalence_pair(const netlist::Network& a,
                                           const netlist::Network& b,
                                           const EquivCheckOptions& options,
                                           Report* report) {
  if (options.run_random) {
    const netlist::RandomBudget& budget = netlist::kHandoffRandomBudget;
    const netlist::EquivalenceResult r = netlist::check_equivalence(
        a, b, budget.runs, budget.cycles, options.formal.seed);
    if (!r.equivalent) report->add(rules::kEqRandomMismatch, "", r.message);
  }
  verify::EquivResult result = verify::prove_equivalence(a, b, options.formal);
  report_formal(result, report);
  return result;
}

}  // namespace amdrel::lint
