#include "lint/flow_rules.hpp"

#include "netlist/simulate.hpp"
#include "util/strings.hpp"

namespace amdrel::lint {

namespace {

/// Each layer owns its legality check (PackedNetlist::violations,
/// Placement::violations, route::routing_violations) and numbers its
/// invariant kinds after their rules, so lint only names the violations:
/// PackInvariant::kClusterSize (101) is FL101.
template <typename Kind>
void add_all(const std::vector<Violation<Kind>>& found, Report* report) {
  for (const Violation<Kind>& v : found) {
    report->add(strprintf("FL%d", static_cast<int>(v.kind)), v.object,
                v.message);
  }
}

}  // namespace

void check_post_pack(const pack::PackedNetlist& packed, Report* report) {
  add_all(packed.violations(), report);
}

void check_post_place(const place::Placement& placement, Report* report) {
  add_all(placement.violations(), report);
}

void check_post_route(const route::RrGraph& graph,
                      const route::RouteResult& routing, Report* report) {
  add_all(route::routing_violations(graph, routing), report);
}

void check_post_bitgen(const std::vector<std::uint8_t>& bytes,
                       const netlist::Network& mapped, Report* report) {
  bitgen::Bitstream reparsed;
  try {
    reparsed = bitgen::deserialize(bytes);
  } catch (const std::exception& e) {
    report->add(rules::kBitgenMalformed, "bitstream",
                std::string("deserialize failed: ") + e.what());
    return;
  }
  netlist::Network fabric;
  try {
    fabric = bitgen::decode_to_network(reparsed);
  } catch (const std::exception& e) {
    report->add(rules::kBitgenMalformed, "bitstream",
                std::string("decode failed: ") + e.what());
    return;
  }
  const netlist::RandomBudget& budget = netlist::kHandoffRandomBudget;
  const auto equiv =
      netlist::check_equivalence(mapped, fabric, budget.runs, budget.cycles);
  if (!equiv.equivalent) {
    report->add(rules::kBitgenRoundtrip, "bitstream",
                "decoded fabric is not equivalent to the mapped netlist: " +
                    equiv.message);
  }
}

}  // namespace amdrel::lint
