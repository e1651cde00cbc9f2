#pragma once
// Flow invariant checks — the post-stage diagnostics of the CAD pipeline.
// Pack, place and route legality live in their layers
// (PackedNetlist::violations, Placement::violations,
// route::routing_violations); these checks report every violation as a
// lint diagnostic instead of throwing. The bitgen check is lint's own.
//
// Rules: FL1xx post-pack, FL2xx post-place, FL3xx post-route, FL4xx
// post-bitgen (serialize/decode roundtrip).

#include <cstdint>
#include <vector>

#include "bitgen/bitstream.hpp"
#include "lint/lint.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/pathfinder.hpp"
#include "route/rr_graph.hpp"

namespace amdrel::lint {

/// Post-pack: every cluster within N/I/one-clock, every LUT/FF/BLE
/// packed exactly once.
void check_post_pack(const pack::PackedNetlist& packed, Report* report);

/// Post-place: all blocks on legal locations, no two blocks co-located.
void check_post_place(const place::Placement& placement, Report* report);

/// Post-route: every net a connected OPIN-rooted tree over real RR
/// edges reaching all sinks; no RR node beyond capacity.
void check_post_route(const route::RrGraph& graph,
                      const route::RouteResult& routing, Report* report);

/// Post-bitgen: the serialized bitstream deserializes and decodes back
/// to a netlist sequentially equivalent to the mapped design.
void check_post_bitgen(const std::vector<std::uint8_t>& bytes,
                       const netlist::Network& mapped, Report* report);

}  // namespace amdrel::lint
