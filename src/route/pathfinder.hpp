#pragma once
// PathFinder negotiated-congestion routing (VPR's router) plus the
// channel-width binary search used for minimum-W experiments.

#include <atomic>
#include <string>
#include <vector>

#include "route/rr_graph.hpp"
#include "util/error.hpp"

namespace amdrel::route {

struct RouteOptions {
  /// RR-graph representation for graphs this router builds itself
  /// (`minimum_channel_width` probes). Graphs passed in by the caller
  /// carry their own options.
  RrOptions rr;
  /// Congestion-driven incremental rerouting: after the first iteration,
  /// rip up and reroute only nets that touch overused RR nodes (legal nets
  /// keep their trees and occupancy). Also enables the warm-started,
  /// wave-parallel minimum-channel-width search. false = the full
  /// rip-up-everything oracle with a sequential cold-start width search.
  bool incremental = true;
  /// Incremental mode: give up early when the overused-node count has not
  /// improved for this many iterations (0 = run the whole iteration
  /// budget).
  /// `minimum_channel_width` enables this for its exploratory probes so
  /// clearly-infeasible widths cost a handful of iterations, not the full
  /// budget; the final oracle confirmation never aborts early.
  int stall_window = 0;
  /// Width of the speculative probe waves of `minimum_channel_width`:
  /// how many of the probes the one-at-a-time search would run next are
  /// run at once, on the process-wide executor (`ThreadPool::shared()`)
  /// and the calling thread. Slots a narrowing wave leaves free start the
  /// final walk's cold probes early. 0 = the executor's size; 1 = one
  /// probe at a time, nothing started early. Verdicts are consumed in the
  /// one-at-a-time order, so the search result never depends on it.
  int probe_threads = 0;
  /// Cooperative cancellation flag (not owned; may be set from another
  /// thread). Checked once per PathFinder iteration, by every probe of a
  /// min-W wave, and before each min-W wave: when it reads true,
  /// `route_all` and `minimum_channel_width` throw CancelledError from the
  /// calling thread (after the wave's probes have stopped) instead of
  /// returning a result. nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

/// The routing of one net: a tree of RR nodes (parent edges).
struct NetRoute {
  std::vector<int> nodes;              ///< all nodes used (tree order)
  std::vector<int> parent;             ///< parent[i] index into `nodes`, -1=root
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  std::vector<NetRoute> routes;        ///< per placement-net
  int total_wire_nodes = 0;            ///< wire segments used
  int nets_rerouted = 0;               ///< nets the wavefront actually routed
  std::string message;
};

/// Routes all placement nets on the given RR graph. An incremental run
/// that ends its whole iteration budget congested is rerun cold on the
/// same graph (counted on `route.cold_retries`), so the cold router has
/// the last word on whether a width routes. A run that `stall_window`
/// stopped early is not rerun.
RouteResult route_all(const RrGraph& graph, const place::Placement& placement,
                      const RouteOptions& options = {});

/// ECO warm start: routes with per-net seed trees from a previous compile.
/// Nets whose `dirty` flag is clear and whose seed is non-empty start
/// committed (tree + occupancy) and skip the first routing pass; the
/// normal congestion-driven negotiation still rips any of them up if a
/// dirty net needs their resources. `seeds`/`dirty` are indexed by
/// placement-net, in this graph's node ids. Always runs the incremental
/// (partial rip-up) scheduler.
RouteResult route_seeded(const RrGraph& graph,
                         const place::Placement& placement,
                         const std::vector<NetRoute>& seeds,
                         const std::vector<char>& dirty,
                         const RouteOptions& options = {});

/// Binary-searches the minimum channel width that routes successfully.
/// Returns the width and fills `result` with the routing at that width.
int minimum_channel_width(const place::Placement& placement,
                          const arch::ArchSpec& spec, RouteResult* result,
                          const RouteOptions& options = {}, int w_min = 4,
                          int w_max = 128);

/// The routing legality invariants, numbered after the lint rules that
/// report them (FL301–FL303).
enum class RouteInvariant {
  kOveruse = 301,       ///< an RR node used beyond its capacity
  kDisconnected = 302,  ///< not an OPIN-rooted tree reaching every sink
  kBadEdge = 303,       ///< a tree edge, or node, absent from the RR graph
};
using RouteViolation = Violation<RouteInvariant>;

/// Every violated routing invariant; empty for a legal routing.
std::vector<RouteViolation> routing_violations(const RrGraph& graph,
                                               const RouteResult& result);

/// Verifies a successful result: throws Error naming the first of
/// routing_violations().
void verify_routing(const RrGraph& graph, const RouteResult& result);

}  // namespace amdrel::route
