#include "route/pathfinder.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <set>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace amdrel::route {

namespace {

struct HeapEntry {
  double cost;        // path cost + A* estimate
  int node;
};

/// Min-heap order for std::push_heap/std::pop_heap.
bool heap_later(const HeapEntry& a, const HeapEntry& b) {
  return a.cost > b.cost;
}

/// History cost added per unit of overuse each iteration (VPR's history
/// cost factor).
constexpr double kAccFac = 1.0;
/// Weight of the A* distance estimate.
constexpr double kAstarFac = 1.2;
/// PathFinder's negotiation schedule. No caller sets it: every cold run
/// (route_all, every min-W probe) uses kColdSchedule, and route_seeded's
/// two passes use kSpareSchedule and kSeededSchedule.
struct Schedule {
  int max_iterations = 40;
  double first_iter_pres_fac = 0.5;  ///< present-congestion factor, iter 1
  double pres_fac_mult = 1.6;        ///< its growth per iteration
  /// Incremental mode: every Nth iteration rips up and reroutes all nets,
  /// not just congestion-touching ones, so legal nets blocking the only
  /// escape path of a congested net still re-negotiate.
  int refresh_interval = 8;
  /// Treat nodes at capacity as hard obstacles instead of pricing their
  /// overuse: the wavefront never expands into a full node, so any
  /// solution found is overuse-free by construction (and a net with no
  /// path through the spare capacity fails outright instead of stealing
  /// resources).
  bool spare_only = false;
};
constexpr Schedule kColdSchedule{};
/// route_seeded pass 1: one spare-capacity-only iteration, so the seeded
/// clean trees cannot move.
constexpr Schedule kSpareSchedule{.max_iterations = 1, .spare_only = true};
/// route_seeded pass 2: negotiation from the seeds (see route_seeded).
const Schedule kSeededSchedule{
    .max_iterations = 2 * kColdSchedule.max_iterations,
    .first_iter_pres_fac = kColdSchedule.first_iter_pres_fac *
                           std::pow(kColdSchedule.pres_fac_mult, 4.0),
    .pres_fac_mult = kColdSchedule.pres_fac_mult * 1.25,
    .refresh_interval = std::numeric_limits<int>::max()};
/// Scale on the per-tile wire history carried from the last successful
/// width into an exploratory min-W probe (incremental only). The final
/// width is always re-established by cold oracle probes, so the warm
/// start only affects how fast the search narrows, never what it returns.
constexpr double kWarmStartFac = 0.5;

/// Per-tile mean wire history, used to warm-start a probe at one channel
/// width from the congestion map of another (track counts differ between
/// widths, so history transfers per (type, x, y) tile, not per node).
struct SpatialHistory {
  int ny_stride = 0;                    ///< y-extent of the location grid
  std::vector<double> chanx, chany;     ///< mean history per (x, y)
  bool empty() const { return chanx.empty() && chany.empty(); }
  std::size_t cell(int x, int y) const {
    return static_cast<std::size_t>(x * ny_stride + y);
  }
};

SpatialHistory extract_spatial_history(const RrGraph& graph,
                                       const std::vector<double>& history) {
  SpatialHistory s;
  // Only wires carry history, and wire coordinates span (0..nx, 0..ny).
  const int max_x = graph.nx(), max_y = graph.ny();
  s.ny_stride = max_y + 1;
  const std::size_t cells = static_cast<std::size_t>((max_x + 1) * (max_y + 1));
  s.chanx.assign(cells, 0.0);
  s.chany.assign(cells, 0.0);
  std::vector<int> cnt_x(cells, 0), cnt_y(cells, 0);
  const int wires = graph.wire_count();
  for (int id = 0; id < wires; ++id) {
    const std::size_t c = s.cell(graph.node_x(id), graph.node_y(id));
    if (graph.node_type(id) == RrType::kChanX) {
      s.chanx[c] += history[static_cast<std::size_t>(id)];
      ++cnt_x[c];
    } else {
      s.chany[c] += history[static_cast<std::size_t>(id)];
      ++cnt_y[c];
    }
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (cnt_x[c] > 0) s.chanx[c] /= cnt_x[c];
    if (cnt_y[c] > 0) s.chany[c] /= cnt_y[c];
  }
  return s;
}

std::vector<double> history_from_spatial(const SpatialHistory& s,
                                         const RrGraph& graph) {
  std::vector<double> history(static_cast<std::size_t>(graph.num_nodes()),
                              0.0);
  if (s.empty()) return history;
  const std::size_t cells = s.chanx.size();
  const int wires = graph.wire_count();
  for (int id = 0; id < wires; ++id) {
    const int y = graph.node_y(id);
    if (y >= s.ny_stride) continue;
    const std::size_t c = s.cell(graph.node_x(id), y);
    if (c >= cells) continue;
    history[static_cast<std::size_t>(id)] =
        kWarmStartFac * (graph.node_type(id) == RrType::kChanX ? s.chanx[c]
                                                               : s.chany[c]);
  }
  return history;
}

/// One PathFinder run over a fixed RR graph. All per-node state lives in
/// flat vectors keyed by RR node id; the per-net tree/sink sets of the
/// original implementation are epoch-marked slices of those vectors, so
/// the iteration loop allocates nothing after construction.
class PathFinder {
 public:
  /// `stop` (may be null) abandons the run: read where `options.cancel`
  /// is, once per iteration, it ends the run with message "abandoned".
  PathFinder(const RrGraph& graph, const place::Placement& placement,
             const RouteOptions& options, const Schedule& schedule,
             const std::atomic<bool>* stop = nullptr)
      : graph_(&graph),
        options_(&options),
        schedule_(schedule),
        stop_(stop),
        n_nodes_(graph.num_nodes()),
        n_wires_(static_cast<std::size_t>(graph.wire_count())),
        n_nets_(static_cast<int>(placement.nets().size())) {
    const std::size_t nn = static_cast<std::size_t>(n_nodes_);
    occupancy_.assign(nn, 0);
    history_.assign(nn, 0.0);
    net_nodes_.assign(static_cast<std::size_t>(n_nets_), {});
    best_cost_.assign(nn, 0.0);
    visit_mark_.assign(nn, 0);
    done_mark_.assign(nn, 0);
    pred_.assign(nn, -1);
    tree_mark_.assign(nn, 0);
    tree_parent_.assign(nn, -1);
    tree_index_.assign(nn, -1);
    sink_mark_.assign(nn, 0);
    reroute_.assign(static_cast<std::size_t>(n_nets_), 1);

    // Flat SoA mirror of the RR graph. The wavefront touches the type,
    // coordinates, capacity, cost and edges of thousands of nodes per
    // sink; packed parallel arrays keep that loop in cache. The CSR edge
    // list is materialized lazily per fixed-size id region on first
    // touch, so fabric the wavefronts never reach costs ~0 bytes.
    graph.fill_soa(&type_, &x_, &y_, &cap_, &base_hist_, &ipin_sink_);
    regions_.assign((nn + kRegionSize - 1) >> kRegionShift, Region{});

    min_step_cost_ = 1.0;
    for (std::size_t i = 0; i < nn; ++i) {
      if (base_hist_[i] > 0.0) {
        min_step_cost_ = std::min(min_step_cost_, base_hist_[i]);
      }
    }
    astar_mult_ = kAstarFac * min_step_cost_;
  }

  /// ECO warm start: pre-commits `seeds[ni]` (tree + occupancy) for every
  /// net whose `dirty` flag is clear, and exempts those nets from the
  /// first routing pass. Must be called before run().
  void seed(const std::vector<NetRoute>& seeds,
            const std::vector<char>& dirty) {
    AMDREL_CHECK(static_cast<int>(seeds.size()) == n_nets_);
    AMDREL_CHECK(static_cast<int>(dirty.size()) == n_nets_);
    seeds_ = &seeds;
    for (int ni = 0; ni < n_nets_; ++ni) {
      const std::size_t i = static_cast<std::size_t>(ni);
      if (dirty[i] || seeds[i].nodes.empty()) continue;
      net_nodes_[i] = seeds[i].nodes;
      for (int id : seeds[i].nodes) ++occupancy_[static_cast<std::size_t>(id)];
      reroute_[i] = 0;
    }
  }

  RouteResult run(const std::vector<double>* initial_history) {
    obs::Span span("route.pathfinder");
    RouteResult result = run_impl(initial_history);
    result.nets_rerouted = rerouted_nets_;
    if (span.active()) {
      // Which router ran at which width, so a span inside a min-W wave
      // can be tied to its probe (route.minw_probe carries the same pair).
      span.metric("width", graph_->channel_width());
      span.metric("oracle", options_->incremental ? 0.0 : 1.0);
      span.metric("iterations", result.iterations);
      span.metric("ripups", static_cast<double>(ripups_));
      span.metric("overused", last_overused_);
      span.metric("wire_nodes", result.total_wire_nodes);
      span.metric("success", result.success ? 1.0 : 0.0);
    }
    static obs::Counter& c_iters = obs::counter("route.iterations");
    static obs::Counter& c_ripups = obs::counter("route.ripups");
    c_iters.add(static_cast<std::uint64_t>(result.iterations));
    c_ripups.add(static_cast<std::uint64_t>(ripups_));
    return result;
  }

  const std::vector<double>& history() const { return history_; }

 private:
  RouteResult run_impl(const std::vector<double>* initial_history) {
    if (initial_history != nullptr) {
      AMDREL_CHECK(initial_history->size() == history_.size());
      history_ = *initial_history;
      // base_hist_ still holds the pristine base costs here (the ctor
      // filled it and nothing ran yet), so add the history on top.
      for (int id = 0; id < n_nodes_; ++id) {
        base_hist_[static_cast<std::size_t>(id)] +=
            history_[static_cast<std::size_t>(id)];
      }
    }
    RouteResult result;
    result.routes.assign(static_cast<std::size_t>(n_nets_), NetRoute{});
    net_touched_.assign(static_cast<std::size_t>(n_nets_), 0);
    if (seeds_ != nullptr) {
      for (int ni = 0; ni < n_nets_; ++ni) {
        const std::size_t i = static_cast<std::size_t>(ni);
        if (!reroute_[i] && !net_nodes_[i].empty()) {
          result.routes[i] = (*seeds_)[i];
        }
      }
    }

    double pres_fac = schedule_.first_iter_pres_fac;
    int best_overused = std::numeric_limits<int>::max();
    int best_overused_iter = 0;
    over_hist_.clear();
    for (int iter = 1; iter <= schedule_.max_iterations; ++iter) {
      const bool cancel = options_->cancel != nullptr &&
                          options_->cancel->load(std::memory_order_relaxed);
      if (cancel ||
          (stop_ != nullptr && stop_->load(std::memory_order_relaxed))) {
        result.success = false;
        result.iterations = iter - 1;
        result.message = cancel ? "cancelled" : "abandoned";
        return result;
      }
      bool any_unrouted = false;
      for (int ni = 0; ni < n_nets_; ++ni) {
        if (graph_->sinks_of_net(ni).empty()) continue;
        if (!reroute_[static_cast<std::size_t>(ni)]) continue;
        if (!net_touched_[static_cast<std::size_t>(ni)]) {
          net_touched_[static_cast<std::size_t>(ni)] = 1;
          ++rerouted_nets_;
        }
        rip_up(ni);
        if (route_net(ni, pres_fac)) {
          commit(ni, &result.routes[static_cast<std::size_t>(ni)]);
        } else {
          result.routes[static_cast<std::size_t>(ni)] = NetRoute{};
          // spare_only blocks full nodes, so "no path" means "no spare
          // capacity here", not "the graph cannot connect this net" —
          // leave the net unrouted and let the caller negotiate for it.
          if (iter == 1 && !schedule_.spare_only) {
            // No path even with congestion only priced, not blocked: the
            // graph simply cannot connect this net.
            result.success = false;
            result.message =
                strprintf("net %d has no path in the RR graph", ni);
            return result;
          }
          any_unrouted = true;
        }
      }

      // Check for overuse; update history (and the cached base+history
      // cost the wavefront prices nodes with).
      int overused = 0;
      for (int id = 0; id < n_nodes_; ++id) {
        const std::size_t i = static_cast<std::size_t>(id);
        const int over = occupancy_[i] - cap_[i];
        if (over > 0) {
          ++overused;
          history_[i] += kAccFac * over;
          base_hist_[i] += kAccFac * over;
        }
      }
      last_overused_ = overused;
      if (obs::enabled()) {
        obs::point("route.iteration",
                   {{"iter", static_cast<double>(iter)},
                    {"overused", static_cast<double>(overused)}});
      }
      if (overused == 0 && !any_unrouted) {
        result.success = true;
        result.iterations = iter;
        constexpr signed char kCx = static_cast<signed char>(RrType::kChanX);
        constexpr signed char kCy = static_cast<signed char>(RrType::kChanY);
        for (const auto& r : result.routes) {
          for (int id : r.nodes) {
            const signed char t = type_[static_cast<std::size_t>(id)];
            if (t == kCx || t == kCy) {
              ++result.total_wire_nodes;
            }
          }
        }
        return result;
      }
      // Stagnation / projection abort: congestion that stops shrinking —
      // or shrinks too slowly to reach zero within the iteration budget —
      // will not resolve; give the caller the early "no".
      if (overused < best_overused) {
        best_overused = overused;
        best_overused_iter = iter;
      }
      if (options_->incremental && options_->stall_window > 0) {
        over_hist_.push_back(overused);
        const int lb = options_->stall_window;
        bool hopeless = iter - best_overused_iter >= lb;
        if (!hopeless && iter > lb) {
          const double slope =
              static_cast<double>(
                  over_hist_[static_cast<std::size_t>(iter - 1 - lb)] -
                  overused) /
              lb;
          // 15% slack: a late-phase speed-up (pres_fac growth) can beat a
          // linear projection; a wrongly aborted feasible width costs the
          // caller one extra oracle probe, never the result.
          hopeless = slope > 0.0 && iter + overused / slope >
                                        1.15 * schedule_.max_iterations;
        }
        if (hopeless) {
          result.success = false;
          result.iterations = iter;
          result.message = "congestion stalled";
          return result;
        }
      }
      pres_fac *= schedule_.pres_fac_mult;
      mark_nets_to_reroute(iter + 1);
    }
    result.success = false;
    result.iterations = schedule_.max_iterations;
    result.message = "congestion did not resolve";
    return result;
  }

  double node_cost(int id, double pres) const {
    const std::size_t i = static_cast<std::size_t>(id);
    double cost = base_hist_[i];
    const int over = occupancy_[i] + 1 - cap_[i];
    if (over > 0) cost *= (1.0 + over * pres);
    return cost;
  }

  void rip_up(int ni) {
    if (!net_nodes_[static_cast<std::size_t>(ni)].empty()) ++ripups_;
    for (int id : net_nodes_[static_cast<std::size_t>(ni)]) {
      --occupancy_[static_cast<std::size_t>(id)];
    }
    net_nodes_[static_cast<std::size_t>(ni)].clear();
  }

  void commit(int ni, NetRoute* route) {
    route->nodes = tree_nodes_;
    route->parent.assign(tree_nodes_.size(), -1);
    for (std::size_t k = 0; k < tree_nodes_.size(); ++k) {
      const int p = tree_parent_[static_cast<std::size_t>(tree_nodes_[k])];
      route->parent[k] = (p < 0) ? -1 : tree_index_[static_cast<std::size_t>(p)];
    }
    for (int id : tree_nodes_) ++occupancy_[static_cast<std::size_t>(id)];
    net_nodes_[static_cast<std::size_t>(ni)] = route->nodes;
  }

  /// Congestion-driven selection: only nets whose committed tree touches
  /// an overused node (or that are still unrouted) go around again.
  /// Every `refresh_interval` iterations everything reroutes: legal nets
  /// sitting on a congested net's only escape path never show up as
  /// overused themselves, so a periodic full re-negotiation is what keeps
  /// the incremental router's achievable channel width at the oracle's.
  void mark_nets_to_reroute(int next_iter) {
    if (!options_->incremental ||
        next_iter % schedule_.refresh_interval == 0) {
      std::fill(reroute_.begin(), reroute_.end(), 1);
      return;
    }
    for (int ni = 0; ni < n_nets_; ++ni) {
      const auto& tree = net_nodes_[static_cast<std::size_t>(ni)];
      if (graph_->sinks_of_net(ni).empty()) {
        reroute_[static_cast<std::size_t>(ni)] = 0;
        continue;
      }
      char again = tree.empty() ? 1 : 0;
      for (std::size_t k = 0; !again && k < tree.size(); ++k) {
        const std::size_t id = static_cast<std::size_t>(tree[k]);
        if (occupancy_[id] > cap_[id]) again = 1;
      }
      reroute_[static_cast<std::size_t>(ni)] = again;
    }
  }

  void add_tree_node(int id, int parent) {
    tree_mark_[static_cast<std::size_t>(id)] = net_token_;
    tree_parent_[static_cast<std::size_t>(id)] = parent;
    tree_index_[static_cast<std::size_t>(id)] =
        static_cast<int>(tree_nodes_.size());
    tree_nodes_.push_back(id);
    // Maintain the per-sink nearest-tree-node distance incrementally (the
    // original rescanned tree × sinks before every wavefront).
    const int tx = x_[static_cast<std::size_t>(id)];
    const int ty = y_[static_cast<std::size_t>(id)];
    for (std::size_t k = 0; k < sink_x_.size(); ++k) {
      if (sink_done_[k]) continue;
      const int d = std::abs(tx - sink_x_[k]) + std::abs(ty - sink_y_[k]);
      if (d < sink_dist_[k]) sink_dist_[k] = d;
    }
  }

  bool route_net(int ni, double pres_fac) {
    const auto& sinks = graph_->sinks_of_net(ni);
    const int source = graph_->opin_of_net(ni);

    ++net_token_;
    const std::size_t n_sinks = sinks.size();
    sink_x_.assign(n_sinks, 0);
    sink_y_.assign(n_sinks, 0);
    sink_dist_.assign(n_sinks, std::numeric_limits<int>::max());
    sink_done_.assign(n_sinks, 0);
    for (std::size_t k = 0; k < n_sinks; ++k) {
      const std::size_t s = static_cast<std::size_t>(sinks[k]);
      sink_x_[k] = x_[s];
      sink_y_[k] = y_[s];
      sink_mark_[s] = net_token_;
    }
    tree_nodes_.clear();
    add_tree_node(source, -1);

    constexpr signed char kSinkT = static_cast<signed char>(RrType::kSink);
    constexpr signed char kIpinT = static_cast<signed char>(RrType::kIpin);

    std::size_t routed = 0;
    while (routed < n_sinks) {
      // A* target: the remaining sink nearest the current route tree —
      // the sink this wavefront is most likely to reach first, which
      // keeps the estimate tight instead of steering toward an
      // arbitrary (possibly far) sink.
      std::size_t target_k = 0;
      int best_d = std::numeric_limits<int>::max();
      for (std::size_t k = 0; k < n_sinks; ++k) {
        if (!sink_done_[k] && sink_dist_[k] < best_d) {
          best_d = sink_dist_[k];
          target_k = k;
        }
      }
      const int tx = sink_x_[target_k];
      const int ty = sink_y_[target_k];

      // Wavefront with push-time relaxation: tentative cost and
      // predecessor are recorded when a node is pushed, so a node enters
      // the heap only when the new path improves on its best known cost,
      // and heap entries carry just the sort key. A node finalizes at
      // its first pop; a later cheaper arrival (possible because the
      // directed estimate overweights distance at kAstarFac > 1) clears
      // the finalized flag so the node expands again.
      ++visit_token_;
      heap_.clear();
      for (int id : tree_nodes_) {
        const std::size_t i = static_cast<std::size_t>(id);
        visit_mark_[i] = visit_token_;
        done_mark_[i] = 0;
        best_cost_[i] = 0.0;
        pred_[i] = -1;
        heap_.push_back(HeapEntry{
            astar_mult_ * (std::abs(x_[i] - tx) + std::abs(y_[i] - ty)),
            id});
      }
      std::make_heap(heap_.begin(), heap_.end(), heap_later);

      int found_sink = -1;
      while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), heap_later);
        const int u = heap_.back().node;
        heap_.pop_back();
        const std::size_t ui = static_cast<std::size_t>(u);
        if (done_mark_[ui] == visit_token_) continue;
        done_mark_[ui] = visit_token_;

        if (type_[ui] == kSinkT) {
          if (sink_mark_[ui] == net_token_) {
            found_sink = u;
            break;
          }
          continue;  // someone else's sink: don't expand through it
        }
        const double pc = best_cost_[ui];
        const Region& ru = region(u >> kRegionShift);
        const int lu = u & (kRegionSize - 1);
        const int e_end = ru.off[static_cast<std::size_t>(lu + 1)];
        for (int e = ru.off[static_cast<std::size_t>(lu)]; e < e_end; ++e) {
          const int next = ru.dst[static_cast<std::size_t>(e)];
          const std::size_t vi = static_cast<std::size_t>(next);
          // Never route through another block's IPIN chain: an IPIN only
          // leads to its sink, so expanding it is harmless but wasteful;
          // skip IPINs whose sink is not wanted.
          if (type_[vi] == kIpinT &&
              sink_mark_[static_cast<std::size_t>(ipin_sink_[vi - n_wires_])] !=
                  net_token_) {
            continue;
          }
          if (schedule_.spare_only && occupancy_[vi] >= cap_[vi]) {
            continue;  // full node is an obstacle, not a price
          }
          const double c = pc + node_cost(next, pres_fac);
          if (visit_mark_[vi] == visit_token_ && best_cost_[vi] <= c) {
            continue;
          }
          visit_mark_[vi] = visit_token_;
          done_mark_[vi] = 0;
          best_cost_[vi] = c;
          pred_[vi] = u;
          heap_.push_back(HeapEntry{
              c + astar_mult_ * (std::abs(x_[vi] - tx) + std::abs(y_[vi] - ty)),
              next});
          std::push_heap(heap_.begin(), heap_.end(), heap_later);
        }
      }
      if (found_sink < 0) return false;

      // Trace back; add path to tree.
      sink_mark_[static_cast<std::size_t>(found_sink)] = 0;
      for (std::size_t k = 0; k < n_sinks; ++k) {
        if (!sink_done_[k] && sinks[k] == found_sink) {
          sink_done_[k] = 1;
          ++routed;
        }
      }
      path_.clear();
      int cur = found_sink;
      while (cur != -1 &&
             tree_mark_[static_cast<std::size_t>(cur)] != net_token_) {
        path_.push_back(cur);
        cur = pred_[static_cast<std::size_t>(cur)];
      }
      AMDREL_CHECK_MSG(cur != -1, "trace-back lost the route tree");
      int attach = cur;
      for (auto it = path_.rbegin(); it != path_.rend(); ++it) {
        add_tree_node(*it, attach);
        attach = *it;
      }
    }
    return true;
  }

  const RrGraph* graph_;
  const RouteOptions* options_;
  const Schedule schedule_;
  const std::atomic<bool>* stop_;  ///< min-W wave abandonment (may be null)
  int n_nodes_ = 0;
  std::size_t n_wires_ = 0;  ///< wire node ids are [0, n_wires_)
  int n_nets_ = 0;
  const std::vector<NetRoute>* seeds_ = nullptr;  ///< ECO warm-start trees
  std::vector<char> net_touched_;  ///< seeded runs: net was ever rerouted
  int rerouted_nets_ = 0;   ///< distinct nets the wavefront routed
  long long ripups_ = 0;    ///< committed trees torn up (obs)
  int last_overused_ = 0;   ///< overused count of the last iteration (obs)
  double min_step_cost_ = 1.0;
  double astar_mult_ = 1.0;   ///< kAstarFac × min_step_cost (A* estimate)

  // One lazily-materialized CSR block of the RR edge list: kRegionSize
  // consecutive node ids, built from the graph's pattern stamps on the
  // first wavefront touch. Regions the routing never reaches stay empty.
  struct Region {
    std::vector<int> off;  ///< local CSR offsets (size + 1 when built)
    std::vector<int> dst;  ///< edge targets (global node ids)
  };
  static constexpr int kRegionShift = 12;
  static constexpr int kRegionSize = 1 << kRegionShift;

  const Region& region(int r) {
    Region& reg = regions_[static_cast<std::size_t>(r)];
    if (reg.off.empty()) {
      const int lo = r << kRegionShift;
      const int hi = std::min(n_nodes_, lo + kRegionSize);
      reg.off.reserve(static_cast<std::size_t>(hi - lo) + 1);
      reg.off.push_back(0);
      for (int id = lo; id < hi; ++id) {
        graph_->append_out_edges(id, &reg.dst);
        reg.off.push_back(static_cast<int>(reg.dst.size()));
      }
      static obs::Counter& c_edges = obs::counter("rr.edges_materialized");
      c_edges.add(reg.dst.size());
    }
    return reg;
  }

  // Flat SoA mirror of the RR graph (see constructor).
  std::vector<signed char> type_;
  std::vector<short> x_, y_;
  std::vector<short> cap_;
  std::vector<double> base_hist_;  ///< base_cost + history, kept in sync
  std::vector<int> ipin_sink_;     ///< by id - n_wires_: an IPIN's SINK
  std::vector<Region> regions_;    ///< lazy CSR edge blocks

  // Persistent per-node routing state.
  std::vector<int> occupancy_;
  std::vector<double> history_;
  std::vector<std::vector<int>> net_nodes_;  ///< committed tree per net
  std::vector<char> reroute_;                ///< nets to rip up this iteration

  // Wavefront scratch, epoch-marked by visit_token_.
  std::vector<double> best_cost_;  ///< best known path cost (set on push)
  std::vector<int> visit_mark_;    ///< node has a tentative cost this front
  std::vector<int> done_mark_;     ///< node was expanded this wavefront
  std::vector<int> pred_;
  int visit_token_ = 0;

  // Per-net tree scratch, epoch-marked by net_token_ (replaces the
  // per-net std::map tree_parent / std::set remaining / std::map index_of).
  std::vector<int> tree_mark_;
  std::vector<int> tree_parent_;  ///< parent node id (valid when marked)
  std::vector<int> tree_index_;   ///< index in tree_nodes_ (valid when marked)
  std::vector<int> sink_mark_;    ///< node is a still-unrouted sink of this net
  int net_token_ = 0;

  // Reused buffers (allocation-quiet inner loop).
  std::vector<HeapEntry> heap_;
  std::vector<int> path_;
  std::vector<int> tree_nodes_;
  std::vector<int> sink_x_, sink_y_;
  std::vector<int> sink_dist_;    ///< per-sink nearest tree-node distance
  std::vector<char> sink_done_;
  std::vector<int> over_hist_;    ///< overused count per iteration (abort)
};

RouteResult route_with_history(const RrGraph& graph,
                               const place::Placement& placement,
                               const RouteOptions& options,
                               const std::vector<double>* initial_history,
                               SpatialHistory* out_spatial,
                               const std::atomic<bool>* stop = nullptr) {
  PathFinder pf(graph, placement, options, kColdSchedule, stop);
  RouteResult result = pf.run(initial_history);
  if (out_spatial != nullptr) {
    *out_spatial = extract_spatial_history(graph, pf.history());
  }
  return result;
}

/// True when the caller-provided cancellation flag is raised.
bool cancelled(const RouteOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

/// Probe tallies of one min-W search, reported on its route.minw_search
/// span.
struct SearchStats {
  long long probes = 0;          ///< verdicts consumed
  long long spec_probes = 0;     ///< probes launched in waves or the table
  long long spec_abandoned = 0;  ///< launched probes whose verdict went unread
  long long spec_cold = 0;       ///< cold probes started in narrowing waves
  long long spec_cold_read = 0;  ///< ... whose verdict the walk read
};

/// Records one consumed probe verdict for the trace. Called on the search
/// thread only, in the sequential search's order, so the verdict sequence
/// is deterministic.
void note_probe(int width, const RouteResult& result, bool oracle,
                SearchStats* stats) {
  ++stats->probes;
  static obs::Counter& c_probes = obs::counter("route.minw_probes");
  c_probes.add(1);
  if (obs::enabled()) {
    obs::point("route.minw_probe",
               {{"width", static_cast<double>(width)},
                {"success", result.success ? 1.0 : 0.0},
                {"iterations", static_cast<double>(result.iterations)},
                {"oracle", oracle ? 1.0 : 0.0}});
  }
}

void throw_if_cancelled(const RouteOptions& options) {
  if (cancelled(options)) {
    throw CancelledError("minimum channel width search cancelled");
  }
}

struct ProbeOutcome {
  RouteResult result;
  SpatialHistory spatial;  ///< the history the explorer probe ended with
  std::exception_ptr error;
};

/// Runs single min-W probes. Read-only, so every thread of a search shares
/// one.
struct Prober {
  const place::Placement* placement;
  const arch::ArchSpec* spec;
  RouteOptions explore;  ///< incremental router with a stagnation abort
  RouteOptions oracle;   ///< cold rip-up-everything router, whole budget

  Prober(const place::Placement& p, const arch::ArchSpec& s,
         const RouteOptions& options)
      : placement(&p), spec(&s), explore(options), oracle(options) {
    if (explore.stall_window <= 0) explore.stall_window = 10;
    oracle.incremental = false;
    oracle.stall_window = 0;
  }

  /// The reference feasibility test: full rip-up every iteration, whole
  /// budget. The incremental search always gives it the last word on the
  /// final boundary.
  RouteResult oracle_probe(int w, const std::atomic<bool>* stop) const {
    RrGraph graph(*placement, *spec, w, oracle.rr);
    return route_with_history(graph, *placement, oracle, nullptr, nullptr,
                              stop);
  }

  /// An exploratory probe, warm-started from `warm` (empty = cold).
  RouteResult explore_probe(int w, const SpatialHistory& warm,
                            SpatialHistory* spatial_out,
                            const std::atomic<bool>* stop) const {
    RrGraph graph(*placement, *spec, w, explore.rr);
    std::vector<double> init;
    if (!warm.empty()) init = history_from_spatial(warm, graph);
    return route_with_history(graph, *placement, explore,
                              init.empty() ? nullptr : &init, spatial_out,
                              stop);
  }
};

/// A speculative explorer wave: the next probes the sequential search would
/// run while every verdict is "no" (a stretch of the doubling sequence, or
/// a narrowing failure chain), run at once on the process-wide executor and
/// the calling thread, and read back by index in the sequential order.
/// Each probe is a pure function of its width and warm start, so a read
/// verdict is exactly the sequential one. The first success makes every
/// later probe unreadable, and those are abandoned through their stop
/// flags. Constructing a wave is a cancellation point; destroying it
/// abandons every unread probe and waits for the wave's own probes only,
/// never for the executor's other work.
class ProbeWave {
 public:
  ProbeWave(const Prober& prober, std::vector<int> widths, SpatialHistory warm,
            SearchStats* stats)
      : stats_(stats) {
    throw_if_cancelled(prober.explore);
    const std::size_t n = widths.size();
    state_ = std::make_shared<State>(n);
    state_->prober = &prober;
    state_->widths = std::move(widths);
    state_->warm = std::move(warm);
    state_->attribution = obs::attribution();
    stats_->spec_probes += static_cast<long long>(n);
    static obs::Counter& c_spec = obs::counter("route.minw_spec_probes");
    c_spec.add(n);
    // The executor lends at most one thread per probe, and the calling
    // thread runs the probes it waits for if no helper has claimed them
    // (a lone probe it runs itself). A helper that starts after the wave
    // is over finds nothing to claim and only drops its reference.
    if (n > 1) {
      ThreadPool& pool = ThreadPool::shared();
      for (std::size_t k = 0; k < std::min(n, pool.size()); ++k) {
        pool.submit([state = state_] {
          while (state->run_next(kAnyProbe)) {
          }
        });
      }
    }
  }

  ~ProbeWave() {
    State& s = *state_;
    for (auto& stop : s.stop) stop.store(true);
    while (s.run_next(kAnyProbe)) {
    }
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.cv.wait(lock, [&] { return s.finished == s.widths.size(); });
    }
    s.out = {};  // late helpers may hold the state a while
    const std::size_t abandoned = s.widths.size() - consumed_;
    stats_->spec_abandoned += static_cast<long long>(abandoned);
    static obs::Counter& c_abandoned =
        obs::counter("route.minw_spec_abandoned");
    c_abandoned.add(abandoned);
  }

  ProbeWave(const ProbeWave&) = delete;
  ProbeWave& operator=(const ProbeWave&) = delete;

  /// Blocks until probe `i` has finished and hands it to the sequential
  /// search. Meanwhile the calling thread runs unclaimed probes at or
  /// before `i` only: a later one may be doomed speculation, and the
  /// verdict it waits for may be ready long before that probe ends.
  /// Throws CancelledError when the search was cancelled, and rethrows
  /// the probe's own error.
  ProbeOutcome& read(std::size_t i) {
    State& s = *state_;
    std::unique_lock<std::mutex> lock(s.mu);
    while (!s.done[i]) {
      lock.unlock();
      const bool ran = s.run_next(i);
      lock.lock();
      if (!ran) s.cv.wait(lock, [&] { return s.done[i] != 0; });
    }
    lock.unlock();
    throw_if_cancelled(s.prober->explore);
    if (s.out[i].error) std::rethrow_exception(s.out[i].error);
    ++consumed_;
    return s.out[i];
  }

 private:
  static constexpr std::size_t kAnyProbe = static_cast<std::size_t>(-1);

  /// Shared with the executor tasks, which may outlive the wave object.
  struct State {
    explicit State(std::size_t n) : out(n), stop(n), done(n, 0) {}

    const Prober* prober = nullptr;  ///< dereferenced only by claimed probes
    std::vector<int> widths;
    SpatialHistory warm;            ///< explorer warm start (empty = cold)
    obs::Attribution attribution;   ///< the searching thread's
    std::vector<ProbeOutcome> out;
    std::vector<std::atomic<bool>> stop;
    std::atomic<std::size_t> next{0};  ///< next unclaimed probe
    std::mutex mu;
    std::condition_variable cv;
    std::vector<char> done;    ///< guarded by mu
    std::size_t finished = 0;  ///< guarded by mu: the wave's latch

    /// Claims and runs the next unclaimed probe if its index is at most
    /// `limit`; a success abandons every later probe. False when no such
    /// probe was left to claim.
    bool run_next(std::size_t limit) {
      std::size_t i = next.load();
      do {
        if (i >= widths.size() || i > limit) return false;
      } while (!next.compare_exchange_weak(i, i + 1));
      if (stop[i].load()) {
        out[i].result.message = "abandoned";
      } else {
        obs::ScopedAttribution as_searcher(attribution);
        try {
          out[i].result =
              prober->explore_probe(widths[i], warm, &out[i].spatial, &stop[i]);
        } catch (...) {
          out[i].error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      done[i] = 1;
      ++finished;
      if (out[i].result.success) {
        for (std::size_t j = i + 1; j < widths.size(); ++j) stop[j].store(true);
      }
      cv.notify_all();
      return true;
    }
  };

  std::shared_ptr<State> state_;
  SearchStats* stats_;
  std::size_t consumed_ = 0;
};

/// The cold oracle verdicts of one search, keyed by width. Each entry is
/// one Prober::oracle_probe, run at most once: by an executor thread when
/// the search started it ahead of the walk, or by the searching thread when
/// it reads an entry no thread has claimed. A cold probe is a pure function
/// of its width, so a stored verdict is exactly the one the walk would
/// compute when it reads it. Each entry has its own stop flag, raised once
/// the walk can no longer read the entry. Destroying the table stops every
/// unread entry and waits for the claimed ones, so no probe outlives the
/// search.
class ColdTable {
 public:
  ColdTable(const Prober& prober, int w_min, int w_max, SearchStats* stats)
      : state_(std::make_shared<State>()), w_min_(w_min), stats_(stats) {
    state_->prober = &prober;
    state_->attribution = obs::attribution();
    state_->slots.resize(
        static_cast<std::size_t>(std::max(0, w_max - w_min + 1)));
  }

  ~ColdTable() {
    for (Entry* e : entries_) {
      if (!e->read) e->stop.store(true);
    }
    // Unclaimed entries are unread and stopped: claiming one only marks it
    // done.
    for (Entry* e : entries_) {
      if (!e->claimed.exchange(true)) state_->run(e);
    }
    std::size_t abandoned = 0;
    std::unique_lock<std::mutex> lock(state_->mu);
    for (Entry* e : entries_) {
      state_->cv.wait(lock, [&] { return e->done; });
      e->result = RouteResult{};  // late executor tasks may hold the state
      abandoned += e->read ? 0 : 1;
    }
    stats_->spec_abandoned += static_cast<long long>(abandoned);
    static obs::Counter& c_abandoned =
        obs::counter("route.minw_spec_abandoned");
    c_abandoned.add(abandoned);
  }

  ColdTable(const ColdTable&) = delete;
  ColdTable& operator=(const ColdTable&) = delete;

  /// Starts the cold probe at `w` on the executor, unless `w` is in the
  /// table already or outside [w_min, w_max] (then false). `early`: started
  /// in a narrowing wave's free slot, before the walk knows where it
  /// starts.
  bool start(int w, bool early) {
    if (!vacant(w)) return false;
    Entry* e = add(w, early);
    ThreadPool::shared().submit([state = state_, e] {
      if (!e->claimed.exchange(true)) state->run(e);
    });
    return true;
  }

  /// Stops every unread entry outside [lo, hi]: widths the walk can no
  /// longer read.
  void keep_only(int lo, int hi) {
    for (Entry* e : entries_) {
      if (!e->read && (e->width < lo || e->width > hi)) e->stop.store(true);
    }
  }

  /// The walk's read of width `w` (in [w_min, w_max]): blocks until its
  /// verdict is ready, running the probe on the calling thread if no
  /// thread has claimed it. Throws CancelledError when the search was
  /// cancelled, and rethrows the probe's own error.
  RouteResult& read(int w) {
    if (vacant(w)) add(w, /*early=*/false);
    Entry* e = state_->slots[static_cast<std::size_t>(w - w_min_)].get();
    if (!e->claimed.exchange(true)) state_->run(e);
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock, [&] { return e->done; });
    }
    throw_if_cancelled(state_->prober->oracle);
    if (e->error) std::rethrow_exception(e->error);
    e->read = true;
    if (e->early) {
      ++stats_->spec_cold_read;
      static obs::Counter& c_read = obs::counter("route.minw_spec_cold_read");
      c_read.add(1);
    }
    return e->result;
  }

 private:
  struct Entry {
    int width = 0;
    bool early = false;
    bool read = false;  ///< searching thread only
    std::atomic<bool> claimed{false};
    std::atomic<bool> stop{false};
    RouteResult result;
    std::exception_ptr error;
    bool done = false;  ///< guarded by State::mu
  };

  /// Shared with the executor tasks, which may outlive the table object.
  struct State {
    const Prober* prober = nullptr;  ///< dereferenced only by claimed entries
    obs::Attribution attribution;    ///< the searching thread's
    /// Entries by width - w_min; filled by the searching thread only.
    std::vector<std::unique_ptr<Entry>> slots;
    std::mutex mu;
    std::condition_variable cv;

    /// Runs a claimed entry, unless it was stopped before it began.
    void run(Entry* e) {
      if (e->stop.load()) {
        e->result.message = "abandoned";
      } else {
        obs::ScopedAttribution as_searcher(attribution);
        try {
          e->result = prober->oracle_probe(e->width, &e->stop);
        } catch (...) {
          e->error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      e->done = true;
      cv.notify_all();
    }
  };

  bool vacant(int w) const {
    const auto i = static_cast<std::size_t>(w - w_min_);
    return w >= w_min_ && i < state_->slots.size() && !state_->slots[i];
  }

  Entry* add(int w, bool early) {
    auto& slot = state_->slots[static_cast<std::size_t>(w - w_min_)];
    slot = std::make_unique<Entry>();
    slot->width = w;
    slot->early = early;
    entries_.push_back(slot.get());
    ++stats_->spec_probes;
    static obs::Counter& c_spec = obs::counter("route.minw_spec_probes");
    c_spec.add(1);
    if (early) {
      ++stats_->spec_cold;
      static obs::Counter& c_cold = obs::counter("route.minw_spec_cold");
      c_cold.add(1);
    }
    return slot.get();
  }

  std::shared_ptr<State> state_;
  int w_min_;
  SearchStats* stats_;
  std::vector<Entry*> entries_;  ///< in creation order
};

int minimum_channel_width_impl(const place::Placement& placement,
                               const arch::ArchSpec& spec,
                               RouteResult* result,
                               const RouteOptions& options, int w_min,
                               int w_max, SearchStats* stats);

}  // namespace

RouteResult route_all(const RrGraph& graph, const place::Placement& placement,
                      const RouteOptions& options) {
  RouteResult result =
      route_with_history(graph, placement, options, nullptr, nullptr);
  if (cancelled(options)) throw CancelledError("routing cancelled");
  // The partial rip-up can settle into congestion that the full rip-up
  // clears. Only a run that spent its whole budget gets the cold rerun: an
  // early stall abort is the fast "no" its caller asked for, and a net
  // with no path in the graph fails the cold run's first iteration too.
  if (!result.success && options.incremental &&
      result.iterations == kColdSchedule.max_iterations) {
    static obs::Counter& c_cold = obs::counter("route.cold_retries");
    c_cold.add(1);
    RouteOptions cold = options;
    cold.incremental = false;
    result = route_with_history(graph, placement, cold, nullptr, nullptr);
    if (cancelled(options)) throw CancelledError("routing cancelled");
  }
  return result;
}

RouteResult route_seeded(const RrGraph& graph,
                         const place::Placement& placement,
                         const std::vector<NetRoute>& seeds,
                         const std::vector<char>& dirty,
                         const RouteOptions& options) {
  int n_dirty = 0;
  for (char d : dirty) n_dirty += d != 0;
  // The spare pass is worth one cheap iteration only for small edits: a
  // large dirty set (an edit that re-packed whole regions) almost never
  // fits in the spare capacity, and every failing net pays a full
  // exhaustive wavefront before giving up.
  const bool small_edit =
      n_dirty * 8 < static_cast<int>(dirty.size());

  // Pass 1 — spare capacity only: route the dirty nets with every full
  // node treated as a hard obstacle. The clean trees cannot be disturbed
  // and no overuse can form, so one iteration yields a legal tree for
  // every dirty net that fits in the spare capacity (the common case at a
  // channel width with headroom). Best-effort: a net with no spare path
  // is simply left unrouted for the negotiation pass below.
  RouteOptions opts = options;
  opts.incremental = true;  // partial rip-up is the point of seeding
  if (small_edit) {
    PathFinder pf1(graph, placement, opts, kSpareSchedule);
    pf1.seed(seeds, dirty);
    RouteResult r1 = pf1.run(nullptr);
    if (cancelled(opts)) throw CancelledError("routing cancelled");
    if (r1.success) return r1;
  }

  // Pass 2 — negotiate from the original seeds. Re-seeding from pass 1's
  // partial result is tempting but wrong: the spare-routed trees are
  // greedy first-come detours that consume exactly the capacity the
  // leftover nets needed, and negotiating around them converges worse
  // than re-deciding all dirty nets together. The seeds are a legal
  // overuse-free solution: route the dirty nets around it under
  // mid-schedule congestion pressure (a cold start would send them
  // straight through the clean trees; a fully-mature one makes contested
  // nets oscillate with no history to arbitrate), and never force a full
  // re-negotiation — a refresh would reroute every clean net and turn the
  // seeded run back into a cold one. Iterations touch only the handful of
  // contested nets, so a deeper budget is cheap. The pressure also grows
  // faster than the cold router's: the few contested nets oscillate until
  // pressure breaks the tie, and each extra iteration here is pure tail
  // latency. kSeededSchedule holds these choices.
  PathFinder pf2(graph, placement, opts, kSeededSchedule);
  pf2.seed(seeds, dirty);
  RouteResult result = pf2.run(nullptr);
  if (cancelled(opts)) throw CancelledError("routing cancelled");
  return result;
}

int minimum_channel_width(const place::Placement& placement,
                          const arch::ArchSpec& spec, RouteResult* result,
                          const RouteOptions& options, int w_min, int w_max) {
  obs::Span span("route.minw_search");
  RouteResult local;
  RouteResult* out = result != nullptr ? result : &local;
  SearchStats stats;
  const int width = minimum_channel_width_impl(placement, spec, out, options,
                                               w_min, w_max, &stats);
  if (span.active()) {
    span.metric("width", width);
    span.metric("probes", static_cast<double>(stats.probes));
    span.metric("spec_probes", static_cast<double>(stats.spec_probes));
    span.metric("spec_abandoned", static_cast<double>(stats.spec_abandoned));
    span.metric("spec_cold", static_cast<double>(stats.spec_cold));
    span.metric("spec_cold_read", static_cast<double>(stats.spec_cold_read));
    span.metric("wire_nodes", out->total_wire_nodes);
  }
  return width;
}

namespace {

int minimum_channel_width_impl(const place::Placement& placement,
                               const arch::ArchSpec& spec,
                               RouteResult* result,
                               const RouteOptions& options, int w_min,
                               int w_max, SearchStats* stats) {
  RouteResult best;
  int best_w = -1;
  const Prober prober(placement, spec, options);
  auto oracle_probe = [&](int w, RouteResult* out) {
    *out = prober.oracle_probe(w, nullptr);
    return out->success;
  };

  if (!options.incremental) {
    // Oracle path: sequential doubling then binary search, cold probes.
    int lo = w_min;
    for (int w = std::max(w_min, spec.channel_width); w <= w_max; w *= 2) {
      throw_if_cancelled(options);
      RouteResult r;
      const bool ok = oracle_probe(w, &r);
      note_probe(w, r, /*oracle=*/true, stats);
      if (ok) {
        best = std::move(r);
        best_w = w;
        break;
      }
      lo = w + 1;
    }
    if (best_w < 0) {
      if (result != nullptr) *result = RouteResult{};
      return -1;
    }
    int hi = best_w;
    while (lo < hi) {
      throw_if_cancelled(options);
      const int mid = (lo + hi) / 2;
      RouteResult r;
      const bool ok = oracle_probe(mid, &r);
      note_probe(mid, r, /*oracle=*/true, stats);
      if (ok) {
        best = std::move(r);
        best_w = mid;
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (result != nullptr) *result = std::move(best);
    return best_w;
  }

  // --- Incremental search ------------------------------------------------
  // Exploratory probes use the incremental router with a stagnation abort:
  // fast, but a weaker negotiator on borderline widths (it may fail where
  // the oracle routes). Its verdicts only steer the search; the final
  // boundary is re-established by cold oracle probes in the walk phase,
  // so any exploratory misjudgment costs time, never the result.
  //
  // The explorer phases run as speculative waves (ProbeWave): up to
  // `wave_width` of the probes the one-at-a-time search would run next
  // while every verdict is "no", run at once and consumed by index in its
  // order. The walk reads its cold verdicts from a table keyed by width
  // (ColdTable), filled ahead of the walk. The consumed verdicts, and so
  // the width and the routing, are the one-at-a-time search's for every
  // wave width.
  const std::size_t wave_width = static_cast<std::size_t>(
      options.probe_threads > 0
          ? options.probe_threads
          : static_cast<int>(ThreadPool::shared().size()));
  SpatialHistory warm;

  // Demand estimate: summed net bounding-box spans are a lower bound on
  // the wire segments any routing must use; divided by the number of wire
  // segments one track provides, that is a width the design cannot route
  // below. Empirically the achievable minimum sits at ~2x this bound, so
  // a conservative slice of it steers where probing starts: widths below
  // it are expensive deep-congestion probes that always fail. Like every
  // explorer belief, a wrong guess is repaired by the oracle walk.
  double demand = 0.0;
  for (const auto& net : placement.nets()) {
    if (net.sinks.empty()) continue;
    const place::Loc& s = placement.location(net.source);
    int x0 = s.x, x1 = s.x, y0 = s.y, y1 = s.y;
    for (int b : net.sinks) {
      const place::Loc& l = placement.location(b);
      x0 = std::min(x0, l.x);
      x1 = std::max(x1, l.x);
      y0 = std::min(y0, l.y);
      y1 = std::max(y1, l.y);
    }
    demand += std::max(1, (x1 - x0) + (y1 - y0));
  }
  const double track_cap =
      static_cast<double>(placement.nx()) * (placement.ny() + 1) +
      static_cast<double>(placement.ny()) * (placement.nx() + 1);
  const double u_lower = track_cap > 0.0 ? demand / track_cap : 0.0;

  // Doubling phase: find a feasible upper bound, cold, up the fixed
  // doubling sequence; widths below 1.9x the demand bound are skipped as
  // predicted-infeasible. A wave is the next stretch of the sequence; the
  // first width that routes abandons the wider ones.
  //
  // The narrowing floor sits at 1.55x the demand bound: on routable
  // designs the achievable width lands at ~1.75-1.9x the bound, so the
  // binary search rarely wastes probes on deep-congestion widths. Like
  // the doubling skip, a too-high floor is repaired by the oracle walk
  // below, which walks past the floor freely.
  int lo = std::max(w_min - 1,            // highest width believed infeasible
                    static_cast<int>(1.55 * u_lower));
  std::vector<char> explorer_failed(static_cast<std::size_t>(w_max) + 2, 0);
  std::vector<int> widths;
  for (int w = std::max(w_min, spec.channel_width); w <= w_max; w *= 2) {
    if (static_cast<double>(w) < 1.9 * u_lower && w * 2 <= w_max) {
      lo = std::max(lo, w);
      continue;
    }
    widths.push_back(w);
  }
  for (std::size_t i0 = 0; best_w < 0 && i0 < widths.size();) {
    std::vector<int> ws;
    for (std::size_t i = i0; i < widths.size() && ws.size() < wave_width;
         ++i) {
      ws.push_back(widths[i]);
    }
    ProbeWave wave(prober, ws, {}, stats);
    for (std::size_t i = 0; best_w < 0 && i < ws.size(); ++i, ++i0) {
      ProbeOutcome& p = wave.read(i);
      note_probe(ws[i], p.result, /*oracle=*/false, stats);
      if (p.result.success) {
        best = std::move(p.result);
        best_w = ws[i];
        warm = std::move(p.spatial);
      } else {
        lo = ws[i];
        explorer_failed[static_cast<std::size_t>(ws[i])] = 1;
      }
    }
  }
  throw_if_cancelled(options);
  if (best_w < 0) {
    // Even the incremental router found nothing up to w_max; fall back to
    // the oracle's sequential search wholesale (it may still succeed
    // where the abort-happy explorer gave up).
    RouteOptions oracle = options;
    oracle.incremental = false;
    return minimum_channel_width_impl(placement, spec, result, oracle, w_min,
                                      w_max, stats);
  }

  // Narrowing phase: binary search, each probe warm-started from the
  // current best width's congestion history (per-tile means — track
  // counts differ between widths). A wave is the failure chain from
  // [lo, hi]: the midpoints the search visits while every verdict is
  // "no", all warm-started from hi's history as they would be one at a
  // time. The first success ends the wave and seeds the next one.
  //
  // A wave shorter than `wave_width` leaves executor slots free (the last
  // waves hold one to three probes). They start the walk's cold probes
  // early, at the widths around the bracket (lo, hi] the walk is likeliest
  // to read. The explorer's final width lies in the bracket and the walk
  // starts at it or one below, so hi - 1 is the likeliest start (the last
  // explorer success is usually hi, and the width below it failed); lo and
  // the widths below it serve a down walk, hi and above an up walk.
  ColdTable cold(prober, w_min, w_max, stats);
  int hi = best_w;
  while (hi - lo >= 2) {
    std::vector<int> ws;
    for (int l = lo; hi - l >= 2 && ws.size() < wave_width; l = ws.back()) {
      ws.push_back(l + (hi - l) / 2);
    }
    ProbeWave wave(prober, ws, warm, stats);
    std::size_t busy = ws.size();
    for (int w : {hi - 1, lo, hi, lo - 1, lo + 1, hi - 2, hi + 1, lo - 2}) {
      if (busy >= wave_width) break;
      if (cold.start(w, /*early=*/true)) ++busy;
    }
    for (std::size_t i = 0; i < ws.size(); ++i) {
      ProbeOutcome& p = wave.read(i);
      note_probe(ws[i], p.result, /*oracle=*/false, stats);
      if (p.result.success) {
        best = std::move(p.result);
        best_w = hi = ws[i];
        warm = std::move(p.spatial);
        break;
      }
      lo = ws[i];
      explorer_failed[static_cast<std::size_t>(ws[i])] = 1;
    }
  }

  // Oracle walk: the explorer's verdicts only steered the search; the
  // boundary is re-established with cold full-budget oracle probes so
  // the returned width is exactly the oracle's. Failing probes cost the
  // whole iteration budget while near-boundary successes converge fast,
  // so the walk starts at the bottom of the consecutive run of
  // explorer-failed width just below the explorer's best — the most
  // likely spot for the oracle boundary when the abort false-failed a
  // feasible width — and lets the probes pick the direction: down while
  // the oracle routes (reclaiming widths the explorer gave up on), up
  // from the first failure to the first width the oracle can route.
  // Starting only one step down keeps a genuinely-infeasible run of
  // explorer failures from dragging the walk into a chain of
  // full-budget failing probes. Under monotone feasibility the returned
  // width is exactly the width the cold oracle search would return.
  int start_w = best_w;
  if (start_w - 1 >= w_min &&
      explorer_failed[static_cast<std::size_t>(start_w - 1)]) {
    --start_w;
  }
  // Every cold verdict is read from the table, in the one-at-a-time order.
  // Before the start's verdict the table also runs the widths below it
  // and, with three or more slots, the width above it; the verdict stops
  // the other direction. Then the next `wave_width` widths of the chosen
  // direction keep running: a down walk ends at its first failure, an up
  // walk at its first success.
  const int n_below =
      static_cast<int>(wave_width >= 3 ? wave_width - 2 : wave_width - 1);
  for (int k = 1; k <= n_below; ++k) cold.start(start_w - k, /*early=*/false);
  if (wave_width >= 3) cold.start(start_w + 1, /*early=*/false);
  RouteResult& first = cold.read(start_w);
  note_probe(start_w, first, /*oracle=*/true, stats);
  const bool down = first.success;
  if (down) {
    best = std::move(first);
    best_w = start_w;
  }
  cold.keep_only(down ? w_min : start_w + 1, down ? start_w - 1 : w_max);
  const int step = down ? -1 : 1;
  for (int w = start_w + step; down ? w >= w_min : w <= w_max; w += step) {
    for (int k = 1; k < static_cast<int>(wave_width); ++k) {
      cold.start(w + k * step, /*early=*/false);
    }
    RouteResult& r = cold.read(w);
    note_probe(w, r, /*oracle=*/true, stats);
    const bool ok = r.success;
    // Failures leave `best` alone: an up walk that never routes keeps the
    // explorer's legal routing.
    if (ok) {
      best = std::move(r);
      best_w = w;
    }
    if (ok != down) break;
  }
  throw_if_cancelled(options);

  if (result != nullptr) *result = std::move(best);
  return best_w;
}

}  // namespace

std::vector<RouteViolation> routing_violations(const RrGraph& graph,
                                               const RouteResult& result) {
  std::vector<RouteViolation> found;
  const int n_nodes = graph.num_nodes();
  std::vector<int> occupancy(static_cast<std::size_t>(n_nodes), 0);
  for (std::size_t ni = 0; ni < result.routes.size(); ++ni) {
    const NetRoute& r = result.routes[ni];
    const auto& sinks = graph.sinks_of_net(static_cast<int>(ni));
    if (sinks.empty()) continue;  // clock/degenerate nets are not routed
    const auto fail = [&](RouteInvariant kind, std::string message) {
      found.push_back({kind, strprintf("net %zu", ni), std::move(message)});
    };
    if (r.nodes.empty()) {
      fail(RouteInvariant::kDisconnected, "net has no route");
      continue;
    }
    bool structure_ok = r.parent.size() == r.nodes.size();
    if (!structure_ok) {
      fail(RouteInvariant::kDisconnected,
           "route tree nodes/parents size mismatch");
    } else if (r.parent[0] != -1) {
      structure_ok = false;
      fail(RouteInvariant::kDisconnected, "route tree root has a parent");
    }
    if (r.nodes[0] != graph.opin_of_net(static_cast<int>(ni))) {
      fail(RouteInvariant::kDisconnected,
           "route tree does not start at the net's OPIN");
    }
    if (structure_ok) {
      for (std::size_t k = 1; k < r.nodes.size(); ++k) {
        const int p = r.parent[k];
        if (p < 0 || p >= static_cast<int>(k + 1)) {
          fail(RouteInvariant::kDisconnected,
               strprintf("node %zu has invalid parent index %d", k, p));
          continue;
        }
        const int from = r.nodes[static_cast<std::size_t>(p)];
        const int to = r.nodes[k];
        if (from < 0 || from >= n_nodes || to < 0 || to >= n_nodes) {
          fail(RouteInvariant::kBadEdge,
               "route references a nonexistent RR node");
          continue;
        }
        if (!graph.has_edge(from, to)) {
          fail(RouteInvariant::kBadEdge,
               strprintf("edge %d -> %d absent from the RR graph", from, to));
        }
      }
    }
    std::set<int> in_tree(r.nodes.begin(), r.nodes.end());
    for (int s : sinks) {
      if (!in_tree.count(s)) {
        fail(RouteInvariant::kDisconnected,
             strprintf("route misses sink node %d", s));
      }
    }
    for (int id : r.nodes) {
      if (id >= 0 && id < n_nodes) ++occupancy[static_cast<std::size_t>(id)];
    }
  }
  for (int id = 0; id < n_nodes; ++id) {
    // Capacity decode is per-id work; untouched nodes (capacity >= 1)
    // cannot be over.
    const int occ = occupancy[static_cast<std::size_t>(id)];
    if (occ <= 1) continue;
    const int cap = graph.node_capacity(id);
    if (occ > cap) {
      found.push_back({RouteInvariant::kOveruse, strprintf("rr node %d", id),
                       strprintf("occupancy %d exceeds capacity %d", occ,
                                 cap)});
    }
  }
  return found;
}

void verify_routing(const RrGraph& graph, const RouteResult& result) {
  AMDREL_CHECK_MSG(result.success, "verify_routing on a failed result");
  throw_first(routing_violations(graph, result), "routing");
}

}  // namespace amdrel::route
