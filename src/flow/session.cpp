#include "flow/session.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "flow/jobspec.hpp"
#include "lint/flow_rules.hpp"
#include "lint/netlist_rules.hpp"
#include "lint/rr_rules.hpp"
#include "netlist/blif.hpp"
#include "netlist/edif.hpp"
#include "netlist/simulate.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "route/route_files.hpp"
#include "synth/lutmap.hpp"
#include "synth/opt.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "verify/equiv.hpp"
#include "vhdl/synth.hpp"

namespace amdrel::flow {

namespace {

using Clock = std::chrono::steady_clock;

const char* kStageNames[kNumStages] = {"synth",  "map",   "pack", "place",
                                       "route",  "power", "bitgen"};
const char* kStageSpans[kNumStages] = {
    "flow.synth", "flow.map",   "flow.pack",  "flow.place",
    "flow.route", "flow.power", "flow.bitgen"};

void write_artifact(const std::string& dir, const std::string& name,
                    const std::string& content) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir + "/" + name);
  if (!out) throw Error("cannot write artifact: " + dir + "/" + name);
  out << content;
}

/// Invariant barrier: runs `rules` into `report` under a lint.barrier
/// span, then error-severity findings stop the flow right at the broken
/// hand-off, with the whole report (not just the first failure).
template <typename Rules>
void barrier(lint::Report& report, const std::string& stage, Rules&& rules) {
  obs::Span span("lint.barrier");
  const std::size_t before = report.diagnostics().size();
  rules();
  span.metric("findings",
              static_cast<double>(report.diagnostics().size() - before));
  if (report.has_errors()) {
    throw InfeasibleError("invariant check failed after " + stage + ":\n" +
                          report.to_text());
  }
}

/// The bytes check that stands in for a second proof: the serialized
/// bytes must read back as exactly the bitstream the fabric proof covered.
void check_round_trip(const std::string& handoff,
                      const std::vector<std::uint8_t>& bytes,
                      const bitgen::Bitstream& bits) {
  if (bitgen::deserialize(bytes) == bits) return;
  throw InfeasibleError("bitstream round trip lost at stage '" + handoff +
                        "': the bytes do not read back as the proven "
                        "bitstream");
}

/// Registry counter increments between two snapshots, name-sorted (the
/// snapshots are name-sorted already); zero deltas are dropped.
std::vector<std::pair<std::string, std::uint64_t>> counter_deltas(
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& c : after.counters) {
    const std::uint64_t d = c.value - before.counter(c.name);
    if (d > 0) out.emplace_back(c.name, d);
  }
  return out;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Bookkeeping after a completed run of a flow stage or an ECO edit:
/// marks `m` ran and adds the run's wall time to it (a stage's time
/// accumulates across cancelled attempts), ends `span` at that same
/// instant, and records peak RSS and the registry counter deltas since
/// `before` on both. Sink I/O, the snapshot and the caller's QoR metrics
/// fall outside both measurements, so the traced duration equals wall_s.
void finish_run(StageMetrics& m, obs::Span& span, Clock::time_point t0,
                const obs::MetricsSnapshot& before) {
  m.ran = true;
  const auto t1 = Clock::now();
  m.wall_s += std::chrono::duration<double>(t1 - t0).count();
  span.freeze_duration(t1);
  m.peak_rss_kb = obs::peak_rss_kb();
  m.counters = counter_deltas(before, obs::snapshot_metrics());
  span.metric("wall_s", m.wall_s);
  span.metric("peak_rss_kb", static_cast<double>(m.peak_rss_kb));
  if (!span.active()) return;
  for (const auto& [name, value] : m.counters) {
    // Counter names are registry literals but m.counters owns copies; the
    // callers keep m's vector buffer alive past the span, so the c_str
    // pointers stay valid.
    span.metric(name.c_str(), static_cast<double>(value));
  }
}

}  // namespace

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<int>(stage)];
}

const char* verify_mode_name(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff: return "off";
    case VerifyMode::kFormal: return "formal";
    case VerifyMode::kBoth: return "both";
  }
  return "?";
}

Stage parse_stage(const std::string& name) {
  for (int s = 0; s < kNumStages; ++s) {
    if (name == kStageNames[s]) return static_cast<Stage>(s);
  }
  throw Error("unknown flow stage '" + name +
              "' (expected synth, map, pack, place, route, power or bitgen)");
}

VerifyMode parse_verify_mode(const std::string& name) {
  if (name == "off") return VerifyMode::kOff;
  if (name == "formal") return VerifyMode::kFormal;
  if (name == "both") return VerifyMode::kBoth;
  throw Error("unknown verify mode '" + name +
              "' (expected off, formal or both)");
}

void FlowSession::verify_handoff(
    const std::string& handoff, const netlist::Network& ref,
    const netlist::Network& impl,
    const std::vector<std::pair<std::string, std::string>>& register_map) {
  if (options_.verify_mode == VerifyMode::kOff) return;
  if (options_.verify_mode == VerifyMode::kBoth) {
    static obs::Counter& c_random = obs::counter("verify.random_checks");
    const netlist::RandomBudget& budget = netlist::kHandoffRandomBudget;
    auto r = netlist::check_equivalence(ref, impl, budget.runs,
                                        budget.cycles, options_.verify_seed);
    c_random.add(1);
    AMDREL_CHECK_MSG(r.equivalent, "equivalence lost at stage '" + handoff +
                                       "': " + r.message);
  }
  verify::EquivOptions eopt;
  eopt.seed = options_.verify_seed;
  eopt.time_limit_s = options_.verify_time_limit_s;
  eopt.register_map = register_map;
  const verify::EquivResult res = verify::prove_equivalence(ref, impl, eopt);
  if (res.status == verify::EquivStatus::kNotEquivalent) {
    std::string msg = "formal equivalence lost at stage '" + handoff +
                      "': " + res.message;
    if (res.cex.has_value()) msg += "\n" + res.cex->to_text();
    throw InfeasibleError(msg);
  }
  if (res.status == verify::EquivStatus::kUnknown) {
    throw Error("formal equivalence inconclusive at stage '" + handoff +
                "': " + res.message);
  }
}

void FlowSession::verify_fabric(
    const std::string& handoff, const netlist::Network& ref,
    const bitgen::Bitstream& bits,
    const std::vector<std::pair<std::string, std::string>>& register_map) {
  verify_handoff(handoff, ref, bitgen::decode_to_network(bits),
                 register_map);
}

FlowSession::FlowSession(const netlist::Network& network,
                         const FlowOptions& options)
    : options_(options), entry_network_(network) {}

FlowSession::FlowSession(const JobSpec& spec) : options_(spec.options) {
  if (!spec.arch_text.empty()) {
    options_.arch = arch::read_arch_string(spec.arch_text);
  }
  const bool vhdl_file =
      spec.source == JobSpec::Source::kFile &&
      (ends_with(spec.path, ".vhd") || ends_with(spec.path, ".vhdl"));
  if (spec.source == JobSpec::Source::kVhdl || vhdl_file) {
    // VHDL synthesizes inside the synth stage (EDIF round-trip included).
    if (vhdl_file) {
      std::ifstream in(spec.path);
      if (!in) throw Error("cannot open: " + spec.path);
      std::ostringstream ss;
      ss << in.rdbuf();
      vhdl_source_ = ss.str();
    } else {
      vhdl_source_ = spec.text;
    }
    top_ = spec.top;
    from_vhdl_ = true;
    return;
  }
  entry_network_ = resolve_job_network(spec);
}

std::optional<Stage> FlowSession::next_stage() const {
  if (next_ >= kNumStages) return std::nullopt;
  return static_cast<Stage>(next_);
}

std::string FlowSession::stage_context(Stage stage) const {
  std::string times;
  for (int s = 0; s < kNumStages; ++s) {
    const StageMetrics& m = result_.stage_metrics[static_cast<std::size_t>(s)];
    if (m.wall_s <= 0.0 && !m.ran) continue;
    if (!times.empty()) times += ", ";
    times += strprintf("%s %.3fs", kStageNames[s], m.wall_s);
  }
  std::string msg =
      "flow stage '" + std::string(stage_name(stage)) + "' failed";
  if (!times.empty()) msg += " (" + times + ")";
  return msg + ": ";
}

SessionState FlowSession::run_until(Stage last) {
  AMDREL_CHECK_MSG(state_ != SessionState::kFailed,
                   "run_until on a failed FlowSession");
  // Carry the job-scoped trace context (if any) onto this thread for the
  // duration of the run: every stage span and kernel point below routes
  // to the context's sink under its trace id. Null = global sink.
  obs::ScopedContext trace_scope(trace_ctx_);
  state_ = SessionState::kReady;
  while (next_ <= static_cast<int>(last) && next_ < kNumStages) {
    if (cancel_requested_.exchange(false, std::memory_order_acq_rel)) {
      state_ = SessionState::kCancelled;
      return state_;
    }
    const Stage stage = static_cast<Stage>(next_);
    StageMetrics& m = result_.stage_metrics[static_cast<std::size_t>(next_)];
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    const auto t0 = Clock::now();
    obs::Span span(kStageSpans[next_], t0);
    try {
      run_stage(stage);
    } catch (const CancelledError&) {
      // The interrupted stage discarded its partial work (stage bodies
      // commit their artifacts only on success), so the session stays
      // well-formed at the previous boundary. Consume the request.
      m.wall_s += seconds_since(t0);
      cancel_requested_.exchange(false, std::memory_order_acq_rel);
      state_ = SessionState::kCancelled;
      return state_;
    } catch (const InfeasibleError& e) {
      m.wall_s += seconds_since(t0);
      state_ = SessionState::kFailed;
      throw StageInfeasibleError(stage, stage_context(stage) + e.what());
    } catch (const Error& e) {
      m.wall_s += seconds_since(t0);
      state_ = SessionState::kFailed;
      throw StageError(stage, stage_context(stage) + e.what());
    }
    finish_run(m, span, t0, before);
    if (span.active()) add_qor_span_metrics(stage, span);
    ++next_;
  }
  if (next_ >= kNumStages) state_ = SessionState::kDone;
  // A cancel that landed after the final requested stage's last
  // cancellation point (e.g. from a sink callback on that stage's end
  // span) used to be silently dropped here: the loop exited without
  // re-checking the flag and a later run_until was spuriously cancelled
  // by the stale request. Observe and consume it now — the completed
  // work is kept (completed() reflects it) and the caller sees
  // kCancelled unless the whole flow finished, where there is nothing
  // left to cancel.
  if (cancel_requested_.exchange(false, std::memory_order_acq_rel) &&
      state_ != SessionState::kDone) {
    state_ = SessionState::kCancelled;
  }
  return state_;
}

/// Per-stage quality-of-results metrics on the flow.<stage> span, so a
/// trace alone (amdrel_cli trace-report) reconstructs the QoR summary
/// without the FlowResult object.
void FlowSession::add_qor_span_metrics(Stage stage, obs::Span& span) const {
  switch (stage) {
    case Stage::kSynth:
      span.metric("gates",
                  static_cast<double>(result_.synthesized.gates().size()));
      return;
    case Stage::kMap:
      span.metric("luts", result_.map_stats.luts);
      span.metric("depth", result_.map_stats.depth);
      return;
    case Stage::kPack:
      span.metric("clbs",
                  static_cast<double>(result_.packed->clusters().size()));
      return;
    case Stage::kPlace:
      span.metric("place_cost", result_.place_stats.final_cost);
      return;
    case Stage::kRoute:
      span.metric("channel_width", result_.channel_width);
      span.metric("wire_nodes", result_.routing.total_wire_nodes);
      span.metric("rr_nodes",
                  static_cast<double>(result_.rr_graph->num_nodes()));
      span.metric("rr_patterns",
                  static_cast<double>(result_.rr_graph->unique_patterns()));
      span.metric("rr_bytes_est",
                  static_cast<double>(result_.rr_graph->bytes_est()));
      return;
    case Stage::kPower:
      span.metric("critical_path_ns", result_.timing.critical_path_s * 1e9);
      span.metric("power_mw", result_.power.total_w * 1e3);
      return;
    case Stage::kBitgen:
      span.metric("bitstream_bytes",
                  static_cast<double>(result_.bitstream_bytes.size()));
      span.metric("config_bits",
                  static_cast<double>(result_.bitstream.config_bits()));
      return;
  }
}

void FlowSession::run_stage(Stage stage) {
  switch (stage) {
    case Stage::kSynth: run_synth(); return;
    case Stage::kMap: run_map(); return;
    case Stage::kPack: run_pack(); return;
    case Stage::kPlace: run_place(); return;
    case Stage::kRoute: run_route(); return;
    case Stage::kPower: run_power(); return;
    case Stage::kBitgen: run_bitgen(); return;
  }
}

void FlowSession::run_synth() {
  result_.arch = std::make_unique<arch::ArchSpec>(options_.arch);
  static obs::Counter& c_gates = obs::counter("synth.gates");
  if (!from_vhdl_) {
    result_.synthesized = std::move(entry_network_);
    if (options_.verify_mode != VerifyMode::kOff) {
      // Network entry has no EDIF round-trip; prove the BLIF writer/parser
      // pair instead so the synth hand-off is still covered. The artifact
      // itself stays the entry network.
      const netlist::Network round_trip = netlist::read_blif_string(
          netlist::write_blif_string(result_.synthesized));
      verify_handoff("BLIF round-trip (E2FMT)", result_.synthesized,
                     round_trip);
    }
    c_gates.add(result_.synthesized.gates().size());
    return;
  }
  // Stage 1-2: parse + synthesize (VHDL Parser + DIVINER). DIVINER emits
  // EDIF; DRUID/E2FMT normalize it to BLIF. Exercise the actual format
  // conversions so the file formats stay honest.
  netlist::Network synthesized = vhdl::synthesize_vhdl(vhdl_source_, top_);
  std::string edif = netlist::write_edif_string(synthesized);
  write_artifact(options_.artifact_dir, top_ + ".edif", edif);
  netlist::Network from_edif = netlist::read_edif_string(edif);
  verify_handoff("EDIF round-trip (DRUID/E2FMT)", synthesized, from_edif);
  result_.synthesized = std::move(from_edif);
  c_gates.add(result_.synthesized.gates().size());
}

void FlowSession::run_map() {
  const arch::ArchSpec& aspec = *result_.arch;
  const netlist::Network& network = result_.synthesized;
  // SIS role: sweep + constant propagation, then LUT mapping.
  netlist::Network opt = synth::propagate_constants(network);
  synth::sweep_dead_logic(opt);
  result_.mapped = std::make_unique<netlist::Network>(synth::map_to_luts(
      opt, synth::LutMapOptions{aspec.k, 8}, &result_.map_stats));
  verify_handoff("LUT mapping (SIS)", network, *result_.mapped);
  if (options_.check_invariants) {
    result_.lint.set_stage("mapping");
    barrier(result_.lint, "LUT mapping",
            [&] { lint::lint_network(*result_.mapped, &result_.lint); });
  }
  write_artifact(options_.artifact_dir, network.name() + ".blif",
                 netlist::write_blif_string(*result_.mapped));
}

void FlowSession::run_pack() {
  const arch::ArchSpec& aspec = *result_.arch;
  // T-VPack.
  result_.packed =
      std::make_unique<pack::PackedNetlist>(*result_.mapped, aspec);
  if (options_.verify_mode != VerifyMode::kOff) {
    verify_handoff("packing (T-VPack)", *result_.mapped,
                   pack::reconstruct_network(*result_.packed));
  }
  write_artifact(options_.artifact_dir, result_.synthesized.name() + ".net",
                 pack::write_net_string(*result_.packed));
  // DUTYS architecture file.
  write_artifact(options_.artifact_dir, result_.synthesized.name() + ".arch",
                 arch::write_arch_string(aspec));
}

void FlowSession::run_place() {
  const arch::ArchSpec& aspec = *result_.arch;
  // VPR role: place.
  result_.placement =
      std::make_unique<place::Placement>(*result_.packed, aspec);
  place::Placement::AnnealOptions popt;
  popt.seed = options_.seed;
  result_.place_stats = result_.placement->anneal(popt);
  if (options_.verify_mode != VerifyMode::kOff) {
    verify_handoff("placement (VPR)", *result_.mapped,
                   place::reconstruct_network(*result_.placement));
  }
}

void FlowSession::run_route() {
  const arch::ArchSpec& aspec = *result_.arch;
  // VPR role: route. Built into locals and committed only on success, so a
  // cancelled or failed search leaves the session at the place boundary.
  route::RouteOptions ropt;
  ropt.cancel = &cancel_requested_;
  ropt.rr.dedup = options_.rr_dedup;
  std::unique_ptr<route::RrGraph> rr_graph;
  route::RouteResult routing;
  int channel_width = 0;
  if (options_.search_min_channel_width) {
    channel_width = route::minimum_channel_width(*result_.placement, aspec,
                                                 &routing, ropt);
    if (channel_width <= 0) {
      throw InfeasibleError(
          "unroutable: the minimum channel width search found no width");
    }
    rr_graph = std::make_unique<route::RrGraph>(*result_.placement, aspec,
                                                channel_width, ropt.rr);
  } else {
    channel_width = aspec.channel_width;
    rr_graph = std::make_unique<route::RrGraph>(*result_.placement, aspec,
                                                channel_width, ropt.rr);
    routing = route::route_all(*rr_graph, *result_.placement, ropt);
    if (!routing.success) {
      throw InfeasibleError(strprintf("unroutable at W=%d: %s", channel_width,
                                      routing.message.c_str()));
    }
  }
  route::verify_routing(*rr_graph, routing);
  // DAGGER's device bitstream is built once, from the routing committed
  // here; the routing proof below and the bitgen stage both read it.
  bitgen::Bitstream bitstream = bitgen::generate_bitstream(
      *result_.packed, *result_.placement, *rr_graph, routing, aspec);
  result_.rr_graph = std::move(rr_graph);
  result_.routing = std::move(routing);
  result_.channel_width = channel_width;
  result_.bitstream = std::move(bitstream);
  if (options_.check_invariants) {
    result_.lint.set_stage("rr-graph");
    barrier(result_.lint, "routing",
            [&] { lint::lint_rr_graph(*result_.rr_graph, &result_.lint); });
  }
  write_artifact(options_.artifact_dir, result_.synthesized.name() + ".place",
                 route::write_place_string(*result_.placement));
  write_artifact(options_.artifact_dir, result_.synthesized.name() + ".route",
                 route::write_route_string(*result_.rr_graph,
                                           *result_.placement,
                                           result_.routing));
  if (options_.verify_mode != VerifyMode::kOff) {
    verify_fabric("routing (VPR)", *result_.mapped, result_.bitstream,
                  fabric_register_map(result_));
  }
}

void FlowSession::run_power() {
  const arch::ArchSpec& aspec = *result_.arch;
  // PowerModel + timing (stage 4 of the GUI; runs after P&R in practice).
  result_.power =
      power::estimate_power(*result_.packed, *result_.placement,
                            *result_.rr_graph, result_.routing, aspec,
                            options_.power);
  result_.timing =
      timing::analyze_timing(*result_.packed, *result_.placement,
                             *result_.rr_graph, result_.routing, aspec);
}

SessionState FlowSession::resume_with_edit(const netlist::Network& edited,
                                           eco::EcoStats* stats_out) {
  AMDREL_CHECK_MSG(state_ == SessionState::kDone,
                   "resume_with_edit requires a completed session");
  obs::ScopedContext trace_scope(trace_ctx_);
  StageMetrics m;
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  const auto t0 = Clock::now();
  obs::Span span("flow.eco", t0);
  try {
    eco::EcoOptions eopt;
    eopt.seed = options_.seed;
    eopt.lutmap = synth::LutMapOptions{result_.arch->k, 8};
    eopt.route.cancel = &cancel_requested_;
    eopt.route.rr.dedup = options_.rr_dedup;
    eopt.power = options_.power;
    eco::EcoResult er = eco::recompile(
        edited, result_.synthesized, *result_.mapped, *result_.packed,
        *result_.placement, *result_.rr_graph, result_.routing,
        result_.channel_width, *result_.arch, eopt);
    // The same lint barriers the full flow runs, over every recompiled
    // artifact; failures leave the base artifacts in place.
    if (options_.check_invariants) {
      result_.lint.set_stage("eco");
      barrier(result_.lint, "ECO recompile", [&] {
        lint::lint_network(*er.mapped, &result_.lint);
        lint::lint_rr_graph(*er.rr_graph, &result_.lint);
        lint::check_post_bitgen(er.bitstream_bytes, *er.mapped,
                                &result_.lint);
      });
    }
    // The safety net, before committing anything, in the flow's ledger
    // order: the recompiled mapping implements the edited netlist (SAT:
    // gates against LUTs; latch Q names survive mapping, so the checker's
    // name match pins the registers), the recompiled bitstream implements
    // that mapping (the same LUTs: settled by structural matching), and
    // its bytes carry exactly that bitstream.
    if (options_.verify_mode != VerifyMode::kOff) {
      verify_handoff("ECO recompile (LUT mapping)", edited, *er.mapped);
      verify_fabric("ECO recompile (fabric)", *er.mapped, er.bitstream,
                    fabric_register_map(*er.mapped, *er.packed,
                                        *er.placement));
      check_round_trip("ECO recompile", er.bitstream_bytes, er.bitstream);
    }
    // Commit: the session now holds the edited design's implementation.
    entry_network_ = edited;
    result_.synthesized = edited;
    result_.mapped = std::move(er.mapped);
    result_.map_stats = er.map_stats;
    result_.packed = std::move(er.packed);
    result_.placement = std::move(er.placement);
    result_.place_stats = er.place_stats;
    result_.rr_graph = std::move(er.rr_graph);
    result_.routing = std::move(er.routing);
    result_.channel_width = er.channel_width;
    result_.power = er.power;
    result_.timing = er.timing;
    result_.bitstream = std::move(er.bitstream);
    result_.bitstream_bytes = std::move(er.bitstream_bytes);
    eco_stats_ = er.stats;
    if (stats_out != nullptr) *stats_out = er.stats;
  } catch (const CancelledError&) {
    m.wall_s += seconds_since(t0);
    eco_metrics_ = std::move(m);
    cancel_requested_.exchange(false, std::memory_order_acq_rel);
    return SessionState::kCancelled;
  } catch (const InfeasibleError& e) {
    throw InfeasibleError(std::string("ECO recompile failed: ") + e.what());
  } catch (const Error& e) {
    throw Error(std::string("ECO recompile failed: ") + e.what());
  }
  finish_run(m, span, t0, before);
  if (span.active()) {
    span.metric("dirty_pct", eco_stats_.entry_diff.dirty_pct() * 100.0);
    span.metric("reuse_ratio", eco_stats_.reuse_ratio());
    span.metric("channel_width", result_.channel_width);
  }
  eco_metrics_ = std::move(m);
  return SessionState::kDone;
}

void FlowSession::run_bitgen() {
  // DAGGER: the programming file is the bitstream the route stage built
  // and proved.
  result_.bitstream_bytes = bitgen::serialize(result_.bitstream);
  if (!options_.artifact_dir.empty()) {
    std::ofstream out(options_.artifact_dir + "/" +
                          result_.synthesized.name() + ".bit",
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(result_.bitstream_bytes.data()),
              static_cast<std::streamsize>(result_.bitstream_bytes.size()));
  }
  if (options_.check_invariants) {
    result_.lint.set_stage("bitgen");
    barrier(result_.lint, "bitstream generation", [&] {
      lint::check_post_bitgen(result_.bitstream_bytes, *result_.mapped,
                              &result_.lint);
    });
  }
  if (options_.verify_mode != VerifyMode::kOff) {
    check_round_trip("bitstream (DAGGER)", result_.bitstream_bytes,
                     result_.bitstream);
  }
}

}  // namespace amdrel::flow
