#pragma once
// Staged execution of the Fig. 11 tool chain: the paper's GUI exposes the
// flow as six stage buttons, and FlowSession is that surface as a library
// API. A session owns the stage artifacts (the fields of FlowResult) and
// runs the pipeline stage by stage, so a caller can stop after packing,
// inspect or dump the intermediate netlists, resume later, and abort a
// runaway minimum-channel-width search cooperatively.
//
// Determinism contract: a session run in any number of run_until/resume
// steps produces results bit-identical to one resume() call (same seed →
// same bitstream bytes, same stats). No state crosses stage boundaries
// except through FlowResult, and every stage is deterministic given
// FlowOptions.
//
// Observability: each executed stage is wrapped in an obs span named
// "flow.<stage>" carrying wall_s / peak_rss_kb metrics, and the hot
// kernels underneath emit their own spans and points (DESIGN.md §8).

#include <atomic>
#include <optional>
#include <string>

#include "eco/eco.hpp"
#include "flow/flow.hpp"
#include "obs/obs.hpp"

namespace amdrel::flow {

/// Lifecycle of a FlowSession.
enum class SessionState {
  kReady,      ///< stages remain and the session can run
  kCancelled,  ///< a cancel() request stopped the run; run_until resumes
  kFailed,     ///< a stage threw; the session is frozen at that stage
  kDone,       ///< all stages through kBitgen completed
};

struct JobSpec;  // flow/jobspec.hpp

class FlowSession {
 public:
  /// The unified entry point: one serializable job description (see
  /// flow/jobspec.hpp) resolved to whichever source it carries — inline
  /// BLIF/VHDL text, a design file, or a bench_gen circuit — with
  /// spec.arch_text (when set) parsed into the session's options. The
  /// daemon, CLI, benches and tests all construct sessions this way. A
  /// VHDL source parses and synthesizes (DIVINER) inside stage kSynth and
  /// round-trips through EDIF (DRUID/E2FMT), with the usual equivalence
  /// check when options.verify_mode is not kOff. Throws on an
  /// unresolvable source. Run with run_until(spec.until).
  explicit FlowSession(const JobSpec& spec);

  /// Network/BLIF entry point: stage kSynth records `network` as the
  /// synthesized design (the network is copied; the reference need not
  /// outlive the constructor).
  explicit FlowSession(const netlist::Network& network,
                       const FlowOptions& options = {});

  FlowSession(const FlowSession&) = delete;
  FlowSession& operator=(const FlowSession&) = delete;

  /// Runs every pending stage up to and including `last`. Returns the
  /// session state afterwards: kDone / kReady on success, kCancelled if a
  /// cancel() request was observed (the request is consumed — calling
  /// run_until/resume again continues from the last completed stage).
  /// A stage failure marks the session kFailed and rethrows the stage's
  /// exception with the failing stage name and the per-stage wall times
  /// appended to the message (the exception type is preserved for the
  /// framework's Error hierarchy).
  SessionState run_until(Stage last);

  /// Runs every remaining stage: run_until(Stage::kBitgen).
  SessionState resume() { return run_until(Stage::kBitgen); }

  /// ECO: incrementally recompiles an edited entry network against this
  /// session's completed artifacts (requires state() == kDone; see
  /// src/eco). On success the session's artifacts are replaced by the
  /// edited design's implementation, the recompiled bitstream is proven
  /// equivalent to `edited` per options().verify_mode, and kDone is
  /// returned; eco_stats()/eco_metrics() report what was reused. On a
  /// cancel() the attempt is discarded and kCancelled is returned with
  /// the session unchanged (still kDone, base artifacts intact); a
  /// verification or stage failure also leaves the base artifacts intact
  /// and rethrows.
  SessionState resume_with_edit(const netlist::Network& edited,
                                eco::EcoStats* stats_out = nullptr);

  /// Requests cooperative cancellation. Safe to call from any thread (and
  /// from an obs::Sink callback). The running stage stops at its next
  /// cancellation point — between stages, per PathFinder iteration (in
  /// every probe of a min-W wave) and per min-W wave — discarding only the
  /// interrupted stage's partial work, so the session stays well-formed
  /// and resumable. A request that lands after the last cancellation
  /// point of the final requested stage is still observed: run_until
  /// reports kCancelled at exit (the work is complete — completed() shows
  /// it — and resume() continues normally).
  /// The release store pairs with the acquire exchanges in run_until, so
  /// writes made by the cancelling thread before cancel() are visible to
  /// the flow thread when it observes the request.
  void cancel() { cancel_requested_.store(true, std::memory_order_release); }

  SessionState state() const { return state_; }
  /// The next stage run_until would execute (nullopt once kDone).
  std::optional<Stage> next_stage() const;
  /// True when `stage` has completed in this session.
  bool completed(Stage stage) const {
    return static_cast<int>(stage) < next_;
  }
  const StageMetrics& metrics(Stage stage) const {
    return result_.metrics(stage);
  }
  /// Wall time / counters of the last resume_with_edit call (ran == false
  /// until one completes), and its reuse statistics.
  const StageMetrics& eco_metrics() const { return eco_metrics_; }
  const eco::EcoStats& eco_stats() const { return eco_stats_; }

  const FlowOptions& options() const { return options_; }

  /// Attaches a job-scoped trace context (obs::TraceContext) the session
  /// carries onto whichever thread executes run_until / resume /
  /// resume_with_edit: the context is installed for the duration of the
  /// call (obs::ScopedContext), so every stage span and kernel point the
  /// run emits lands in the context's sink tagged with its trace id —
  /// falling back to the process-global sink when null (the default, and
  /// the unchanged standalone-CLI behavior). The context is borrowed: it
  /// must outlive the session or be cleared before it is destroyed. The
  /// compile daemon installs one context per job so 64-way concurrent
  /// jobs each write their own attributable trace (DESIGN.md §8.1).
  void set_trace_context(const obs::TraceContext* ctx) { trace_ctx_ = ctx; }
  const obs::TraceContext* trace_context() const { return trace_ctx_; }

  /// The stage artifacts produced so far. Fields owned by stages that have
  /// not run yet are default-initialized (null unique_ptrs, empty stats).
  const FlowResult& result() const { return result_; }
  /// Moves the artifacts out. The session must not be used afterwards.
  FlowResult take_result() { return std::move(result_); }

 private:
  void add_qor_span_metrics(Stage stage, obs::Span& span) const;
  /// Equivalence barrier between a reference network and a stage's result,
  /// honoring options_.verify_mode: nothing under kOff; otherwise a SAT
  /// proof, which kBoth precedes with random vectors
  /// (netlist::kHandoffRandomBudget). Throws InfeasibleError on a proven
  /// mismatch (with the counterexample) and Error when the formal proof
  /// is inconclusive within budget. SAT effort lands on the registry's
  /// verify.* counters, so it folds into the stage's StageMetrics.
  /// `register_map`, when non-empty, pins the sequential matching
  /// (flow::fabric_register_map) — required for fabric-decode hand-offs
  /// on designs with enough identical-signature FFs to defeat guessing.
  void verify_handoff(
      const std::string& handoff, const netlist::Network& ref,
      const netlist::Network& impl,
      const std::vector<std::pair<std::string, std::string>>& register_map =
          {});
  /// The fabric proof (route stage and ECO): a routed design has no
  /// netlist form of its own, so `bits` is interpreted through the fabric
  /// decoder and proven against `ref` with the registers pinned by
  /// `register_map`; a swapped or misattributed route shows up as a
  /// functional difference. Runs whatever verify_handoff runs.
  void verify_fabric(
      const std::string& handoff, const netlist::Network& ref,
      const bitgen::Bitstream& bits,
      const std::vector<std::pair<std::string, std::string>>& register_map);
  void run_stage(Stage stage);
  void run_synth();
  void run_map();
  void run_pack();
  void run_place();
  void run_route();
  void run_power();
  void run_bitgen();
  /// "stage 'route' failed (synth 0.001s, ..., route 0.84s): " prefix for
  /// rethrown stage errors.
  std::string stage_context(Stage stage) const;

  FlowOptions options_;
  FlowResult result_;
  std::string vhdl_source_;  ///< VHDL entry only
  std::string top_;          ///< VHDL entry only
  netlist::Network entry_network_;  ///< network entry only
  bool from_vhdl_ = false;

  int next_ = 0;  ///< index of the next stage to run
  SessionState state_ = SessionState::kReady;
  std::atomic<bool> cancel_requested_{false};
  const obs::TraceContext* trace_ctx_ = nullptr;  ///< borrowed, may be null
  StageMetrics eco_metrics_;
  eco::EcoStats eco_stats_;
};

}  // namespace amdrel::flow
