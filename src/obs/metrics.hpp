#pragma once
// Always-on metrics registry: counters, gauges and histograms that every
// tool of the flow bumps unconditionally (no sink required, unlike the
// trace spans in obs.hpp). The registry is the QoR ledger of a run — cut
// enumerations from the LUT mapper, absorption/rejection counts from the
// packer, PathFinder iterations and rip-ups, SPICE NR statistics — and a
// snapshot of it rides along with every bench/CLI invocation (--metrics)
// and inside each FlowSession stage's StageMetrics.
//
// Concurrency design (DESIGN.md §8): writes go to per-thread shards with
// relaxed atomics, so the min-W probe waves and the bench ThreadPool
// sweeps can increment the same counter from many workers with no
// contention and no locks. Each shard slot has a single writer (its
// owning thread); the atomics exist so a snapshot from another thread
// reads torn-free values. snapshot_metrics() merges all shards that ever
// existed — a thread that exits parks its shard on a free list for reuse
// (counts are monotonic, so reuse without reset is correct) and the
// values it accumulated stay visible.
//
// Cost: an increment is one thread-local lookup plus a relaxed
// load+store. Call sites in hot kernels still batch into plain locals and
// add once per phase; the measured overhead of the always-on registry
// with no snapshot taken is within noise on cad_pnr_bench and flow_qor.
//
// Registration (obs::counter/gauge/histogram) takes a mutex and must be
// cached at the call site:
//
//   static obs::Counter& c = obs::counter("map.cut_enumerations");
//   c.add(n);
//
// Metric names must be string literals (the registry stores the pointer).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace amdrel::obs {

namespace detail {

inline constexpr int kMaxCounters = 256;
inline constexpr int kMaxHistograms = 64;
inline constexpr int kMaxGauges = 64;
/// Power-of-two histogram buckets: bucket b counts values in
/// [2^(b-32), 2^(b-31)), covering ~2.3e-10 .. 4.3e9 with b 0..63.
inline constexpr int kHistBuckets = 64;

/// Per-thread slab of metric slots. Single writer (the owning thread);
/// relaxed atomics make cross-thread snapshot reads defined. Fixed-size
/// so a snapshot never races a reallocation.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters];
  struct Hist {
    std::atomic<std::uint64_t> buckets[kHistBuckets];
    std::atomic<std::uint64_t> count;
    std::atomic<std::uint64_t> sum_bits;  ///< double bit pattern
    std::atomic<std::uint64_t> min_bits;  ///< valid when count > 0
    std::atomic<std::uint64_t> max_bits;
  };
  Hist hists[kMaxHistograms];
};

Shard& local_shard();

/// Factory granting the registry (an implementation detail of
/// metrics.cpp) access to the private metric constructors.
struct MetricMaker {
  template <typename T>
  static T* make(int id) {
    return new T(id);
  }
};

/// Single-writer accumulate: safe because only the owning thread writes
/// this slot; the atomic makes the concurrent snapshot read torn-free.
inline void shard_add(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace detail

/// Monotonic event count, sharded per thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    detail::shard_add(detail::local_shard().counters[id_], n);
  }
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend struct detail::MetricMaker;
  explicit Counter(int id) : id_(id) {}
  int id_;
};

/// Last-write-wins instantaneous value (not sharded: a gauge has no
/// meaningful per-thread merge, so it is one relaxed global slot).
class Gauge {
 public:
  void set(double v);
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend struct detail::MetricMaker;
  explicit Gauge(int id) : id_(id) {}
  int id_;
};

/// Distribution of observed values, sharded per thread; the snapshot
/// reports count/sum/min/max exactly and p50/p95 from power-of-two
/// buckets (interpolated, so quantiles are approximate within a bucket).
class Histogram {
 public:
  void observe(double v);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend struct detail::MetricMaker;
  explicit Histogram(int id) : id_(id) {}
  int id_;
};

/// Looks up (or registers on first use) a metric. `name` must be a string
/// literal or otherwise outlive the process. Takes a lock — cache the
/// returned reference in a function-local static at the call site.
Counter& counter(const char* name);
Gauge& gauge(const char* name);
Histogram& histogram(const char* name);

/// Point-in-time merged view of every registered metric, name-sorted.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;  ///< bucket-interpolated
    double p95 = 0.0;  ///< bucket-interpolated
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Counter value by name (0 when absent) — the delta-friendly accessor
  /// FlowSession uses to fold per-stage counter deltas into StageMetrics.
  std::uint64_t counter(const std::string& name) const;

  /// One JSON object (schema in DESIGN.md §8):
  ///   {"counters":{"map.cut_enumerations":123,...},
  ///    "gauges":{"route.channel_width":12,...},
  ///    "histograms":{"spice.step_s":{"count":9,"sum":...,"min":...,
  ///                                  "max":...,"p50":...,"p95":...}}}
  util::Json to_json() const;

  /// Prometheus text exposition (version 0.0.4): counters and gauges as
  /// their native types, histograms as summaries (p50/p95 quantile
  /// samples plus _sum/_count). Names are mangled to the Prometheus
  /// charset — dots become underscores — and prefixed with "amdrel_",
  /// e.g. `route.pathfinder_iters` → `amdrel_route_pathfinder_iters`.
  /// Served by the daemon's `metrics` command with
  /// {"format":"prometheus"} (DESIGN.md §13.3).
  std::string to_prometheus() const;
};

/// Merges all shards. Counters registered but never bumped report 0.
MetricsSnapshot snapshot_metrics();

/// Zeroes every shard slot and gauge. Only meaningful while no other
/// thread is incrementing (tests and bench warm-up); concurrent writers
/// may resurrect pre-reset values.
void reset_metrics();

/// Writes snapshot_metrics().to_json().dump() plus a newline to `path`.
/// Throws amdrel::Error when the file cannot be written.
void write_metrics_file(const std::string& path);

}  // namespace amdrel::obs
