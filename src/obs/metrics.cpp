#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::obs {

namespace detail {
namespace {

/// Name → slot tables plus every shard ever created. Shards are owned
/// here and never destroyed (a dead thread's counts must stay visible);
/// exiting threads park theirs on a free list for reuse, which keeps the
/// shard population bounded by peak thread concurrency.
class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry();  // leaked: outlives TLS dtors
    return *r;
  }

  Counter& get_counter(const char* name) {
    return get_slot(name, counters_, counter_names_, kMaxCounters, "counter");
  }
  Gauge& get_gauge(const char* name) {
    Gauge& g =
        get_slot(name, gauges_, gauge_names_, kMaxGauges, "gauge");
    return g;
  }
  Histogram& get_histogram(const char* name) {
    return get_slot(name, histograms_, hist_names_, kMaxHistograms,
                    "histogram");
  }

  Shard* acquire_shard() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_shards_.empty()) {
      Shard* s = free_shards_.back();
      free_shards_.pop_back();
      return s;
    }
    shards_.push_back(std::make_unique<Shard>());
    return shards_.back().get();
  }

  void park_shard(Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    free_shards_.push_back(shard);
  }

  void set_gauge(int id, double v) {
    gauge_values_[id].store(std::bit_cast<std::uint64_t>(v),
                            std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot();
  void reset();

 private:
  Registry() = default;

  template <typename T>
  T& get_slot(const char* name, std::vector<std::unique_ptr<T>>& slots,
              std::map<std::string, int>& names, int cap, const char* kind) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = names.find(name);
    if (it != names.end()) return *slots[static_cast<std::size_t>(it->second)];
    const int id = static_cast<int>(slots.size());
    AMDREL_CHECK_MSG(id < cap, strprintf("metrics registry: too many %ss "
                                         "(cap %d)",
                                         kind, cap));
    names.emplace(name, id);
    slots.push_back(std::unique_ptr<T>(MetricMaker::make<T>(id)));
    return *slots.back();
  }

  std::mutex mu_;
  std::map<std::string, int> counter_names_;
  std::map<std::string, int> gauge_names_;
  std::map<std::string, int> hist_names_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard*> free_shards_;
  std::atomic<std::uint64_t> gauge_values_[kMaxGauges] = {};
};

double bits_to_double(std::uint64_t bits) {
  return std::bit_cast<double>(bits);
}

/// Lower edge of histogram bucket b (see kHistBuckets in metrics.hpp).
double bucket_floor(int b) { return std::ldexp(1.0, b - 32); }

int bucket_of(double v) {
  if (!(v > 0.0)) return 0;  // zero/negative/NaN observations park in b0
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  return std::clamp(exp + 31, 0, kHistBuckets - 1);
}

/// Quantile from merged buckets: walk to the bucket holding the q-th
/// observation and interpolate linearly inside it.
double bucket_quantile(const std::uint64_t* buckets, std::uint64_t count,
                       double q, double vmin, double vmax) {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (int b = 0; b < kHistBuckets; ++b) {
    const double n = static_cast<double>(buckets[b]);
    if (n == 0.0) continue;
    if (cum + n >= target) {
      const double lo = b == 0 ? 0.0 : bucket_floor(b);
      const double hi = bucket_floor(b + 1);
      const double frac = std::clamp((target - cum) / n, 0.0, 1.0);
      return std::clamp(lo + frac * (hi - lo), vmin, vmax);
    }
    cum += n;
  }
  return vmax;
}

MetricsSnapshot Registry::snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, id] : counter_names_) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[id].load(std::memory_order_relaxed);
    }
    snap.counters.push_back({name, total});
  }
  for (const auto& [name, id] : gauge_names_) {
    snap.gauges.push_back(
        {name, bits_to_double(
                   gauge_values_[id].load(std::memory_order_relaxed))});
  }
  for (const auto& [name, id] : hist_names_) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    std::uint64_t buckets[kHistBuckets] = {};
    bool any = false;
    for (const auto& shard : shards_) {
      const auto& hs = shard->hists[id];
      const std::uint64_t c = hs.count.load(std::memory_order_relaxed);
      if (c == 0) continue;
      h.count += c;
      h.sum += bits_to_double(hs.sum_bits.load(std::memory_order_relaxed));
      const double mn =
          bits_to_double(hs.min_bits.load(std::memory_order_relaxed));
      const double mx =
          bits_to_double(hs.max_bits.load(std::memory_order_relaxed));
      h.min = any ? std::min(h.min, mn) : mn;
      h.max = any ? std::max(h.max, mx) : mx;
      any = true;
      for (int b = 0; b < kHistBuckets; ++b) {
        buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
      }
    }
    h.p50 = bucket_quantile(buckets, h.count, 0.50, h.min, h.max);
    h.p95 = bucket_quantile(buckets, h.count, 0.95, h.min, h.max);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard->hists) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum_bits.store(0, std::memory_order_relaxed);
      h.min_bits.store(0, std::memory_order_relaxed);
      h.max_bits.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& g : gauge_values_) g.store(0, std::memory_order_relaxed);
}

/// Owns this thread's shard binding; parks the shard for reuse when the
/// thread exits (values survive — the shard stays in the registry).
struct ShardHandle {
  Shard* shard = nullptr;
  ~ShardHandle() {
    if (shard != nullptr) Registry::instance().park_shard(shard);
  }
};

}  // namespace

Shard& local_shard() {
  thread_local ShardHandle tls;
  if (tls.shard == nullptr) tls.shard = Registry::instance().acquire_shard();
  return *tls.shard;
}

}  // namespace detail

void Gauge::set(double v) { detail::Registry::instance().set_gauge(id_, v); }

void Histogram::observe(double v) {
  auto& h = detail::local_shard().hists[id_];
  const std::uint64_t c = h.count.load(std::memory_order_relaxed);
  detail::shard_add(h.buckets[detail::bucket_of(v)], 1);
  h.sum_bits.store(
      std::bit_cast<std::uint64_t>(
          std::bit_cast<double>(h.sum_bits.load(std::memory_order_relaxed)) +
          v),
      std::memory_order_relaxed);
  if (c == 0 ||
      v < std::bit_cast<double>(h.min_bits.load(std::memory_order_relaxed))) {
    h.min_bits.store(std::bit_cast<std::uint64_t>(v),
                     std::memory_order_relaxed);
  }
  if (c == 0 ||
      v > std::bit_cast<double>(h.max_bits.load(std::memory_order_relaxed))) {
    h.max_bits.store(std::bit_cast<std::uint64_t>(v),
                     std::memory_order_relaxed);
  }
  h.count.store(c + 1, std::memory_order_relaxed);
}

Counter& counter(const char* name) {
  return detail::Registry::instance().get_counter(name);
}
Gauge& gauge(const char* name) {
  return detail::Registry::instance().get_gauge(name);
}
Histogram& histogram(const char* name) {
  return detail::Registry::instance().get_histogram(name);
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

util::Json MetricsSnapshot::to_json() const {
  util::Json c = util::Json::make_object();
  for (const CounterValue& v : counters) c.set(v.name, v.value);
  util::Json g = util::Json::make_object();
  for (const GaugeValue& v : gauges) g.set(v.name, v.value);
  util::Json h = util::Json::make_object();
  for (const HistogramValue& v : histograms) {
    util::Json summary = util::Json::make_object();
    summary.set("count", v.count);
    summary.set("sum", v.sum);
    summary.set("min", v.min);
    summary.set("max", v.max);
    summary.set("p50", v.p50);
    summary.set("p95", v.p95);
    h.set(v.name, std::move(summary));
  }
  util::Json out = util::Json::make_object();
  out.set("counters", std::move(c));
  out.set("gauges", std::move(g));
  out.set("histograms", std::move(h));
  return out;
}

namespace {

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names are
/// dotted lowercase identifiers, so mangling is dots→underscores plus a
/// defensive sweep for anything else.
std::string prom_name(const std::string& name) {
  std::string out = "amdrel_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const auto& c : counters) {
    const std::string n = prom_name(c.name);
    out += strprintf("# TYPE %s counter\n%s %llu\n", n.c_str(), n.c_str(),
                     static_cast<unsigned long long>(c.value));
  }
  for (const auto& g : gauges) {
    const std::string n = prom_name(g.name);
    out += strprintf("# TYPE %s gauge\n%s %.9g\n", n.c_str(), n.c_str(),
                     g.value);
  }
  for (const auto& h : histograms) {
    const std::string n = prom_name(h.name);
    out += strprintf("# TYPE %s summary\n", n.c_str());
    out += strprintf("%s{quantile=\"0.5\"} %.9g\n", n.c_str(), h.p50);
    out += strprintf("%s{quantile=\"0.95\"} %.9g\n", n.c_str(), h.p95);
    out += strprintf("%s_sum %.9g\n", n.c_str(), h.sum);
    out += strprintf("%s_count %llu\n", n.c_str(),
                     static_cast<unsigned long long>(h.count));
  }
  return out;
}

MetricsSnapshot snapshot_metrics() {
  return detail::Registry::instance().snapshot();
}

void reset_metrics() { detail::Registry::instance().reset(); }

void write_metrics_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Error("cannot open metrics file: " + path);
  const std::string json = snapshot_metrics().to_json().dump() + "\n";
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace amdrel::obs
