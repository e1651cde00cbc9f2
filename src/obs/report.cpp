#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace amdrel::obs {

namespace {

/// Cursor over one JSONL line. The trace schema is flat — string and
/// number values plus one optional single-level "metrics" object — so
/// this stays a few screens instead of a JSON library.
class LineCursor {
 public:
  explicit LineCursor(const std::string& s) : s_(s) {}

  bool lit(char c) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  bool string(std::string* out) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;  // keep escaped char
      out->push_back(s_[i_++]);
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  bool number(double* out) {
    skip_ws();
    const char* start = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    i_ += static_cast<std::size_t>(end - start);
    *out = v;
    return true;
  }

  bool at_end() {
    skip_ws();
    return i_ >= s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  const std::string& s_;
  std::size_t i_ = 0;
};

/// Exact quantile over a sorted sample (nearest-rank).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

struct AggBuild {
  bool is_span = false;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations;
  std::map<std::string, double> metric_sums;
};

void walk_span(const SpanNode& node, std::map<std::string, AggBuild>* aggs,
               FlowQorSummary* qor) {
  AggBuild& a = (*aggs)[node.name];
  a.is_span = true;
  ++a.count;
  a.total_s += node.dur_s;
  a.durations.push_back(node.dur_s);
  double child_s = 0.0;
  for (const SpanNode& c : node.children) child_s += c.dur_s;
  a.self_s += std::max(0.0, node.dur_s - child_s);
  auto metric = [&node](const char* key) -> const double* {
    for (const auto& [k, v] : node.metrics) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  for (const auto& [k, v] : node.metrics) a.metric_sums[k] += v;

  // Flow QoR: stage walls from the flow.<stage> spans, headline numbers
  // from the metrics FlowSession attaches to them (session.cpp).
  if (node.name.rfind("flow.", 0) == 0) {
    const std::string stage = node.name.substr(5);
    StageWall& w = qor->stages[stage];
    ++w.runs;
    w.wall_s += node.dur_s;
    qor->total_wall_s += node.dur_s;
    if (stage == "bitgen") ++qor->flows;
    if (const double* v = metric("channel_width")) {
      qor->channel_width_max = std::max(qor->channel_width_max, *v);
    }
    if (const double* v = metric("wire_nodes")) qor->wire_nodes += *v;
    if (const double* v = metric("luts")) qor->luts += *v;
    if (const double* v = metric("clbs")) qor->clbs += *v;
    if (const double* v = metric("config_bits")) qor->config_bits += *v;
    if (const double* v = metric("bitstream_bytes")) {
      qor->bitstream_bytes += *v;
    }
    if (const double* v = metric("critical_path_ns")) {
      qor->critical_path_ns_max = std::max(qor->critical_path_ns_max, *v);
    }
    if (const double* v = metric("power_mw")) qor->power_mw += *v;
  }

  for (const SpanNode& c : node.children) walk_span(c, aggs, qor);
}

}  // namespace

bool parse_trace_line(const std::string& line, TraceEvent* out) {
  LineCursor c(line);
  if (!c.lit('{')) return false;
  *out = TraceEvent{};
  bool have_type = false;
  bool first = true;
  while (true) {
    if (c.lit('}')) break;
    if (!first && !c.lit(',')) return false;
    first = false;
    std::string key;
    if (!c.string(&key) || !c.lit(':')) return false;
    if (key == "type") {
      std::string type;
      if (!c.string(&type)) return false;
      if (type == "begin") {
        out->kind = TraceEvent::Kind::kBegin;
      } else if (type == "span") {
        out->kind = TraceEvent::Kind::kEnd;
      } else if (type == "point") {
        out->kind = TraceEvent::Kind::kPoint;
      } else {
        return false;
      }
      have_type = true;
    } else if (key == "name") {
      if (!c.string(&out->name)) return false;
    } else if (key == "t") {
      if (!c.number(&out->t_s)) return false;
    } else if (key == "dur") {
      if (!c.number(&out->dur_s)) return false;
    } else if (key == "id") {
      double v = 0.0;
      if (!c.number(&v) || v < 0) return false;
      out->id = static_cast<std::uint64_t>(v);
    } else if (key == "parent") {
      double v = 0.0;
      if (!c.number(&v) || v < 0) return false;
      out->parent = static_cast<std::uint64_t>(v);
    } else if (key == "trace") {
      if (!c.string(&out->trace)) return false;
    } else if (key == "metrics") {
      if (!c.lit('{')) return false;
      if (!c.lit('}')) {
        while (true) {
          std::string mkey;
          double mval = 0.0;
          if (!c.string(&mkey) || !c.lit(':') || !c.number(&mval)) {
            return false;
          }
          out->metrics.emplace_back(std::move(mkey), mval);
          if (c.lit(',')) continue;
          if (c.lit('}')) break;
          return false;
        }
      }
    } else {
      return false;  // unknown key: not a trace line
    }
  }
  return have_type && !out->name.empty() && c.at_end();
}

TraceReport analyze_trace(std::istream& in) {
  TraceReport report;
  // Id-carrying spans pair begin↔end by id and parent by the recorded
  // parent id — exact even when 64 jobs interleave in one stream.
  std::map<std::uint64_t, SpanNode> open_by_id;
  std::map<std::uint64_t, std::uint64_t> parent_by_id;
  // Id-less (legacy) spans fall back to the nearest-open-name stack.
  std::vector<SpanNode> stack;
  std::set<std::string> trace_ids;
  std::map<std::string, AggBuild> aggs;

  std::string line;
  TraceEvent e;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!parse_trace_line(line, &e)) {
      ++report.skipped_lines;
      continue;
    }
    ++report.events;
    report.trace_dur_s = std::max(report.trace_dur_s, e.t_s + e.dur_s);
    if (!e.trace.empty()) trace_ids.insert(e.trace);
    switch (e.kind) {
      case TraceEvent::Kind::kBegin: {
        SpanNode node;
        node.name = std::move(e.name);
        node.t_s = e.t_s;
        node.id = e.id;
        node.trace = std::move(e.trace);
        if (e.id != 0) {
          parent_by_id[e.id] = e.parent;
          open_by_id[e.id] = std::move(node);
        } else {
          stack.push_back(std::move(node));
        }
        break;
      }
      case TraceEvent::Kind::kEnd: {
        if (e.id != 0) {
          auto it = open_by_id.find(e.id);
          if (it == open_by_id.end()) {
            ++report.unmatched_ends;
            break;
          }
          SpanNode node = std::move(it->second);
          const std::uint64_t parent = parent_by_id[e.id];
          open_by_id.erase(it);
          parent_by_id.erase(e.id);
          node.dur_s = e.dur_s;
          node.metrics = std::move(e.metrics);
          // Attach under the parent if it is still open; a parent that
          // already closed (cross-thread finish) makes this a root.
          auto pit = parent != 0 ? open_by_id.find(parent)
                                 : open_by_id.end();
          if (pit != open_by_id.end()) {
            pit->second.children.push_back(std::move(node));
          } else {
            report.roots.push_back(std::move(node));
          }
          break;
        }
        // Close the nearest open span with this name (concurrent spans
        // interleave; see the header caveat).
        std::size_t i = stack.size();
        while (i > 0 && stack[i - 1].name != e.name) --i;
        if (i == 0) {
          ++report.unmatched_ends;
          break;
        }
        SpanNode node = std::move(stack[i - 1]);
        stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i - 1));
        node.dur_s = e.dur_s;
        node.metrics = std::move(e.metrics);
        if (i - 1 > 0) {
          stack[i - 2].children.push_back(std::move(node));
        } else {
          report.roots.push_back(std::move(node));
        }
        break;
      }
      case TraceEvent::Kind::kPoint: {
        AggBuild& a = aggs[e.name];
        a.is_span = false;
        ++a.count;
        for (const auto& [k, v] : e.metrics) a.metric_sums[k] += v;
        break;
      }
    }
  }
  // Crash tail: spans begun but never ended. Promote their finished
  // children so completed work still reports, and drop the open shells.
  // Ids are allocated at begin, so a child's id always exceeds its
  // parent's — walking descending ids handles children before parents.
  while (!open_by_id.empty()) {
    auto it = std::prev(open_by_id.end());
    SpanNode open = std::move(it->second);
    const std::uint64_t parent = parent_by_id[it->first];
    parent_by_id.erase(it->first);
    open_by_id.erase(it);
    auto pit =
        parent != 0 ? open_by_id.find(parent) : open_by_id.end();
    auto& dest =
        pit != open_by_id.end() ? pit->second.children : report.roots;
    for (SpanNode& c : open.children) dest.push_back(std::move(c));
  }
  while (!stack.empty()) {
    SpanNode open = std::move(stack.back());
    stack.pop_back();
    auto& dest = stack.empty() ? report.roots : stack.back().children;
    for (SpanNode& c : open.children) dest.push_back(std::move(c));
  }
  report.traces = trace_ids.size();

  for (const SpanNode& root : report.roots) {
    walk_span(root, &aggs, &report.qor);
  }

  for (auto& [name, a] : aggs) {
    NameAggregate agg;
    agg.name = name;
    agg.is_span = a.is_span;
    agg.count = a.count;
    agg.total_s = a.total_s;
    agg.self_s = a.self_s;
    std::sort(a.durations.begin(), a.durations.end());
    agg.p50_s = quantile(a.durations, 0.50);
    agg.p95_s = quantile(a.durations, 0.95);
    agg.metric_sums = std::move(a.metric_sums);
    report.aggregates.push_back(std::move(agg));
  }
  std::sort(report.aggregates.begin(), report.aggregates.end(),
            [](const NameAggregate& x, const NameAggregate& y) {
              if (x.total_s != y.total_s) return x.total_s > y.total_s;
              return x.name < y.name;
            });
  return report;
}

TraceReport analyze_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open trace file: " + path);
  return analyze_trace(in);
}

std::string TraceReport::to_text() const {
  std::string out = strprintf(
      "trace report: %llu events, %.3f s traced "
      "(%llu unparseable lines, %llu unmatched span ends)\n",
      static_cast<unsigned long long>(events), trace_dur_s,
      static_cast<unsigned long long>(skipped_lines),
      static_cast<unsigned long long>(unmatched_ends));
  if (traces > 0) {
    out += strprintf("  %llu distinct trace id%s%s\n",
                     static_cast<unsigned long long>(traces),
                     traces == 1 ? "" : "s",
                     traces > 1 ? " (multi-job trace)" : "");
  }
  out += "\n";
  out += strprintf("  %-28s %-5s %8s %10s %10s %10s %10s\n", "name", "kind",
                   "count", "total_s", "self_s", "p50_s", "p95_s");
  for (const auto& a : aggregates) {
    if (a.is_span) {
      out += strprintf("  %-28s %-5s %8llu %10.4f %10.4f %10.4f %10.4f\n",
                       a.name.c_str(), "span",
                       static_cast<unsigned long long>(a.count), a.total_s,
                       a.self_s, a.p50_s, a.p95_s);
    } else {
      out += strprintf("  %-28s %-5s %8llu %10s %10s %10s %10s\n",
                       a.name.c_str(), "point",
                       static_cast<unsigned long long>(a.count), "-", "-",
                       "-", "-");
    }
  }
  if (qor.stages.empty()) return out;

  out += strprintf("\nflow QoR summary (%llu completed flows):\n",
                   static_cast<unsigned long long>(qor.flows));
  out += "  stage walls:";
  // Pipeline order, not map order.
  static const char* kOrder[] = {"synth", "map",    "pack",  "place",
                                 "route", "power", "bitgen"};
  bool any = false;
  for (const char* stage : kOrder) {
    auto it = qor.stages.find(stage);
    if (it == qor.stages.end()) continue;
    out += strprintf("%s %s %.3fs", any ? "," : "", stage,
                     it->second.wall_s);
    any = true;
  }
  out += strprintf("  (total %.3fs)\n", qor.total_wall_s);
  out += strprintf("  channel width (max)   %.0f\n", qor.channel_width_max);
  out += strprintf("  routed wire nodes     %.0f\n", qor.wire_nodes);
  out += strprintf("  LUTs                  %.0f\n", qor.luts);
  out += strprintf("  CLBs                  %.0f\n", qor.clbs);
  out += strprintf("  config bits           %.0f\n", qor.config_bits);
  out += strprintf("  bitstream bytes       %.0f\n", qor.bitstream_bytes);
  out += strprintf("  critical path (max)   %.3f ns\n",
                   qor.critical_path_ns_max);
  out += strprintf("  power (sum)           %.3f mW\n", qor.power_mw);
  return out;
}

std::string TraceReport::to_json() const {
  std::string out = strprintf(
      "{\"events\":%llu,\"skipped_lines\":%llu,\"unmatched_ends\":%llu,"
      "\"traces\":%llu,\"trace_dur_s\":%.9g,\"names\":[",
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(skipped_lines),
      static_cast<unsigned long long>(unmatched_ends),
      static_cast<unsigned long long>(traces), trace_dur_s);
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const auto& a = aggregates[i];
    out += strprintf(
        "%s{\"name\":\"%s\",\"kind\":\"%s\",\"count\":%llu,"
        "\"total_s\":%.9g,\"self_s\":%.9g,\"p50_s\":%.9g,\"p95_s\":%.9g,"
        "\"metrics\":{",
        i > 0 ? "," : "", util::json_escape_string(a.name).c_str(),
        a.is_span ? "span" : "point",
        static_cast<unsigned long long>(a.count), a.total_s, a.self_s,
        a.p50_s, a.p95_s);
    bool first = true;
    for (const auto& [k, v] : a.metric_sums) {
      out += strprintf("%s\"%s\":%.9g", first ? "" : ",",
                       util::json_escape_string(k).c_str(), v);
      first = false;
    }
    out += "}}";
  }
  out += strprintf(
      "],\"flow_qor\":{\"flows\":%llu,\"total_wall_s\":%.9g,\"stages\":{",
      static_cast<unsigned long long>(qor.flows), qor.total_wall_s);
  bool first = true;
  for (const auto& [stage, w] : qor.stages) {
    out += strprintf("%s\"%s\":{\"runs\":%llu,\"wall_s\":%.9g}",
                     first ? "" : ",", util::json_escape_string(stage).c_str(),
                     static_cast<unsigned long long>(w.runs), w.wall_s);
    first = false;
  }
  out += strprintf(
      "},\"channel_width_max\":%.9g,\"wire_nodes\":%.9g,\"luts\":%.9g,"
      "\"clbs\":%.9g,\"config_bits\":%.9g,\"bitstream_bytes\":%.9g,"
      "\"critical_path_ns_max\":%.9g,\"power_mw\":%.9g}}",
      qor.channel_width_max, qor.wire_nodes, qor.luts, qor.clbs,
      qor.config_bits, qor.bitstream_bytes, qor.critical_path_ns_max,
      qor.power_mw);
  return out;
}

}  // namespace amdrel::obs
