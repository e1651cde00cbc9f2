#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <set>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace amdrel::obs {

namespace {

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
  *out = TraceEvent{};
  bool have_type = false;
  try {
    const util::Json event = util::parse_json(line);
    if (!event.is_object()) return false;
    for (const std::string& key : event.keys()) {
      const util::Json& v = event.at(key);
      if (key == "type") {
        const std::string& type = v.as_string();
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
        out->name = v.as_string();
      } else if (key == "t") {
        out->t_s = v.as_number();
      } else if (key == "dur") {
        out->dur_s = v.as_number();
      } else if (key == "id") {
        out->id = v.as_u64();
      } else if (key == "parent") {
        out->parent = v.as_u64();
      } else if (key == "trace") {
        out->trace = v.as_string();
      } else if (key == "metrics" && v.is_object()) {
        for (const std::string& mkey : v.keys()) {
          // null: a non-finite value the sink could not print.
          if (v.at(mkey).is_null()) continue;
          out->metrics.emplace_back(mkey, v.at(mkey).as_number());
        }
      } else {
        return false;  // unknown key or non-object metrics: not a trace line
      }
    }
  } catch (const Error&) {
    return false;  // not JSON, or a field of the wrong type
  }
  return have_type && !out->name.empty();
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

util::Json TraceReport::to_json() const {
  util::Json out = util::Json::make_object();
  out.set("events", events);
  out.set("skipped_lines", skipped_lines);
  out.set("unmatched_ends", unmatched_ends);
  out.set("traces", traces);
  out.set("trace_dur_s", trace_dur_s);
  util::Json names = util::Json::make_array();
  for (const NameAggregate& a : aggregates) {
    util::Json name = util::Json::make_object();
    name.set("name", a.name);
    name.set("kind", a.is_span ? "span" : "point");
    name.set("count", a.count);
    name.set("total_s", a.total_s);
    name.set("self_s", a.self_s);
    name.set("p50_s", a.p50_s);
    name.set("p95_s", a.p95_s);
    util::Json metrics = util::Json::make_object();
    for (const auto& [k, v] : a.metric_sums) metrics.set(k, v);
    name.set("metrics", std::move(metrics));
    names.push_back(std::move(name));
  }
  out.set("names", std::move(names));
  util::Json flow = util::Json::make_object();
  flow.set("flows", qor.flows);
  flow.set("total_wall_s", qor.total_wall_s);
  util::Json stages = util::Json::make_object();
  for (const auto& [stage, w] : qor.stages) {
    util::Json sw = util::Json::make_object();
    sw.set("runs", w.runs);
    sw.set("wall_s", w.wall_s);
    stages.set(stage, std::move(sw));
  }
  flow.set("stages", std::move(stages));
  flow.set("channel_width_max", qor.channel_width_max);
  flow.set("wire_nodes", qor.wire_nodes);
  flow.set("luts", qor.luts);
  flow.set("clbs", qor.clbs);
  flow.set("config_bits", qor.config_bits);
  flow.set("bitstream_bytes", qor.bitstream_bytes);
  flow.set("critical_path_ns_max", qor.critical_path_ns_max);
  flow.set("power_mw", qor.power_mw);
  out.set("flow_qor", std::move(flow));
  return out;
}

}  // namespace amdrel::obs
