#include "flow/jobspec.hpp"

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "bitgen/bitstream.hpp"
#include "netlist/blif.hpp"
#include "netlist/edif.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "vhdl/synth.hpp"

namespace amdrel::flow {

namespace {

const char* kSourceNames[] = {"none", "blif", "vhdl", "file", "bench_gen"};

const char* source_name(JobSpec::Source source) {
  return kSourceNames[static_cast<int>(source)];
}

JobSpec::Source parse_source(const std::string& name) {
  if (name == "blif") return JobSpec::Source::kBlif;
  if (name == "vhdl") return JobSpec::Source::kVhdl;
  if (name == "file") return JobSpec::Source::kFile;
  if (name == "bench_gen") return JobSpec::Source::kBenchGen;
  throw Error("unknown job source '" + name +
              "' (expected blif, vhdl, file or bench_gen)");
}

std::vector<std::uint8_t> read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open: " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

int checked_int(const util::Json& v, const char* what) {
  const std::int64_t i = v.as_int();
  if (i < INT32_MIN || i > INT32_MAX) {
    throw Error(std::string(what) + ": out of int range");
  }
  return static_cast<int>(i);
}

/// Range-checks a spec's bench_gen counts, naming the first key out of
/// range: gates, inputs and outputs must be >= 1; latches, window and
/// bench_edits >= 0. job_spec_from_json and resolve_job_network (the CLI's
/// `bench_gen` path) both go through it.
void check_bench_counts(const JobSpec& spec) {
  const struct {
    const char* key;
    int value;
    int min;
  } counts[] = {
      {"bench.gates", spec.bench.n_gates, 1},
      {"bench.inputs", spec.bench.n_inputs, 1},
      {"bench.outputs", spec.bench.n_outputs, 1},
      {"bench.latches", spec.bench.n_latches, 0},
      {"bench.window", spec.bench.window, 0},
      {"bench_edits", spec.bench_edits, 0},
  };
  for (const auto& c : counts) {
    if (c.value < c.min) {
      throw Error(strprintf("job spec: %s must be >= %d, got %d", c.key,
                            c.min, c.value));
    }
  }
}

bench_gen::BenchSpec bench_from_json(const util::Json& json) {
  bench_gen::BenchSpec spec;
  for (const std::string& key : json.keys()) {
    const util::Json& v = json.at(key);
    if (key == "name") spec.name = v.as_string();
    else if (key == "gates") spec.n_gates = checked_int(v, "bench.gates");
    else if (key == "latches") spec.n_latches = checked_int(v, "bench.latches");
    else if (key == "inputs") spec.n_inputs = checked_int(v, "bench.inputs");
    else if (key == "outputs") spec.n_outputs = checked_int(v, "bench.outputs");
    else if (key == "locality") spec.locality = v.as_number();
    else if (key == "window") spec.window = checked_int(v, "bench.window");
    else if (key == "seed") spec.seed = v.as_u64();
    else throw Error("job spec: unknown bench key '" + key + "'");
  }
  return spec;
}

util::Json bench_to_json(const bench_gen::BenchSpec& spec) {
  util::Json obj = util::Json::make_object();
  obj.set("name", spec.name);
  obj.set("gates", spec.n_gates);
  obj.set("latches", spec.n_latches);
  obj.set("inputs", spec.n_inputs);
  obj.set("outputs", spec.n_outputs);
  obj.set("locality", util::Json::make_number(spec.locality));
  obj.set("window", spec.window);
  obj.set("seed", spec.seed);
  return obj;
}

void options_from_json(const util::Json& json, FlowOptions* options) {
  for (const std::string& key : json.keys()) {
    const util::Json& v = json.at(key);
    if (key == "seed") options->seed = v.as_u64();
    else if (key == "verify") options->verify_mode = parse_verify_mode(v.as_string());
    else if (key == "verify_seed") options->verify_seed = v.as_u64();
    else if (key == "verify_time_limit_s") options->verify_time_limit_s = v.as_number();
    else if (key == "check_invariants") options->check_invariants = v.as_bool();
    else if (key == "search_min_channel_width") options->search_min_channel_width = v.as_bool();
    else if (key == "rr_dedup") options->rr_dedup = v.as_bool();
    else if (key == "artifact_dir") options->artifact_dir = v.as_string();
    else throw Error("job spec: unknown options key '" + key + "'");
  }
}

util::Json options_to_json(const FlowOptions& options) {
  util::Json obj = util::Json::make_object();
  obj.set("seed", options.seed);
  obj.set("verify", verify_mode_name(options.verify_mode));
  obj.set("verify_seed", options.verify_seed);
  obj.set("verify_time_limit_s",
          util::Json::make_number(options.verify_time_limit_s));
  obj.set("check_invariants", options.check_invariants);
  obj.set("search_min_channel_width", options.search_min_channel_width);
  obj.set("rr_dedup", options.rr_dedup);
  if (!options.artifact_dir.empty()) {
    obj.set("artifact_dir", options.artifact_dir);
  }
  return obj;
}

}  // namespace

const char* job_priority_name(JobPriority priority) {
  switch (priority) {
    case JobPriority::kLow: return "low";
    case JobPriority::kNormal: return "normal";
    case JobPriority::kHigh: return "high";
  }
  return "?";
}

JobPriority parse_job_priority(const std::string& name) {
  if (name == "low") return JobPriority::kLow;
  if (name == "normal") return JobPriority::kNormal;
  if (name == "high") return JobPriority::kHigh;
  throw Error("unknown job priority '" + name +
              "' (expected low, normal or high)");
}

JobSpec job_spec_from_json(const util::Json& json) {
  if (!json.is_object()) throw Error("job spec: expected a JSON object");
  JobSpec spec;
  for (const std::string& key : json.keys()) {
    const util::Json& v = json.at(key);
    if (key == "label") spec.label = v.as_string();
    else if (key == "priority") spec.priority = parse_job_priority(v.as_string());
    else if (key == "source") spec.source = parse_source(v.as_string());
    else if (key == "text") spec.text = v.as_string();
    else if (key == "path") spec.path = v.as_string();
    else if (key == "top") spec.top = v.as_string();
    else if (key == "bench") spec.bench = bench_from_json(v);
    else if (key == "bench_edits") spec.bench_edits = checked_int(v, "bench_edits");
    else if (key == "until") spec.until = parse_stage(v.as_string());
    else if (key == "options") options_from_json(v, &spec.options);
    else if (key == "arch") spec.arch_text = v.as_string();
    else if (key == "return_bitstream") spec.return_bitstream = v.as_bool();
    else throw Error("job spec: unknown key '" + key + "'");
  }
  if (!spec.runnable()) throw Error("job spec: missing 'source'");
  switch (spec.source) {
    case JobSpec::Source::kBlif:
    case JobSpec::Source::kVhdl:
      if (spec.text.empty()) {
        throw Error(strprintf("job spec: source '%s' needs 'text'",
                              source_name(spec.source)));
      }
      break;
    case JobSpec::Source::kFile:
      if (spec.path.empty()) throw Error("job spec: source 'file' needs 'path'");
      break;
    case JobSpec::Source::kBenchGen:
      check_bench_counts(spec);
      break;
    case JobSpec::Source::kNone:
      break;
  }
  return spec;
}

JobSpec parse_job_spec_json(const std::string& text) {
  return job_spec_from_json(util::parse_json(text));
}

util::Json job_spec_to_json(const JobSpec& spec) {
  util::Json obj = util::Json::make_object();
  if (!spec.label.empty()) obj.set("label", spec.label);
  obj.set("priority", job_priority_name(spec.priority));
  obj.set("source", source_name(spec.source));
  switch (spec.source) {
    case JobSpec::Source::kBlif:
      obj.set("text", spec.text);
      break;
    case JobSpec::Source::kVhdl:
      obj.set("text", spec.text);
      obj.set("top", spec.top);
      break;
    case JobSpec::Source::kFile:
      obj.set("path", spec.path);
      obj.set("top", spec.top);
      break;
    case JobSpec::Source::kBenchGen:
      obj.set("bench", bench_to_json(spec.bench));
      if (spec.bench_edits > 0) obj.set("bench_edits", spec.bench_edits);
      break;
    case JobSpec::Source::kNone:
      break;
  }
  obj.set("until", stage_name(spec.until));
  obj.set("options", options_to_json(spec.options));
  if (!spec.arch_text.empty()) obj.set("arch", spec.arch_text);
  if (spec.return_bitstream) obj.set("return_bitstream", true);
  return obj;
}

namespace {

netlist::Network load_job_network(const JobSpec& spec) {
  switch (spec.source) {
    case JobSpec::Source::kBlif:
      return netlist::read_blif_string(spec.text);
    case JobSpec::Source::kVhdl:
      throw Error(
          "resolve_job_network: VHDL sources synthesize inside the flow's "
          "synth stage (construct a FlowSession from the JobSpec instead)");
    case JobSpec::Source::kFile: {
      const std::string& path = spec.path;
      if (ends_with(path, ".vhd") || ends_with(path, ".vhdl")) {
        throw Error(
            "resolve_job_network: VHDL sources synthesize inside the "
            "flow's synth stage (construct a FlowSession instead)");
      }
      if (ends_with(path, ".edif")) return netlist::read_edif_file(path);
      if (ends_with(path, ".bit")) {
        return bitgen::decode_to_network(
            bitgen::deserialize(read_binary_file(path)));
      }
      return netlist::read_blif_file(path);
    }
    case JobSpec::Source::kBenchGen: {
      check_bench_counts(spec);
      netlist::Network net = bench_gen::generate(spec.bench);
      if (spec.bench_edits > 0) {
        // bench_edits (`amdrel_cli bench_gen --edit N`) splits into a
        // third each of truth-table flips, rewires and added LUTs.
        bench_gen::EditSpec edit;
        edit.flips = (spec.bench_edits + 2) / 3;
        edit.rewires = (spec.bench_edits + 1) / 3;
        edit.added_luts = spec.bench_edits / 3;
        edit.seed = spec.bench.seed + 1;
        net = bench_gen::perturb(net, edit);
      }
      return net;
    }
    case JobSpec::Source::kNone:
      break;
  }
  throw Error("resolve_job_network: job spec has no source");
}

}  // namespace

netlist::Network resolve_job_network(const JobSpec& spec) {
  // Outside netlists are checked before any kernel sees them: an undriven
  // or multiply-driven signal fails the job with its reason instead of
  // reaching the mapper's unchecked signal indexing.
  netlist::Network net = load_job_network(spec);
  net.validate();
  return net;
}

std::string fnv1a64_hex(const std::vector<std::uint8_t>& bytes) {
  bitgen::HashSink sink;
  sink.write(bytes.data(), bytes.size());
  return strprintf("%016llx", static_cast<unsigned long long>(sink.hash()));
}

util::Json job_result_to_json(const JobSpec& spec, const FlowResult& result) {
  util::Json obj = util::Json::make_object();
  if (!spec.label.empty()) obj.set("label", spec.label);
  obj.set("until", stage_name(spec.until));

  util::Json stages = util::Json::make_object();
  for (int s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    const StageMetrics& m = result.metrics(stage);
    if (!m.ran) continue;
    util::Json sm = util::Json::make_object();
    sm.set("wall_s", util::Json::make_number(m.wall_s));
    // obs::peak_rss_kb() is process-wide and monotone, not per-stage or
    // per-job — under a concurrent daemon it reads as "peak RSS of the
    // whole process so far", so the key says exactly that (DESIGN.md §13).
    sm.set("process_peak_rss_kb", static_cast<std::int64_t>(m.peak_rss_kb));
    if (!m.counters.empty()) {
      util::Json counters = util::Json::make_object();
      for (const auto& [name, delta] : m.counters) {
        counters.set(name, static_cast<std::int64_t>(delta));
      }
      sm.set("counters", std::move(counters));
    }
    stages.set(stage_name(stage), std::move(sm));
  }
  obj.set("stages", std::move(stages));

  if (result.metrics(Stage::kMap).ran) {
    obj.set("luts", result.map_stats.luts);
    obj.set("depth", result.map_stats.depth);
  }
  if (result.metrics(Stage::kRoute).ran) {
    obj.set("channel_width", result.channel_width);
    obj.set("wires", result.routing.total_wire_nodes);
  }
  if (result.metrics(Stage::kPower).ran) {
    obj.set("power_mw", util::Json::make_number(result.power.total_w * 1e3));
    obj.set("critical_path_ns",
            util::Json::make_number(result.timing.critical_path_s * 1e9));
  }
  if (result.metrics(Stage::kBitgen).ran) {
    obj.set("config_bits",
            static_cast<std::int64_t>(result.bitstream.config_bits()));
    obj.set("bitstream_bytes",
            static_cast<std::int64_t>(result.bitstream_bytes.size()));
    obj.set("bitstream_fnv", fnv1a64_hex(result.bitstream_bytes));
    if (spec.return_bitstream) {
      std::string hex;
      hex.reserve(result.bitstream_bytes.size() * 2);
      static const char* kDigits = "0123456789abcdef";
      for (const std::uint8_t b : result.bitstream_bytes) {
        hex.push_back(kDigits[b >> 4]);
        hex.push_back(kDigits[b & 0xf]);
      }
      obj.set("bitstream_hex", std::move(hex));
    }
  }
  return obj;
}

JobSpecCli parse_job_spec(int* argc, char** argv) {
  JobSpecCli cli;
  int out = 1;
  const int n = *argc;
  auto value = [&](int* i, const char* flag) -> const char* {
    if (*i + 1 >= n) throw Error(std::string(flag) + ": missing value");
    return argv[++*i];
  };
  for (int i = 1; i < n; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--trace") == 0) {
      cli.runtime.trace = value(&i, a);
    } else if (std::strcmp(a, "--metrics") == 0) {
      cli.runtime.metrics = value(&i, a);
    } else if (std::strcmp(a, "--progress") == 0) {
      cli.runtime.progress = true;
    } else if (std::strcmp(a, "--threads") == 0) {
      cli.runtime.threads = parse_int(value(&i, a), "--threads");
      if (cli.runtime.threads < 0) cli.runtime.threads = 0;
    } else if (std::strcmp(a, "--dense") == 0) {
      cli.runtime.dense_mna = true;
    } else if (std::strcmp(a, "--rr-dedup") == 0) {
      cli.spec.options.rr_dedup = true;  // the default
    } else if (std::strcmp(a, "--rr-dense") == 0) {
      cli.spec.options.rr_dedup = false;  // dense per-node oracle RR graph
    } else if (std::strcmp(a, "--verify") == 0) {
      cli.spec.options.verify_mode = parse_verify_mode(value(&i, a));
      cli.verify_given = true;
    } else if (std::strcmp(a, "--seed") == 0) {
      cli.spec.options.seed = parse_u64(value(&i, a), "--seed");
      cli.seed_given = true;
    } else if (std::strcmp(a, "--priority") == 0) {
      cli.spec.priority = parse_job_priority(value(&i, a));
    } else if (std::strcmp(a, "--until") == 0) {
      cli.spec.until = parse_stage(value(&i, a));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return cli;
}

obs::ScopedSink install_runtime_trace(const JobRuntime& runtime) {
  if (!runtime.trace.empty()) {
    return obs::ScopedSink(std::make_unique<obs::JsonlSink>(runtime.trace));
  }
  if (runtime.progress) {
    return obs::ScopedSink(std::make_unique<obs::TextSink>());
  }
  return obs::ScopedSink();
}

RuntimeMetricsGuard::~RuntimeMetricsGuard() {
  if (path.empty()) return;
  try {
    obs::write_metrics_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
}

}  // namespace amdrel::flow
