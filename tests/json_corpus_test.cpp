// Deterministic mutation corpus for the JSON entry points. Four seed
// documents — a JobSpec carrying arch text, a serve `submit` request, a
// JSONL span line with metrics and a metrics snapshot — each take ~2000
// seeded single-byte mutations (flip, insert a JSON-significant byte,
// delete, truncate). Every mutant must leave util::parse_json and
// flow::parse_job_spec_json returning or throwing amdrel::Error, and
// obs::parse_trace_line returning true or false; nothing else may
// escape. Runs in well under a second, so the sanitizer jobs run it too.

#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "flow/jobspec.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace amdrel {
namespace {

constexpr int kMutationsPerSeed = 2000;

flow::JobSpec corpus_job() {
  flow::JobSpec job;
  job.label = "corpus";
  job.priority = flow::JobPriority::kHigh;
  job.source = flow::JobSpec::Source::kBenchGen;
  job.bench.n_gates = 60;
  job.bench.n_latches = 4;
  job.bench.seed = (std::uint64_t{1} << 53) + 1;
  job.options.verify_mode = flow::VerifyMode::kFormal;
  job.options.search_min_channel_width = true;
  return job;
}

std::vector<std::string> seed_documents() {
  flow::JobSpec with_arch = corpus_job();
  with_arch.arch_text = arch::write_arch_string(arch::ArchSpec{});

  util::Json submit = util::Json::make_object();
  submit.set("cmd", "submit");
  submit.set("job", flow::job_spec_to_json(corpus_job()));

  obs::MetricsSnapshot snap;
  snap.counters = {{"place.moves", 21505}, {"route.iterations", 13}};
  snap.gauges = {{"route.channel_width", 12.0}};
  snap.histograms = {{"spice.step_s", 412, 0.8, 1e-6, 0.01, 0.0019, 0.0071}};

  return {
      flow::job_spec_to_json(with_arch).dump(),
      submit.dump(),
      R"({"type":"span","name":"flow.route","t":1.5,"dur":0.25,"id":7,)"
      R"("parent":3,"trace":"job-1","metrics":{"channel_width":12,)"
      R"("wire_nodes":340,"power_mw":1.25e-3}})",
      snap.to_json().dump(),
  };
}

/// One seeded mutation: flip a byte, insert a JSON-significant byte,
/// delete a byte, or truncate.
std::string mutate(const std::string& doc, Rng* rng) {
  static const std::string kInsert = "{}[]\":,\\-+.eE0123456789";
  std::string out = doc;
  const std::uint64_t n = out.size();
  switch (rng->next_below(4)) {
    case 0: {
      const std::size_t at = rng->next_below(n);
      out[at] = static_cast<char>(out[at] ^ (1 + rng->next_below(255)));
      break;
    }
    case 1: {
      const std::size_t at = rng->next_below(n + 1);
      out.insert(at, 1, kInsert[rng->next_below(kInsert.size())]);
      break;
    }
    case 2:
      out.erase(rng->next_below(n), 1);
      break;
    default:
      out.resize(rng->next_below(n));
      break;
  }
  return out;
}

/// Runs `parse`; true when it returned, false when it threw Error. Any
/// other exception is a test failure.
template <typename Fn>
bool returns_or_throws_error(const std::string& doc, Fn&& parse) {
  try {
    parse();
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-Error exception escaped: " << e.what() << "\n"
                  << doc;
  } catch (...) {
    ADD_FAILURE() << "non-std exception escaped\n" << doc;
  }
  return false;
}

TEST(JsonCorpus, SeedDocumentsParse) {
  const std::vector<std::string> seeds = seed_documents();
  EXPECT_EQ(flow::parse_job_spec_json(seeds[0]).arch_text,
            arch::write_arch_string(arch::ArchSpec{}));
  EXPECT_EQ(util::parse_json(seeds[1]).at("cmd").as_string(), "submit");
  obs::TraceEvent e;
  EXPECT_TRUE(obs::parse_trace_line(seeds[2], &e));
  EXPECT_EQ(e.metrics.size(), 3u);
  EXPECT_EQ(util::parse_json(seeds[3]).dump(), seeds[3]);
}

TEST(JsonCorpus, MutantsReturnOrThrowErrorOnly) {
  Rng rng(20041);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& seed : seed_documents()) {
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::string doc = mutate(seed, &rng);
      util::Json parsed;
      auto parse = [&] { parsed = util::parse_json(doc); };
      if (returns_or_throws_error(doc, parse)) {
        ++accepted;
        // What parses re-serializes to a fixed point of dump().
        const std::string text = parsed.dump();
        EXPECT_EQ(util::parse_json(text).dump(), text) << doc;
      } else {
        ++rejected;
      }
      returns_or_throws_error(doc, [&] { flow::parse_job_spec_json(doc); });
      returns_or_throws_error(doc, [&] {
        obs::TraceEvent e;
        obs::parse_trace_line(doc, &e);
      });
    }
  }
  // The corpus exercises both the accept and the reject paths.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace amdrel
