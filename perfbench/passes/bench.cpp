#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "buildsim/linkcache.hpp"
#include "buildsim/tucache.hpp"
#include "eval/report.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace llm = pareval::llm;
namespace support = pareval::support;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- digests ----------------------------------------------------------------

namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void num(long long v) { bytes(&v, sizeof v); }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  // Length-prefixed, so adjacent fields cannot alias.
  void str(const std::string& s) {
    num(static_cast<long long>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t digest(const eval::TaskResult& t) {
  Fnv h;
  h.str(t.llm);
  h.str(llm::technique_key(t.technique));
  h.str(llm::pair_key(t.pair));
  h.str(t.app);
  h.num(t.ran);
  h.str(t.abort_reason);
  h.num(t.samples);
  h.num(t.built_overall);
  h.num(t.passed_overall);
  h.num(t.built_codeonly);
  h.num(t.passed_codeonly);
  h.real(t.avg_tokens);
  h.num(static_cast<long long>(t.outcomes.size()));
  for (const eval::SampleOutcome& o : t.outcomes) {
    h.num(o.built_overall);
    h.num(o.passed_overall);
    h.num(o.built_codeonly);
    h.num(o.passed_codeonly);
    h.num(o.tokens);
    h.num(static_cast<long long>(o.stages.size()));
    for (const eval::StageOutcome& s : o.stages) {
      h.str(eval::stage_key(s.stage));
      h.str(eval::stage_verdict_key(s.verdict));
      h.num(s.test_case);
      h.str(s.detail);
      h.str(s.log);
    }
    h.num(static_cast<long long>(o.defects.size()));
    for (const std::string& d : o.defects) h.str(d);
  }
  return h.value();
}

std::uint64_t digest_text(const std::string& text) {
  Fnv h;
  h.str(text);
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool parse_hex(const std::string& text, std::uint64_t* out) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    int d = 0;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

// ---- workload inputs --------------------------------------------------------

eval::SweepSpec paper_spec(std::uint64_t seed) {
  eval::SweepSpec spec = eval::SweepSpec::paper();
  spec.seed = seed;
  return spec;
}

eval::SweepSpec ci_subset_spec(std::uint64_t seed) {
  // The shape of the CI sweep-serve job's spec: three LLMs, the two CUDA
  // pairs, the four smallest apps, every technique with SWE-agent gated
  // to gpt-4o-mini on CUDA->Kokkos.
  const std::vector<std::string> apps = {"nanoXOR", "microXORh", "microXOR",
                                         "SimpleMOC-kernel"};
  eval::SweepSpec spec;
  spec.llms = {"gemini-1.5-flash", "gpt-4o-mini", "o4-mini"};
  spec.pairs = {"cuda->omp_offload", "cuda->kokkos"};
  spec.apps = apps;
  spec.techniques = {"non_agentic", "top_down", "swe_agent"};
  spec.samples_per_task = 6;
  spec.seed = seed;
  spec.gates = {{"swe_agent", {"gpt-4o-mini"}, {"cuda->kokkos"}, apps}};
  return spec;
}

ServePlan serve_plan(std::uint64_t seed) {
  ServePlan plan;
  support::Rng rng(support::SplitMix64(seed ^ 0x5e7e5e7e5e7e5e7eULL).next());
  const int fresh_total = kServeClients * kServeFreshPerClient;
  for (int k = 0; k < fresh_total; ++k) {
    plan.specs.push_back(ci_subset_spec(rng.next_u64()));
  }
  for (int c = 0; c < kServeClients; ++c) {
    std::vector<int> jobs;
    std::vector<int> sent;
    int fresh_left = kServeFreshPerClient;
    int resubmits_left = kServeResubmitsPerClient;
    while (fresh_left + resubmits_left > 0) {
      const bool fresh =
          resubmits_left == 0 ||
          (fresh_left > 0 &&
           (sent.empty() ||
            rng.next_below(static_cast<std::uint64_t>(fresh_left +
                                                      resubmits_left)) <
                static_cast<std::uint64_t>(fresh_left)));
      if (fresh) {
        const int index = c * kServeFreshPerClient +
                          (kServeFreshPerClient - fresh_left);
        sent.push_back(index);
        jobs.push_back(index);
        --fresh_left;
      } else {
        jobs.push_back(sent[rng.next_below(sent.size())]);
        --resubmits_left;
      }
    }
    plan.client_jobs.push_back(std::move(jobs));
  }
  return plan;
}

std::vector<int> interleaved_jobs(const ServePlan& plan) {
  std::vector<int> out;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& jobs : plan.client_jobs) {
      if (i < jobs.size()) {
        out.push_back(jobs[i]);
        any = true;
      }
    }
    if (!any) return out;
  }
}

std::vector<ExecTarget> exec_targets() {
  std::vector<ExecTarget> targets;
  for (const pareval::apps::AppSpec* app : pareval::apps::all_apps()) {
    for (const pareval::apps::Model m : app->available) {
      targets.push_back({app, m});
    }
  }
  return targets;
}

std::vector<ExecUnit> exec_units(const std::vector<ExecTarget>& targets) {
  std::vector<ExecUnit> units;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t i = 0; i < targets[t].app->tests.size(); ++i) {
      for (const auto engine : kEngines) {
        units.push_back(
            {static_cast<int>(t), static_cast<int>(i), engine});
      }
    }
  }
  return units;
}

int check_exec_runs(const std::string& label,
                    const std::vector<ExecTarget>& targets,
                    const std::vector<ExecUnit>& units,
                    const std::vector<char>& valid,
                    const std::vector<std::string>& canonical) {
  int failed = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    bool twin_equal = false;
    for (std::size_t v = 0; v < units.size(); ++v) {
      if (v != u && units[v].target == units[u].target &&
          units[v].test == units[u].test) {
        twin_equal = canonical[v] == canonical[u];
      }
    }
    if (valid[u] && twin_equal) continue;
    const ExecTarget& tg = targets[units[u].target];
    std::printf("MISMATCH %s %s/%s test %d engine %s:%s%s\n", label.c_str(),
                tg.app->name.c_str(), pareval::apps::model_key(tg.model),
                units[u].test, pareval::minic::engine_key(units[u].engine),
                valid[u] ? "" : " fails golden validation",
                twin_equal ? "" : " differs from the other engine");
    ++failed;
  }
  return failed;
}

std::string figures_text(const eval::Suite& suite,
                         const eval::SweepSpec& spec,
                         const std::vector<eval::TaskResult>& tasks,
                         const eval::ClassificationResult& classification) {
  std::string out;
  out += eval::stage_breakdown_report(suite, spec, tasks);
  out += eval::figure2_reports(suite, spec, tasks);
  out += eval::figure3_report(suite, spec, classification);
  out += eval::figure4_report(suite, spec, tasks);
  out += eval::figure5_report(suite, spec, tasks);
  out += eval::table1_report(suite);
  out += eval::table2_report(suite, tasks);
  return out;
}

// ---- references -------------------------------------------------------------

bool read_reference(const std::string& path, Reference* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto root = Json::parse(buf.str());
  if (!root || !root->is_object()) return false;
  Reference ref;
  for (const Json& spec : (*root)["specs"].items()) {
    std::vector<std::uint64_t> cells;
    for (const Json& c : spec.items()) {
      std::uint64_t v = 0;
      if (!parse_hex(c.as_string(), &v)) return false;
      cells.push_back(v);
    }
    ref.cells.push_back(std::move(cells));
  }
  const std::string figures = (*root)["figures"].as_string();
  if (!figures.empty() && !parse_hex(figures, &ref.figures)) return false;
  *out = std::move(ref);
  return true;
}

bool write_reference(const std::string& path, const Reference& ref) {
  // One spec per line keeps the committed files diffable.
  std::string text = "{\"figures\": \"";
  text += ref.figures != 0 ? hex(ref.figures) : "";
  text += "\",\n \"specs\": [";
  for (std::size_t s = 0; s < ref.cells.size(); ++s) {
    text += s == 0 ? "\n  [" : ",\n  [";
    for (std::size_t c = 0; c < ref.cells[s].size(); ++c) {
      if (c != 0) text += ", ";
      text += '"';
      text += hex(ref.cells[s][c]);
      text += '"';
    }
    text += "]";
  }
  text += "\n ]}\n";
  return pareval::support::atomic_write_file(path, text);
}

std::vector<std::uint64_t> cell_digests(
    const std::vector<eval::TaskResult>& tasks) {
  std::vector<std::uint64_t> out;
  out.reserve(tasks.size());
  for (const eval::TaskResult& t : tasks) out.push_back(digest(t));
  return out;
}

int check_cells(const std::string& label,
                const std::vector<eval::TaskResult>& tasks,
                const std::vector<std::uint64_t>& expected) {
  int bad = 0;
  const std::size_t n = std::max(tasks.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= tasks.size() || i >= expected.size()) {
      std::printf("MISMATCH %s cell %zu: missing on one side\n",
                  label.c_str(), i);
      ++bad;
      continue;
    }
    const std::uint64_t got = digest(tasks[i]);
    if (got != expected[i]) {
      const eval::TaskResult& t = tasks[i];
      std::printf("MISMATCH %s cell %zu (%s %s %s %s): digest %s, "
                  "reference %s\n",
                  label.c_str(), i, t.llm.c_str(),
                  llm::technique_key(t.technique),
                  llm::pair_key(t.pair).c_str(), t.app.c_str(),
                  hex(got).c_str(), hex(expected[i]).c_str());
      ++bad;
    }
  }
  return bad;
}

// ---- the store --------------------------------------------------------------

const std::vector<std::string>& store_streams() {
  static const std::vector<std::string> streams = {
      eval::ScoreCache::kStream,
      pareval::buildsim::TuCompileCache::kTuStream,
      pareval::buildsim::TuCompileCache::kPlanStream,
      pareval::buildsim::TuCompileCache::kObjStream,
      pareval::buildsim::LinkCache::kStream,
  };
  return streams;
}

void attach_layers(cache::Store& store, eval::ScoreCache& cache) {
  const std::uint64_t version = eval::scoring_pipeline_hash();
  cache.attach(store, version);
  cache.tus().attach(store, version);
  cache.links().attach(store, version);
}

std::size_t flush_layers(eval::ScoreCache& cache) {
  return cache.flush() + cache.tus().flush() + cache.links().flush();
}

StoreTotals store_totals(const cache::Store& store) {
  StoreTotals t;
  for (const std::string& s : store_streams()) {
    const cache::StreamStats st = store.stats(s);
    t.replayed += st.records_replayed;
    t.appended += st.records_appended;
    t.dropped += st.torn_records_dropped + st.crc_records_dropped;
    t.journal_bytes += store.journal_bytes(s);
  }
  return t;
}

bool prepare_store(const std::string& dir, const std::string& template_dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (template_dir.empty()) return fs::create_directories(dir, ec);
  const fs::path parent = fs::path(dir).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  ec.clear();
  fs::copy(template_dir, dir, fs::copy_options::recursive, ec);
  return !ec;
}

// ---- small helpers ----------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void emit(const Json& result) {
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
