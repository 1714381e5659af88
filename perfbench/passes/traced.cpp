// The traced run: one serial repetition of a workload that times every
// call into each layer from outside the program and writes the spans when
// it ends.
//
// For the paper workloads it replays what run_sweep does with threads = 1:
// run_task's sample loop, run_cell_sample's per-sample seed derivation and
// ground-truth build swap, and ScoringPipeline::score's stages, calling
// the layers (agents::run_technique, ScoringPipeline::build_stage,
// execsim::run_executable, apps::outputs_match) directly. Every score the
// replay computes is checked against the program's own ScoreCache::score,
// and the folded TaskResults against the reference digests, so the replay
// cannot drift from the program unnoticed.

#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agents/techniques.hpp"
#include "bench.hpp"
#include "buildsim/builder.hpp"
#include "buildsim/linkcache.hpp"
#include "buildsim/tucache.hpp"
#include "eval/pipeline.hpp"
#include "eval/report.hpp"
#include "execsim/driver.hpp"
#include "passes.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/par.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace agents = pareval::agents;
namespace apps = pareval::apps;
namespace buildsim = pareval::buildsim;
namespace execsim = pareval::execsim;
namespace llm = pareval::llm;
namespace minic = pareval::minic;
namespace serve = pareval::serve;
namespace support = pareval::support;
using vfs_repo = pareval::vfs::Repo;

namespace {

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder for one thread. Spans nest strictly (they are
/// scopes), so a span's self time is its duration minus its children's.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s = 0;
    int parent;
    long long sample;  // the per-sample (or per-job) id; -1 outside one
    int engine;        // execsim spans: the engine; -1 otherwise
    double child_s = 0;
  };

  int begin(const char* name, int engine = -1) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now(), 0, parent, sample_, engine});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    Span& s = spans_[id];
    s.end_s = now();
    if (s.parent >= 0) spans_[s.parent].child_s += s.end_s - s.start_s;
    stack_.pop_back();
  }
  void set_sample(long long id) { sample_ = id; }
  double now() const { return seconds_between(origin_, Clock::now()); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time over spans whose name starts with `prefix`.
  double self_s(const std::string& prefix, int engine = -1) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (std::string(s.name).rfind(prefix, 0) != 0) continue;
      if (engine >= 0 && s.engine != engine) continue;
      total += (s.end_s - s.start_s) - s.child_s;
    }
    return total;
  }
  /// Wall time inside spans of any layer (not the per-sample roots and not
  /// the replay's own verification), counting nested spans once.
  double layer_covered_s() const {
    double total = 0;
    for (const Span& s : spans_) {
      if (!is_layer(s.name)) continue;
      bool nested = false;
      for (int p = s.parent; p >= 0; p = spans_[p].parent) {
        nested = nested || is_layer(spans_[p].name);
      }
      if (!nested) total += s.end_s - s.start_s;
    }
    return total;
  }

  /// Chrome trace-event JSON (loads in Perfetto or chrome://tracing).
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"sample\": %lld%s%s%s}}",
                   i == 0 ? "" : ",\n", s.name, s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6, i, s.parent, s.sample,
                   s.engine >= 0 ? ", \"engine\": \"" : "",
                   s.engine >= 0 ? minic::engine_key(
                                       static_cast<minic::EngineKind>(
                                           s.engine))
                                 : "",
                   s.engine >= 0 ? "\"" : "");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static bool is_layer(const char* name) {
    const std::string n(name);
    return n.find('.') != std::string::npos && n.rfind("verify.", 0) != 0;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  long long sample_ = -1;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int engine = -1)
      : tracer_(tracer), id_(tracer.begin(name, engine)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Per-layer counts the traced pass gathers beside its spans.
struct Counts {
  long long agent_calls = 0;
  long long tokens = 0;
  long long aborted_cells = 0;
  long long exec_runs = 0;
  long long steps = 0;
  long long tree_fallbacks = 0;
  long long validations = 0;
  long long drift = 0;             // replayed score != program's score
  long long untraced_scores = 0;   // scored inside the program, unseen
  long long classify_logs = 0;
  double classify_exact_share = 0;
  long long raw_clusters = 0;
};

Json num(double v) { return Json(v); }

/// Layer metrics every workload reports; run.py adds the pooled ratios.
Json layer_metrics(const Tracer& tr, const Counts& c, double wall_s) {
  Json m = Json::object();
  m.set("agents.calls", num(static_cast<double>(c.agent_calls)));
  m.set("agents.self_s", num(tr.self_s("agents.")));
  m.set("agents.tokens", num(static_cast<double>(c.tokens)));
  m.set("agents.aborted_cells", num(static_cast<double>(c.aborted_cells)));
  m.set("buildsim.self_s", num(tr.self_s("buildsim.")));
  const double exec_s = tr.self_s("execsim.");
  m.set("execsim.runs", num(static_cast<double>(c.exec_runs)));
  m.set("execsim.self_s", num(exec_s));
  m.set("execsim.steps", num(static_cast<double>(c.steps)));
  m.set("execsim.ns_per_step",
        num(c.steps > 0 ? exec_s * 1e9 / static_cast<double>(c.steps) : 0));
  m.set("execsim.tree_fallbacks", num(static_cast<double>(c.tree_fallbacks)));
  m.set("execsim.interp_s",
        num(tr.self_s("execsim.",
                      static_cast<int>(minic::EngineKind::Interp))));
  m.set("execsim.vm_s",
        num(tr.self_s("execsim.", static_cast<int>(minic::EngineKind::Vm))));
  m.set("apps.validations", num(static_cast<double>(c.validations)));
  m.set("apps.self_s", num(tr.self_s("apps.")));
  m.set("classify.self_s", num(tr.self_s("classify.")));
  m.set("classify.logs", num(static_cast<double>(c.classify_logs)));
  m.set("classify.exact_share", num(c.classify_exact_share));
  m.set("classify.raw_clusters", num(static_cast<double>(c.raw_clusters)));
  m.set("report.self_s", num(tr.self_s("report.")));
  m.set("cachestore.attach_s", num(tr.self_s("cachestore.attach")));
  m.set("cachestore.flush_s", num(tr.self_s("cachestore.flush")));
  m.set("trace.total_s", num(wall_s));
  m.set("trace.verify_s", num(tr.self_s("verify.")));
  m.set("trace.uncovered_s",
        num(wall_s - tr.layer_covered_s() - tr.self_s("verify.")));
  return m;
}

void set_cache_metrics(Json& m, const eval::ScoreCache& cache) {
  const double hits = static_cast<double>(cache.hits());
  const double misses = static_cast<double>(cache.misses());
  m.set("score_cache.lookups", num(hits + misses));
  m.set("score_cache.hits", num(hits));
  m.set("score_cache.misses", num(misses));
  m.set("score_cache.hit_ratio",
        num(hits + misses > 0 ? hits / (hits + misses) : 0));
  m.set("buildsim.builds", num(static_cast<double>(cache.builds().misses())));
  const double tu_lookups = static_cast<double>(cache.tus().lookups());
  const double tu_compiles = static_cast<double>(cache.tus().misses());
  m.set("buildsim.tu_lookups", num(tu_lookups));
  m.set("buildsim.tu_compiles", num(tu_compiles));
  m.set("buildsim.tu_dedupe_ratio",
        num(tu_lookups > 0 ? (tu_lookups - tu_compiles) / tu_lookups : 0));
  m.set("buildsim.plan_hits",
        num(static_cast<double>(cache.tus().plan_hits())));
  m.set("buildsim.obj_hits",
        num(static_cast<double>(cache.tus().obj_hits())));
  m.set("buildsim.link_hits",
        num(static_cast<double>(cache.links().hits() +
                                cache.links().persisted_hits())));
  m.set("buildsim.link_misses",
        num(static_cast<double>(cache.links().misses())));
}

void set_store_metrics(Json& m, const StoreTotals& st) {
  m.set("cachestore.records_replayed", num(static_cast<double>(st.replayed)));
  m.set("cachestore.records_appended", num(static_cast<double>(st.appended)));
  m.set("cachestore.journal_bytes", num(static_cast<double>(st.journal_bytes)));
  m.set("cachestore.dropped_records", num(static_cast<double>(st.dropped)));
}

void set_front_end_metrics(Json& m, const execsim::DriverCounters& before) {
  const execsim::DriverCounters after = execsim::driver_counters();
  m.set("execsim.parses",
        num(static_cast<double>(after.parses - before.parses)));
  m.set("execsim.links", num(static_cast<double>(after.links - before.links)));
}

Json trace_result(const Options& o, Json metrics, int ops, int failed,
                  long long spans) {
  Json r = Json::object();
  r.set("workload", o.workload);
  r.set("ops", ops);
  r.set("failed", failed);
  r.set("spans", spans);
  r.set("metrics", std::move(metrics));
  return r;
}

// ---- Execute and Validate ---------------------------------------------------

/// Calls into execsim and apps under spans, counting their work.
class ExecLayers {
 public:
  ExecLayers(Tracer& tr, Counts& counts) : tr_(tr), counts_(counts) {}

  minic::RunResult execute(const execsim::Executable& exe,
                           const std::vector<std::string>& args,
                           minic::EngineKind engine) {
    Scope s(tr_, "execsim.run_executable", static_cast<int>(engine));
    const std::uint64_t fallbacks = execsim::driver_counters().tree_fallbacks;
    minic::RunResult run =
        execsim::run_executable(exe, args, minic::RunLimits{}, engine);
    counts_.tree_fallbacks += static_cast<long long>(
        execsim::driver_counters().tree_fallbacks - fallbacks);
    ++counts_.exec_runs;
    counts_.steps += run.stats.steps;
    return run;
  }

  /// The Validate stage's output comparison; `golden` receives the
  /// expected output.
  bool validate(const apps::AppSpec& app, const apps::TestCase& tc,
                const minic::RunResult& run, std::string* golden) {
    {
      Scope s(tr_, "apps.golden");
      *golden = app.golden(tc);
    }
    Scope s(tr_, "apps.outputs_match");
    ++counts_.validations;
    return apps::outputs_match(run.stdout_text, *golden, app.tolerance);
  }

 private:
  Tracer& tr_;
  Counts& counts_;
};

// ---- the paper workloads ----------------------------------------------------

class PaperReplay {
 public:
  PaperReplay(Tracer& tr, Counts& counts, eval::ScoreCache& cache,
              const eval::Suite& suite, bool warm)
      : tr_(tr), counts_(counts), exec_(tr, counts), cache_(cache),
        suite_(suite), warm_(warm) {}

  /// run_task with threads = 1: samples in order, stop at the first abort.
  eval::TaskResult run_cell(const eval::SweepCell& cell, int cell_index) {
    std::vector<eval::SampleRun> runs;
    for (int i = 0; i < config_.samples_per_task; ++i) {
      tr_.set_sample(static_cast<long long>(cell_index) * 1000 + i);
      {
        Scope root(tr_, "sample");
        runs.push_back(run_sample(cell, i));
      }
      if (!runs.back().generated) break;
    }
    tr_.set_sample(-1);
    eval::TaskResult t = eval::aggregate_samples(
        *cell.app, cell.technique, *cell.profile, cell.pair, std::move(runs));
    counts_.aborted_cells += t.ran ? 0 : 1;
    return t;
  }

  void configure(const eval::SweepSpec& spec) {
    config_.samples_per_task = spec.samples_per_task;
    config_.seed = spec.seed;
  }

 private:
  // run_cell_sample, layer by layer.
  eval::SampleRun run_sample(const eval::SweepCell& cell, int sample_index) {
    const apps::AppSpec& app = *cell.app;
    const llm::LlmProfile& profile = *cell.profile;
    const std::string cell_key = profile.name + "|" +
                                 llm::technique_name(cell.technique) + "|" +
                                 llm::pair_name(cell.pair) + "|" + app.name;
    support::Rng rng(config_.seed ^
                     support::stable_hash(cell_key + "#" +
                                          std::to_string(sample_index)));
    const auto scores =
        suite_.calibration(profile.name, cell.technique, cell.pair, app.name);
    const std::string absence =
        scores ? std::string()
               : suite_.absence_reason(profile.name, cell.technique,
                                       cell.pair, app.name);
    eval::SampleRun run;
    agents::TranslationResult gen;
    {
      Scope s(tr_, "agents.run_technique");
      gen = agents::run_technique(app, cell.technique, profile, cell.pair,
                                  rng, scores, absence);
    }
    ++counts_.agent_calls;
    if (!gen.generated) {
      run.abort_reason = std::move(gen.abort_reason);
      return run;
    }
    run.generated = true;
    run.outcome.tokens = agents::total_tokens(gen);
    counts_.tokens += run.outcome.tokens;
    run.outcome.defects = std::move(gen.defects);

    const eval::StagedScore overall = score(app, gen.repo, cell.pair.to);
    run.outcome.built_overall = overall.built;
    run.outcome.passed_overall = overall.passed;
    if (!overall.passed) run.outcome.stages = kept_stages(overall);

    const eval::StagedScore codeonly =
        score(app, with_ground_truth_build(app, gen.repo, cell.pair.to),
              cell.pair.to);
    run.outcome.built_codeonly = codeonly.built;
    run.outcome.passed_codeonly = codeonly.passed;
    return run;
  }

  std::vector<eval::StageOutcome> kept_stages(
      const eval::StagedScore& score) const {
    std::vector<eval::StageOutcome> stages = score.stages;
    for (eval::StageOutcome& s : stages) {
      if (!config_.keep_logs) {
        s.log.clear();
      } else if (config_.max_log_bytes > 0 &&
                 s.log.size() > config_.max_log_bytes) {
        s.log.resize(config_.max_log_bytes);
      }
    }
    return stages;
  }

  static vfs_repo with_ground_truth_build(const apps::AppSpec& app,
                                          const vfs_repo& repo,
                                          apps::Model target) {
    vfs_repo out = repo;
    out.remove("Makefile");
    out.remove("CMakeLists.txt");
    const auto it = app.ground_truth_builds.find(target);
    if (it != app.ground_truth_builds.end()) {
      for (const auto& f : it->second.files()) out.write(f.path, f.content);
    }
    return out;
  }

  /// ScoreCache::score seen from outside. A key the cache already holds
  /// is looked up through the program; a new key is scored by replaying
  /// the pipeline's stages, then handed to the program's cache, whose
  /// result must equal the replay's.
  eval::StagedScore score(const apps::AppSpec& app, const vfs_repo& repo,
                          apps::Model target) {
    std::uint64_t key = 0;
    {
      Scope s(tr_, "score_cache.key");
      key = eval::repo_content_hash(repo);
      key = support::SplitMix64(key ^ support::stable_hash(app.name)).next();
      key = support::SplitMix64(key ^ static_cast<std::uint64_t>(target))
                .next();
    }
    if (warm_ || known_.count(key) != 0) {
      Scope s(tr_, "score_cache.lookup");
      const std::size_t hits = cache_.hits();
      eval::StagedScore r = cache_.score(app, repo, target, config_.engine);
      if (cache_.hits() == hits) ++counts_.untraced_scores;
      known_.insert(key);
      return r;
    }
    eval::StagedScore r = replay_pipeline(app, repo, target);
    {
      Scope s(tr_, "verify.score");
      if (!(cache_.score(app, repo, target, config_.engine) == r)) {
        std::printf("MISMATCH traced replay of %s score %s differs from "
                    "ScoreCache::score\n",
                    app.name.c_str(), hex(key).c_str());
        ++counts_.drift;
      }
    }
    known_.insert(key);
    return r;
  }

  // ScoringPipeline::score, stage by stage, through the cache's layers.
  eval::StagedScore replay_pipeline(const apps::AppSpec& app,
                                    const vfs_repo& repo,
                                    apps::Model target) {
    const eval::ScoringPipeline pipeline(&cache_.builds(), &cache_.tus(),
                                         &cache_.links());
    eval::StagedScore out;
    eval::StageOutcome build_outcome;
    std::shared_ptr<const buildsim::BuildResult> build;
    {
      Scope s(tr_, "buildsim.build_stage");
      build = pipeline.build_stage(app, repo, &build_outcome);
    }
    out.stages.push_back(std::move(build_outcome));
    if (!build->ok) return out;
    out.built = true;

    const bool gpu_target = target != apps::Model::OmpThreads;
    bool all_passed = true;
    for (std::size_t i = 0; i < app.tests.size(); ++i) {
      const apps::TestCase& tc = app.tests[i];
      const minic::RunResult run =
          exec_.execute(*build->exe, tc.args, config_.engine);
      eval::StageOutcome es;
      es.stage = eval::Stage::Execute;
      es.test_case = static_cast<int>(i);
      if (!run.ok) {
        es.verdict = eval::StageVerdict::Fail;
        es.detail = eval::kDetailRunError;
        es.log = run.stderr_text;
        out.stages.push_back(std::move(es));
        all_passed = false;
        break;
      }
      es.verdict = eval::StageVerdict::Pass;
      out.stages.push_back(std::move(es));

      eval::StageOutcome vs;
      vs.stage = eval::Stage::Validate;
      vs.test_case = static_cast<int>(i);
      std::string golden;
      if (!exec_.validate(app, tc, run, &golden)) {
        vs.verdict = eval::StageVerdict::Fail;
        vs.detail = eval::kDetailOutputMismatch;
        vs.log = "validation failed: output mismatch\nexpected:\n" + golden +
                 "got:\n" + run.stdout_text;
        out.stages.push_back(std::move(vs));
        all_passed = false;
        break;
      }
      if (gpu_target && run.stats.device_kernel_launches == 0) {
        vs.verdict = eval::StageVerdict::Fail;
        vs.detail = eval::kDetailNoDeviceLaunch;
        vs.log =
            "validation failed: translation did not execute on the GPU "
            "(no device kernel launches)\n";
        out.stages.push_back(std::move(vs));
        all_passed = false;
        break;
      }
      vs.verdict = eval::StageVerdict::Pass;
      out.stages.push_back(std::move(vs));
    }
    out.passed = all_passed;
    return out;
  }

 private:
  Tracer& tr_;
  Counts& counts_;
  ExecLayers exec_;
  eval::ScoreCache& cache_;
  const eval::Suite& suite_;
  const bool warm_;
  eval::HarnessConfig config_;
  std::set<std::uint64_t> known_;
};

int trace_paper(const Options& o) {
  const eval::Suite& suite = eval::Suite::paper();
  support::ThreadPool::global();
  const eval::SweepSpec spec = paper_spec(o.seed);
  Reference ref;
  if (!read_reference(o.ref, &ref) || ref.cells.size() != 1) {
    std::fprintf(stderr, "perfbench: cannot read the paper reference\n");
    return 2;
  }
  const std::string dir = o.work + "/store";
  if (!prepare_store(dir, o.store_template)) return 2;

  Tracer tr;
  Counts counts;
  eval::ScoreCache cache;
  cache::Store store(dir);
  PaperReplay replay(tr, counts, cache, suite, !o.store_template.empty());
  replay.configure(spec);
  const execsim::DriverCounters drv = execsim::driver_counters();
  const double t0 = tr.now();
  {
    Scope s(tr, "cachestore.attach");
    store.open();
    attach_layers(store, cache);
  }
  const std::vector<eval::SweepCell> cells = eval::sweep_cells(suite, spec);
  std::vector<eval::TaskResult> tasks;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    tasks.push_back(replay.run_cell(cells[i], static_cast<int>(i)));
  }
  eval::ClassificationResult classification;
  {
    Scope s(tr, "classify.classify_failures");
    classification = eval::classify_failures(tasks);
  }
  std::string figures;
  {
    Scope s(tr, "report.stage_breakdown_report");
    figures += eval::stage_breakdown_report(suite, spec, tasks);
  }
  {
    Scope s(tr, "report.figure2_reports");
    figures += eval::figure2_reports(suite, spec, tasks);
  }
  {
    Scope s(tr, "report.figure3_report");
    figures += eval::figure3_report(suite, spec, classification);
  }
  {
    Scope s(tr, "report.figure4_report");
    figures += eval::figure4_report(suite, spec, tasks);
  }
  {
    Scope s(tr, "report.figure5_report");
    figures += eval::figure5_report(suite, spec, tasks);
  }
  {
    Scope s(tr, "report.table1_report");
    figures += eval::table1_report(suite);
  }
  {
    Scope s(tr, "report.table2_report");
    figures += eval::table2_report(suite, tasks);
  }
  {
    Scope s(tr, "cachestore.flush");
    flush_layers(cache);
  }
  const double wall_s = tr.now() - t0;

  int failed = check_cells(o.workload + " (traced)", tasks, ref.cells[0]);
  if (digest_text(figures) != ref.figures) {
    std::printf("MISMATCH %s (traced) figures: digest %s, reference %s\n",
                o.workload.c_str(), hex(digest_text(figures)).c_str(),
                hex(ref.figures).c_str());
    ++failed;
  }
  counts.classify_logs = static_cast<long long>(classification.logs.size());
  const int labelled =
      classification.provenance_exact + classification.keyword_fallback;
  counts.classify_exact_share =
      labelled > 0 ? static_cast<double>(classification.provenance_exact) /
                         labelled
                   : 0;
  counts.raw_clusters = classification.raw_clusters;

  Json m = layer_metrics(tr, counts, wall_s);
  set_cache_metrics(m, cache);
  set_store_metrics(m, store_totals(store));
  set_front_end_metrics(m, drv);
  m.set("trace.drift", num(static_cast<double>(counts.drift)));
  m.set("trace.untraced_scores",
        num(static_cast<double>(counts.untraced_scores)));
  // A replay that drifted from the program fails the run.
  failed += counts.drift != 0 || counts.untraced_scores != 0;
  if (!tr.write(o.out)) return 2;
  emit(trace_result(o, std::move(m), static_cast<int>(cells.size()) + 1,
                    failed, static_cast<long long>(tr.spans().size())));
  return 0;
}

// ---- reference_execute ------------------------------------------------------

int trace_execute(const Options& o) {
  eval::Suite::paper();
  const std::vector<ExecTarget> targets = exec_targets();
  const std::vector<ExecUnit> units = exec_units(targets);
  Tracer tr;
  Counts counts;
  ExecLayers layers(tr, counts);
  const execsim::DriverCounters drv = execsim::driver_counters();
  const double t0 = tr.now();

  std::vector<std::shared_ptr<const buildsim::BuildResult>> builds;
  for (const ExecTarget& tg : targets) {
    Scope s(tr, "buildsim.build_stage");
    eval::StageOutcome outcome;
    builds.push_back(eval::ScoringPipeline().build_stage(
        *tg.app, tg.app->repos.at(tg.model), &outcome));
  }
  std::vector<std::string> canonical(units.size());
  std::vector<char> valid(units.size(), 0);
  for (std::size_t u = 0; u < units.size(); ++u) {
    const ExecUnit& unit = units[u];
    const ExecTarget& tg = targets[unit.target];
    if (!builds[unit.target]->ok) continue;
    tr.set_sample(static_cast<long long>(u));
    Scope root(tr, "run");
    const apps::TestCase& tc = tg.app->tests[unit.test];
    const minic::RunResult run =
        layers.execute(*builds[unit.target]->exe, tc.args, unit.engine);
    std::string golden;
    valid[u] = run.ok && layers.validate(*tg.app, tc, run, &golden) &&
               (tg.model == apps::Model::OmpThreads ||
                run.stats.device_kernel_launches > 0);
    canonical[u] = minic::to_json(run).dump();
  }
  tr.set_sample(-1);
  const double wall_s = tr.now() - t0;

  const int failed = check_exec_runs("reference_execute (traced)", targets,
                                     units, valid, canonical);
  // No cache layers and no store: run.py reports their metrics as 0.
  Json m = layer_metrics(tr, counts, wall_s);
  m.set("buildsim.builds", num(static_cast<double>(builds.size())));
  set_front_end_metrics(m, drv);
  if (!tr.write(o.out)) return 2;
  emit(trace_result(o, std::move(m), static_cast<int>(units.size()), failed,
                    static_cast<long long>(tr.spans().size())));
  return 0;
}

// ---- serve_ci ---------------------------------------------------------------

int trace_serve(const Options& o) {
  const eval::Suite& suite = eval::Suite::paper();
  support::ThreadPool::global();
  const ServePlan plan = serve_plan(o.seed);
  Reference ref;
  if (!read_reference(o.ref, &ref) || ref.cells.size() != plan.specs.size()) {
    std::fprintf(stderr, "perfbench: cannot read the serve_ci reference\n");
    return 2;
  }
  const std::string dir = o.work + "/store";
  if (!prepare_store(dir, "")) return 2;
  // Serial: one client, and a server that dispatches one unit at a time.
  const std::vector<int> jobs = interleaved_jobs(plan);

  Tracer tr;
  Counts counts;
  const execsim::DriverCounters drv = execsim::driver_counters();
  serve::SweepServer::Config config;
  config.endpoint = "unix:" + o.work + "/serve.sock";
  config.cache_dir = dir;
  config.max_inflight = 1;
  serve::SweepServer server(config, suite);
  const double t0 = tr.now();
  std::string error;
  bool started = false;
  {
    // SweepServer::start opens and attaches the store, then binds.
    Scope s(tr, "cachestore.attach");
    started = server.start(&error);
  }
  serve::Client client;
  if (!started || !client.connect(config.endpoint, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::vector<double> ttfr;
  long long records = 0;
  int failed = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const eval::SweepSpec& spec = plan.specs[jobs[j]];
    tr.set_sample(static_cast<long long>(j));
    Scope root(tr, "job");
    serve::Client::JobOutcome outcome;
    double first = -1;
    bool ok = false;
    const double submitted = tr.now();
    {
      Scope s(tr, "serve.submit");
      ok = client.submit(spec, {}, &outcome, &error,
                         [&](const eval::SampleRecord&) {
                           if (first < 0) first = tr.now();
                         });
    }
    if (first >= 0) ttfr.push_back(first - submitted);
    if (!ok || outcome.cancelled) {
      std::printf("MISMATCH serve_ci (traced) job %zu: %s\n", j,
                  ok ? "cancelled" : error.c_str());
      ++failed;
      continue;
    }
    records += static_cast<long long>(outcome.records.size());
    for (const eval::SampleRecord& r : outcome.records) {
      counts.tokens += r.run.generated ? r.run.outcome.tokens : 0;
    }
    try {
      std::vector<eval::TaskResult> tasks;
      {
        Scope s(tr, "serve.fold_records");
        tasks = serve::fold_records(suite, spec, eval::HarnessConfig{}.engine,
                                    std::move(outcome.records));
      }
      for (const eval::TaskResult& t : tasks) {
        counts.aborted_cells += t.ran ? 0 : 1;
      }
      failed += check_cells("serve_ci (traced) job " + std::to_string(j),
                            tasks, ref.cells[jobs[j]]) != 0;
    } catch (const std::exception& e) {
      std::printf("MISMATCH serve_ci (traced) job %zu: %s\n", j, e.what());
      ++failed;
    }
  }
  tr.set_sample(-1);
  // Each streamed record is one run_cell_sample, i.e. one generation.
  counts.agent_calls = records;
  Json m = Json::object();
  set_cache_metrics(m, server.cache());
  const double hits = static_cast<double>(server.cache().hits());
  const double misses = static_cast<double>(server.cache().misses());
  {
    // SweepServer::stop drains and flushes the layers to the store.
    Scope s(tr, "cachestore.flush");
    server.stop();
  }
  const double wall_s = tr.now() - t0;
  const Json layers = layer_metrics(tr, counts, wall_s);
  for (const auto& [k, v] : layers.members()) m.set(k, v);
  // The server's store is private: read what the drain left on disk.
  cache::Store after(dir);
  StoreTotals st;
  for (const std::string& s : store_streams()) {
    after.replay(s, eval::scoring_pipeline_hash(),
                 [&](const Json&) { ++st.appended; });
    st.journal_bytes += after.journal_bytes(s);
    const cache::StreamStats ss = after.stats(s);
    st.dropped += ss.torn_records_dropped + ss.crc_records_dropped;
  }
  set_store_metrics(m, st);
  set_front_end_metrics(m, drv);
  m.set("serve.jobs", num(static_cast<double>(jobs.size())));
  m.set("serve.ttfr_p50_s", num(percentile(ttfr, 50)));
  m.set("serve.records_streamed", num(static_cast<double>(records)));
  m.set("serve.warm_share",
        num(hits + misses > 0 ? hits / (hits + misses) : 0));
  if (!tr.write(o.out)) return 2;
  emit(trace_result(o, std::move(m), static_cast<int>(jobs.size()), failed,
                    static_cast<long long>(tr.spans().size())));
  return 0;
}

}  // namespace

int run_trace(const Options& o) {
  if (o.workload == "paper_cold" || o.workload == "paper_warm") {
    return trace_paper(o);
  }
  if (o.workload == "reference_execute") return trace_execute(o);
  if (o.workload == "serve_ci") return trace_serve(o);
  std::fprintf(stderr, "perfbench: unknown workload\n");
  return 2;
}

}  // namespace perfbench
