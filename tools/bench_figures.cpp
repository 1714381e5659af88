// bench_figures: regenerate every figure and table of the paper off ONE
// (suite, spec) sweep, with every cell overlapped on the global
// work-stealing pool and every score drawn through one injected
// ScoreCache. The sweep's cells ride the pool's High priority lane, so
// figure-critical work drains before any other (Normal) tasks a host
// process may have queued.
//
// With --cache-dir DIR the ScoreCache is warm-started from a previous
// run's journaled cache::Store (self-invalidating via the scoring-pipeline
// hash) and flushed back, so a second run is mostly cache hits — the
// warm-start speedup is recorded in BENCH_figures.json and visible in the
// CI bench job's logs. With --spec FILE the sweep covers a declarative
// subset instead of the full paper matrix.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "agents/techniques.hpp"
#include "buildsim/linkcache.hpp"
#include "buildsim/tucache.hpp"
#include "codeanal/analysis.hpp"
#include "common.hpp"
#include "eval/classify.hpp"
#include "execsim/driver.hpp"
#include "eval/report.hpp"
#include "eval/shard.hpp"
#include "minic/engine.hpp"
#include "support/cachestore.hpp"
#include "support/io.hpp"
#include "support/par.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "text/word2vec.hpp"
#include "vfs/repo.hpp"

using namespace pareval;
using support::Json;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --spec FILE        declarative sweep spec (JSON); exclusive with\n"
      "                     --samples/--seed\n"
      "  --cache-dir DIR    warm-start from and publish to a journaled\n"
      "                     cache directory (cache::Store) shared with\n"
      "                     sweep_worker/sweep_merge\n"
      "  --cache-stats FILE write per-layer cache stats (score / build /\n"
      "                     TU, plus per-stream journal counters when\n"
      "                     --cache-dir is given) as JSON with a pinned\n"
      "                     key order, so CI artifact diffs are stable\n"
      "  --no-score-layer   do not attach/flush the persisted score\n"
      "                     stream: every sample re-scores through a\n"
      "                     real Build stage, so warm-start benches\n"
      "                     measure the Build layers (TU / object /\n"
      "                     link caches) instead of score memoization\n"
      "  --no-object-layer  disable the warm-object store (serialized\n"
      "                     TU objects + link cache): persisted TU\n"
      "                     entries revalidate but successful TUs\n"
      "                     recompile from source — the TU-warm\n"
      "                     baseline the object-warm bench pass is\n"
      "                     gated against\n"
      "  --samples N        samples per cell (default: 25)\n"
      "  --seed S           base RNG seed (default: 1070)\n"
      "  --engine E         Execute-stage engine: interp (default) or vm\n"
      "                     (bytecode; bit-identical figures, faster).\n"
      "                     Recorded in the timing JSON's context\n"
      "  --out FILE         timing JSON (default: BENCH_figures.json)\n"
      "  --print-cache-key  print the scoring-pipeline hash and exit\n",
      argv0);
  return 2;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string cache_dir;
  std::string cache_stats_path;
  std::string spec_path;
  std::string out_path = "BENCH_figures.json";
  int samples = 25;
  std::uint64_t seed = 1070;
  minic::EngineKind engine = minic::EngineKind::Interp;
  bool samples_set = false, seed_set = false;
  bool no_score_layer = false;
  bool no_object_layer = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-cache-key") {
      std::printf("%s\n",
                  support::u64_to_hex(eval::scoring_pipeline_hash())
                      .c_str());
      return 0;
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--cache-stats" && i + 1 < argc) {
      cache_stats_path = argv[++i];
    } else if (arg == "--no-score-layer") {
      no_score_layer = true;
    } else if (arg == "--no-object-layer") {
      no_object_layer = true;
    } else if (arg == "--samples" && i + 1 < argc) {
      if (!tools::parse_int(argv[++i], &samples)) return usage(argv[0]);
      samples_set = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
      seed_set = true;
    } else if (arg == "--engine" && i + 1 < argc) {
      if (!tools::parse_engine_flag("bench_figures", argv[++i], &engine)) {
        return 2;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (samples < 1) return usage(argv[0]);
  if (!spec_path.empty() && (samples_set || seed_set)) {
    std::fprintf(stderr,
                 "bench_figures: --spec is exclusive with --samples/--seed "
                 "(the spec declares them)\n");
    return 2;
  }

  const eval::Suite& suite = eval::Suite::paper();
  eval::SweepSpec spec;
  if (!spec_path.empty()) {
    if (!tools::load_spec_flag("bench_figures", spec_path, suite, &spec)) {
      return 2;
    }
  } else {
    spec = eval::SweepSpec::paper();
    spec.samples_per_task = samples;
    spec.seed = seed;
  }

  // Injected cache: this process's scores go through one local instance
  // handed to the harness via HarnessConfig, not the process-wide global.
  eval::ScoreCache cache;
  eval::HarnessConfig config;
  config.score_cache = &cache;
  config.engine = engine;
  config.high_priority = true;  // figure-critical cells drain first

  if (no_object_layer) cache.enable_object_layer(false);

  bool preloaded = false;
  bool tu_preloaded = false;
  std::size_t loaded_entries = 0;
  std::optional<cache::Store> store;
  if (!cache_dir.empty()) {
    if (!tools::open_cache_dir("bench_figures", cache_dir, store)) return 1;
    if (no_score_layer) {
      // Build-layer bench mode: the score stream is withheld, so every
      // sample pays a real Build stage against whatever the TU / object /
      // link streams hold.
      tu_preloaded =
          cache.tus().attach(*store, eval::scoring_pipeline_hash());
      cache.links().attach(*store, eval::scoring_pipeline_hash());
      std::printf("cache dir %s: score stream withheld (--no-score-layer), "
                  "TU streams %s (%zu TUs, %zu plans), link stream "
                  "(%zu links)\n",
                  store->dir().c_str(), tu_preloaded ? "warm" : "cold",
                  cache.tus().size(), cache.tus().plan_count(),
                  cache.links().size());
    } else {
      const tools::CacheAttach attached = tools::attach_cache_layers(
          *store, cache, eval::scoring_pipeline_hash());
      preloaded = attached.warm_scores;
      tu_preloaded = attached.warm_tus;
      loaded_entries = preloaded ? cache.size() : 0;
    }
  }

  // One sweep over the whole spec; every figure below reads from it.
  const auto t_sweep = std::chrono::steady_clock::now();
  std::printf("sweeping spec %s (%zu cells, N=%d, engine %s)...\n",
              support::u64_to_hex(eval::spec_hash(spec)).c_str(),
              eval::sweep_cells(suite, spec).size(), spec.samples_per_task,
              minic::engine_key(engine));
  const std::vector<eval::TaskResult> all =
      eval::run_sweep(suite, spec, config);
  const double sweep_ms = ms_since(t_sweep);
  std::printf("\nsweep: %.1f ms, score layer %zu hits / %zu misses, "
              "build layer %zu hits / %zu misses (%zu builds performed), "
              "TU layer %zu+%zu hits / %zu misses (%zu TU compiles, %zu "
              "plan hits)\n\n",
              sweep_ms, cache.hits(), cache.misses(),
              cache.builds().hits(), cache.builds().misses(),
              cache.builds().misses(), cache.tus().hits(),
              cache.tus().persisted_hits(), cache.tus().misses(),
              cache.tus().misses(), cache.tus().plan_hits());

  const auto t_reports = std::chrono::steady_clock::now();
  std::printf("%s\n",
              eval::stage_breakdown_report(suite, spec, all).c_str());
  std::printf("%s\n", eval::figure2_reports(suite, spec, all).c_str());
  const auto t_classify = std::chrono::steady_clock::now();
  const auto classification = eval::classify_failures(all);
  const double classify_ms = ms_since(t_classify);
  std::printf("%s\n",
              eval::figure3_report(suite, spec, classification).c_str());
  std::printf("%s\n", eval::figure4_report(suite, spec, all).c_str());
  std::printf("%s\n", eval::figure5_report(suite, spec, all).c_str());
  std::printf("%s\n", eval::table1_report(suite).c_str());
  std::printf("%s\n", eval::table2_report(suite, all).c_str());
  const double reports_ms = ms_since(t_reports);

  if (store.has_value()) {
    const std::size_t records = cache.flush();
    std::printf("flushed %zu records (%zu score) to %s (score journal gen "
                "%llu / %zu bytes)\n",
                records,
                store->stats(eval::ScoreCache::kStream).records_appended,
                cache_dir.c_str(),
                static_cast<unsigned long long>(
                    store->stats(eval::ScoreCache::kStream).generation),
                store->journal_bytes(eval::ScoreCache::kStream));
  }

  Json root = Json::object();
  Json context = Json::object();
  context.set("samples_per_task", spec.samples_per_task);
  context.set("spec_hash", support::u64_to_hex(eval::spec_hash(spec)));
  context.set("spec_file", spec_path);
  context.set("engine", minic::engine_key(engine));
  context.set("threads",
              static_cast<long long>(support::hardware_threads()));
  context.set("cache_dir", cache_dir);
  context.set("cache_preloaded", preloaded);
  context.set("cache_entries_loaded",
              static_cast<long long>(loaded_entries));
  context.set("cache_hits", static_cast<long long>(cache.hits()));
  context.set("cache_misses", static_cast<long long>(cache.misses()));
  // Middle (build-artifact) layer: misses == builds actually performed, so
  // the artifact uploaded by the CI bench job records how much build work
  // the cache layers elided.
  context.set("build_cache_hits",
              static_cast<long long>(cache.builds().hits()));
  context.set("build_cache_misses",
              static_cast<long long>(cache.builds().misses()));
  // Lower (TU compile) layer: misses == TU compiles actually performed;
  // the dedupe ratio is the fraction of TU lookups a compile was elided
  // for (in-memory sharing across builds + persisted failed-TU hits).
  context.set("tu_cache_preloaded", tu_preloaded);
  context.set("tu_cache_hits", static_cast<long long>(cache.tus().hits()));
  context.set("tu_cache_persisted_hits",
              static_cast<long long>(cache.tus().persisted_hits()));
  context.set("tu_cache_misses",
              static_cast<long long>(cache.tus().misses()));
  context.set("tu_cache_lookups",
              static_cast<long long>(cache.tus().lookups()));
  context.set("tu_plan_hits",
              static_cast<long long>(cache.tus().plan_hits()));
  const std::size_t tu_lookups = cache.tus().lookups();
  const double tu_dedupe_ratio =
      tu_lookups == 0
          ? 0.0
          : static_cast<double>(tu_lookups - cache.tus().misses()) /
                static_cast<double>(tu_lookups);
  context.set("tu_dedupe_ratio", tu_dedupe_ratio);
  context.set("score_layer", !no_score_layer);
  context.set("object_layer", !no_object_layer);
  context.set("tu_obj_hits",
              static_cast<long long>(cache.tus().obj_hits()));
  context.set("link_cache_hits",
              static_cast<long long>(cache.links().hits()));
  context.set("link_cache_misses",
              static_cast<long long>(cache.links().misses()));
  // Token models are memoized per cell, so the runs must not exceed the
  // cells that generated anything (CI gates this counter).
  long long generated_cells = 0;
  for (const auto& task : all) generated_cells += task.ran ? 1 : 0;
  context.set("generated_cells", generated_cells);
  context.set("token_model_runs",
              static_cast<long long>(agents::token_model_runs()));
  // Generation analyses each distinct fixed file once, so on a fully-warm
  // store (no builds, hence no preprocessing) lex calls must not grow with
  // samples per cell (CI gates both counters).
  context.set("lex_calls", static_cast<long long>(codeanal::lex_calls()));
  context.set("analysis_runs",
              static_cast<long long>(codeanal::analysis_runs()));
  // Word2vec pairs trained, and how many repeated a target and so ran one
  // target at a time instead of batched (CI gates the share).
  context.set("word2vec_pairs",
              static_cast<long long>(text::word2vec_pairs()));
  context.set("word2vec_sequential_pairs",
              static_cast<long long>(text::word2vec_sequential_pairs()));
  // Bytes hashed by support::stable_hash, and content bytes of the file
  // blobs created: each blob is hashed once when written, so on a fully
  // warm store the first stays close to the second (CI gates the ratio).
  context.set("hashed_bytes", static_cast<long long>(support::hashed_bytes()));
  context.set("blob_bytes", static_cast<long long>(vfs::blob_bytes()));
  root.set("context", std::move(context));

  if (!cache_stats_path.empty()) {
    // One stats object per layer, keys in a pinned, documented order (the
    // Json codec preserves insertion order), so the CACHE_stats.json CI
    // artifact diffs cleanly run over run instead of shifting with
    // whatever map-iteration order a JSON post-processor happens to use.
    Json stats = Json::object();
    stats.set("cache_dir", cache_dir);
    stats.set("cache_preloaded", preloaded);
    stats.set("tu_cache_preloaded", tu_preloaded);
    // Per-layer blocks come from the layers' own stats() (the uniform
    // persistence surface), so this artifact and any future sweep_server
    // endpoint report identical shapes. With --cache-dir each layer also
    // carries its journal counters (generation, appends, torn/CRC drops,
    // compactions, bytes) from the attached store.
    Json score_layer = cache.stats();
    if (store.has_value()) {
      score_layer.set("journal",
                      store->stats_json(eval::ScoreCache::kStream));
    }
    stats.set("score", std::move(score_layer));
    Json build_layer = Json::object();
    build_layer.set("hits", static_cast<long long>(cache.builds().hits()));
    build_layer.set("misses",
                    static_cast<long long>(cache.builds().misses()));
    stats.set("build", std::move(build_layer));
    Json tu_layer = cache.tus().stats();
    tu_layer.set("dedupe_ratio", tu_dedupe_ratio);
    if (store.has_value()) {
      tu_layer.set("journal",
                   store->stats_json(buildsim::TuCompileCache::kTuStream));
      tu_layer.set(
          "plan_journal",
          store->stats_json(buildsim::TuCompileCache::kPlanStream));
      tu_layer.set(
          "obj_journal",
          store->stats_json(buildsim::TuCompileCache::kObjStream));
    }
    stats.set("tu", std::move(tu_layer));
    Json link_layer = cache.links().stats();
    if (store.has_value()) {
      link_layer.set("journal",
                     store->stats_json(buildsim::LinkCache::kStream));
    }
    stats.set("link", std::move(link_layer));
    // Process-wide ground truth for the warm-start gates: how many
    // sources were actually parsed and programs actually linked (the
    // cache layers above elide these), plus the wall time spent inside
    // the Build stage — the object-warm CI gate's numerator.
    const execsim::DriverCounters drv = execsim::driver_counters();
    Json driver = Json::object();
    driver.set("parses", static_cast<long long>(drv.parses));
    driver.set("links", static_cast<long long>(drv.links));
    // Bytecode coverage telemetry: tree-walk fallback instructions VM
    // runs executed (0 = everything the sweep ran was fully lowered).
    driver.set("tree_fallbacks", static_cast<long long>(drv.tree_fallbacks));
    stats.set("driver", std::move(driver));
    stats.set("build_wall_ms",
              static_cast<double>(eval::build_stage_nanos()) / 1e6);
    stats.set("wall_ms", sweep_ms);
    // Atomic like the cache files: the CI jq gate reads this artifact, so
    // a torn or truncated write must never be published.
    if (!support::atomic_write_file(cache_stats_path,
                                    stats.dump() + '\n')) {
      std::fprintf(stderr, "bench_figures: cannot write %s\n",
                   cache_stats_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cache_stats_path.c_str());
  }
  Json benchmarks = Json::array();
  auto bench_entry = [](const char* name, double ms) {
    Json b = Json::object();
    b.set("name", name);
    b.set("real_time", ms);
    b.set("time_unit", "ms");
    return b;
  };
  benchmarks.push_back(bench_entry("figures_sweep", sweep_ms));
  benchmarks.push_back(bench_entry("figures_reports", reports_ms));
  // classify_failures alone (word2vec + DBSCAN), a part of figures_reports.
  benchmarks.push_back(bench_entry("figures_classify", classify_ms));
  benchmarks.push_back(bench_entry("figures_total", sweep_ms + reports_ms));
  // Wall time inside ScoringPipeline::build_stage alone — what the
  // object-warm bench passes compare (scores are bit-identical across
  // cold / TU-warm / object-warm, only Build cost moves).
  benchmarks.push_back(bench_entry(
      "figures_build_stage",
      static_cast<double>(eval::build_stage_nanos()) / 1e6));
  root.set("benchmarks", std::move(benchmarks));

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_figures: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << root.dump() << '\n';
  std::printf("wrote %s (sweep %.1f ms, %zu hits / %zu misses%s)\n",
              out_path.c_str(), sweep_ms, cache.hits(), cache.misses(),
              preloaded ? ", warm start" : "");
  return out.good() ? 0 : 1;
}
