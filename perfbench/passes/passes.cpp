// Untraced passes: the store population behind paper_warm, the reference
// digests, and one timed repetition of each workload.

#include "passes.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "buildsim/builder.hpp"
#include "eval/pipeline.hpp"
#include "execsim/driver.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/par.hpp"

namespace perfbench {

namespace apps = pareval::apps;
namespace minic = pareval::minic;
namespace serve = pareval::serve;
namespace support = pareval::support;

namespace {

int fail(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  return 2;
}

/// The program's own cache counters, from which run.py derives the pooled
/// duplicate-work ratios. `attached` score entries came from the store,
/// so only the rest were scored here.
Json cache_counters(const eval::ScoreCache& cache, std::size_t attached) {
  Json j = Json::object();
  j.set("score_hits", static_cast<long long>(cache.hits()));
  j.set("score_misses", static_cast<long long>(cache.misses()));
  j.set("score_entries", static_cast<long long>(cache.size() - attached));
  j.set("builds", static_cast<long long>(cache.builds().misses()));
  j.set("build_entries", static_cast<long long>(cache.builds().size()));
  return j;
}

/// Get the program ready: the suite's registries and the pool's workers,
/// forced here so the timed interval never pays for them. run.py times
/// set-up from the spawn of this process to the `ready_s` it reports, so
/// loading and static initialisation count too.
void load_suite() {
  eval::Suite::paper();
  support::ThreadPool::global();
}

struct Timed {
  double total_s = 0;
  double cpu_s = 0;
};

template <class Fn>
Timed timed(Fn&& fn) {
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  fn();
  return {seconds_between(t0, Clock::now()), process_cpu_seconds() - cpu0};
}

Json rep_result(const Options& o, const Timed& t, double ready_s, int ops,
                int failed) {
  Json r = Json::object();
  r.set("workload", o.workload);
  r.set("total_s", t.total_s);
  r.set("cpu_s", t.cpu_s);
  r.set("ready_s", ready_s);
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("threads",
        static_cast<long long>(support::ThreadPool::global().worker_count()));
  r.set("ops", ops);
  r.set("failed", failed);
  return r;
}

// ---- paper_cold / paper_warm ------------------------------------------------

int rep_paper(const Options& o) {
  load_suite();
  const double ready_s = monotonic_seconds();
  const eval::Suite& suite = eval::Suite::paper();
  const eval::SweepSpec spec = paper_spec(o.seed);
  Reference ref;
  if (!read_reference(o.ref, &ref) || ref.cells.size() != 1) {
    return fail("cannot read the paper reference");
  }
  const std::string dir = o.work + "/store";
  if (!prepare_store(dir, o.store_template)) {
    return fail("cannot prepare the store");
  }

  // The figure-regeneration job as bench_figures runs it: attach the
  // store, sweep, classify, render every figure and table, flush.
  eval::ScoreCache cache;
  std::vector<eval::TaskResult> tasks;
  std::string figures;
  cache::Store store(dir);
  std::size_t attached = 0;
  const Timed t = timed([&] {
    store.open();
    attach_layers(store, cache);
    attached = cache.size();
    eval::HarnessConfig config;
    config.score_cache = &cache;
    config.high_priority = true;
    config.threads = o.threads;
    tasks = eval::run_sweep(suite, spec, config);
    figures = figures_text(suite, spec, tasks, eval::classify_failures(tasks));
    flush_layers(cache);
  });

  int failed = check_cells(o.workload, tasks, ref.cells[0]);
  if (digest_text(figures) != ref.figures) {
    std::printf("MISMATCH %s figures: digest %s, reference %s\n",
                o.workload.c_str(), hex(digest_text(figures)).c_str(),
                hex(ref.figures).c_str());
    ++failed;
  }
  Json r = rep_result(o, t, ready_s,
                      static_cast<int>(ref.cells[0].size()) + 1, failed);
  Json counters = cache_counters(cache, attached);
  const StoreTotals st = store_totals(store);
  counters.set("records_replayed", static_cast<long long>(st.replayed));
  counters.set("records_appended", static_cast<long long>(st.appended));
  counters.set("dropped_records", static_cast<long long>(st.dropped));
  r.set("counters", std::move(counters));
  emit(r);
  return 0;
}

// ---- reference_execute ------------------------------------------------------

int rep_execute(const Options& o) {
  load_suite();
  const double ready_s = monotonic_seconds();
  const std::vector<ExecTarget> targets = exec_targets();
  const std::vector<ExecUnit> units = exec_units(targets);

  std::vector<std::shared_ptr<const pareval::buildsim::BuildResult>> builds(
      targets.size());
  std::vector<minic::RunResult> runs(units.size());
  std::vector<char> valid(units.size(), 0);
  const Timed t = timed([&] {
    // Cold: every implementation is built afresh, then every test runs
    // under both engines and is validated like the Validate stage does.
    support::parallel_for(
        0, targets.size(),
        [&](std::size_t i) {
          const ExecTarget& tg = targets[i];
          eval::StageOutcome outcome;
          builds[i] = eval::ScoringPipeline().build_stage(
              *tg.app, tg.app->repos.at(tg.model), &outcome);
        },
        o.threads);
    support::parallel_for(
        0, units.size(),
        [&](std::size_t u) {
          const ExecUnit& unit = units[u];
          const ExecTarget& tg = targets[unit.target];
          if (!builds[unit.target]->ok) return;
          const apps::TestCase& tc = tg.app->tests[unit.test];
          runs[u] = pareval::execsim::run_executable(
              *builds[unit.target]->exe, tc.args, minic::RunLimits{},
              unit.engine);
          valid[u] = runs[u].ok &&
                     apps::outputs_match(runs[u].stdout_text,
                                         tg.app->golden(tc),
                                         tg.app->tolerance) &&
                     (tg.model == apps::Model::OmpThreads ||
                      runs[u].stats.device_kernel_launches > 0);
        },
        o.threads);
  });

  // Engines must agree bit for bit: pair every run with its twin.
  std::vector<std::string> canonical(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    canonical[u] = minic::to_json(runs[u]).dump();
  }
  const int failed = check_exec_runs("reference_execute", targets, units,
                                     valid, canonical);
  emit(rep_result(o, t, ready_s, static_cast<int>(units.size()), failed));
  return 0;
}

// ---- serve_ci ---------------------------------------------------------------

int rep_serve(const Options& o) {
  load_suite();
  const eval::Suite& suite = eval::Suite::paper();
  const ServePlan plan = serve_plan(o.seed);
  Reference ref;
  if (!read_reference(o.ref, &ref) || ref.cells.size() != plan.specs.size()) {
    return fail("cannot read the serve_ci reference");
  }
  const std::string dir = o.work + "/store";
  if (!prepare_store(dir, "")) return fail("cannot prepare the store");

  // Set-up: load the suite, start the server on a fresh store, connect.
  serve::SweepServer::Config config;
  config.endpoint = "unix:" + o.work + "/serve.sock";
  config.cache_dir = dir;
  config.max_inflight = o.threads;
  serve::SweepServer server(config, suite);
  std::string error;
  if (!server.start(&error)) return fail(error.c_str());
  const bool serial = o.threads == 1;
  std::vector<std::vector<int>> lists =
      serial ? std::vector<std::vector<int>>{interleaved_jobs(plan)}
             : plan.client_jobs;
  std::vector<serve::Client> clients(lists.size());
  for (serve::Client& c : clients) {
    if (!c.connect(config.endpoint, &error)) return fail(error.c_str());
  }
  const double ready_s = monotonic_seconds();

  std::mutex mu;  // guards latencies and failed
  std::vector<double> latencies;
  int failed = 0;
  auto client_loop = [&](std::size_t c) {
    for (const int spec_index : lists[c]) {
      const eval::SweepSpec& spec = plan.specs[spec_index];
      serve::Client::JobOutcome outcome;
      std::string err;
      const auto t0 = Clock::now();
      const bool ok = clients[c].submit(spec, {}, &outcome, &err);
      const double latency = seconds_between(t0, Clock::now());
      int bad = 0;
      if (!ok || outcome.cancelled) {
        std::printf("MISMATCH serve_ci job spec %d: %s\n", spec_index,
                    ok ? "cancelled" : err.c_str());
        bad = 1;
      } else {
        try {
          const auto tasks =
              serve::fold_records(suite, spec, eval::HarnessConfig{}.engine,
                                  std::move(outcome.records));
          bad = check_cells("serve_ci spec " + std::to_string(spec_index),
                            tasks, ref.cells[spec_index]) != 0;
        } catch (const std::exception& e) {
          std::printf("MISMATCH serve_ci job spec %d: %s\n", spec_index,
                      e.what());
          bad = 1;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.push_back(latency);
      failed += bad;
    }
  };
  const Timed t = timed([&] {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back(client_loop, c);
    }
    for (std::thread& th : threads) th.join();
  });

  int ops = 0;
  for (const auto& jobs : lists) ops += static_cast<int>(jobs.size());
  Json r = rep_result(o, t, ready_s, ops, failed);
  r.set("counters", cache_counters(server.cache(), 0));
  Json jobs = Json::array();
  for (const double l : latencies) jobs.push_back(l);
  r.set("jobs_s", std::move(jobs));
  clients.clear();
  server.stop();
  emit(r);
  return 0;
}

}  // namespace

int run_populate(const Options& o) {
  load_suite();
  if (!prepare_store(o.work, "")) return fail("cannot prepare the store");
  cache::Store store(o.work);
  store.open();
  eval::ScoreCache cache;
  attach_layers(store, cache);
  eval::HarnessConfig config;
  config.score_cache = &cache;
  eval::run_sweep(eval::Suite::paper(), paper_spec(o.seed), config);
  flush_layers(cache);
  Json r = Json::object();
  r.set("ready_s", monotonic_seconds());
  emit(r);
  return 0;
}

int run_reference(const Options& o) {
  // The uncached path sweep_merge --verify checks against: no score cache,
  // no store, no server. threads = 1 makes it serial as well.
  const eval::Suite& suite = eval::Suite::paper();
  eval::HarnessConfig config;
  config.use_score_cache = false;
  config.threads = o.threads;
  Reference ref;
  if (o.workload == "paper") {
    const eval::SweepSpec spec = paper_spec(o.seed);
    const auto tasks = eval::run_sweep(suite, spec, config);
    ref.cells.push_back(cell_digests(tasks));
    ref.figures = digest_text(
        figures_text(suite, spec, tasks, eval::classify_failures(tasks)));
  } else if (o.workload == "serve_ci") {
    for (const eval::SweepSpec& spec : serve_plan(o.seed).specs) {
      ref.cells.push_back(cell_digests(eval::run_sweep(suite, spec, config)));
    }
  } else {
    return fail("reference: workload must be paper or serve_ci");
  }
  if (!write_reference(o.out, ref)) return fail("cannot write the reference");
  Json r = Json::object();
  r.set("reference", o.out);
  emit(r);
  return 0;
}

int run_rep(const Options& o) {
  if (o.workload == "paper_cold" || o.workload == "paper_warm") {
    return rep_paper(o);
  }
  if (o.workload == "reference_execute") return rep_execute(o);
  if (o.workload == "serve_ci") return rep_serve(o);
  return fail("unknown workload");
}

}  // namespace perfbench
