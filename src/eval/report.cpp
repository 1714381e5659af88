#include "eval/report.hpp"

#include <cmath>
#include <optional>

#include "codeanal/metrics.hpp"
#include "eval/metrics.hpp"
#include "support/par.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace pareval::eval {

using llm::Pair;
using llm::Technique;
using support::HeatMap;

namespace {

std::vector<std::string> apps_for_pair(const Suite& suite,
                                       const SweepSpec& spec,
                                       const Pair& pair) {
  std::vector<std::string> out;
  for (const apps::AppSpec* app : suite.apps()) {
    if (app->repos.count(pair.from) > 0 && spec.selects_app(app->name)) {
      out.push_back(app->name);
    }
  }
  return out;
}

std::vector<std::string> suite_app_names(const Suite& suite,
                                         const SweepSpec& spec) {
  std::vector<std::string> out;
  for (const apps::AppSpec* app : suite.apps()) {
    if (spec.selects_app(app->name)) out.push_back(app->name);
  }
  return out;
}

std::vector<std::string> llm_names(const Suite& suite,
                                   const SweepSpec& spec) {
  std::vector<std::string> out;
  for (const llm::LlmProfile* p : suite.profiles()) {
    if (spec.selects_llm(p->name)) out.push_back(p->name);
  }
  return out;
}

std::vector<Technique> selected_techniques(const Suite& suite,
                                           const SweepSpec& spec) {
  std::vector<Technique> out;
  for (const Technique t : suite.techniques()) {
    if (spec.selects_technique(t)) out.push_back(t);
  }
  return out;
}

const TaskResult* find_task(const std::vector<TaskResult>& tasks,
                            const std::string& llm, Technique tech,
                            const std::string& app) {
  for (const auto& t : tasks) {
    if (t.llm == llm && t.technique == tech && t.app == app) return &t;
  }
  return nullptr;
}

HeatMap metric_map(const std::string& title,
                   const std::vector<TaskResult>& tasks, Technique tech,
                   const std::vector<std::string>& apps_rows,
                   const std::vector<std::string>& llm_cols,
                   const std::function<double(const TaskResult&)>& metric) {
  HeatMap hm(title, apps_rows, llm_cols);
  for (std::size_t r = 0; r < apps_rows.size(); ++r) {
    for (std::size_t c = 0; c < llm_cols.size(); ++c) {
      const TaskResult* t =
          find_task(tasks, llm_cols[c], tech, apps_rows[r]);
      if (t != nullptr && t->ran) hm.set(r, c, metric(*t));
    }
  }
  return hm;
}

/// Build every heat map of a figure concurrently on the global pool.
/// HeatMap has no default constructor, so the slots are optionals.
std::vector<std::optional<HeatMap>> build_maps(
    const std::vector<std::function<HeatMap()>>& jobs) {
  std::vector<std::optional<HeatMap>> built(jobs.size());
  support::parallel_for(0, jobs.size(),
                        [&](std::size_t i) { built[i] = jobs[i](); });
  return built;
}

}  // namespace

std::string figure2_report(const Suite& suite, const SweepSpec& spec,
                           const Pair& pair,
                           const std::vector<TaskResult>& tasks) {
  const auto rows = apps_for_pair(suite, spec, pair);
  const auto cols = llm_names(suite, spec);
  std::string out =
      "== Figure 2: correctness for " + llm::pair_name(pair) + " ==\n\n";

  struct MetricDef {
    const char* name;
    std::function<double(const TaskResult&)> codeonly;
    std::function<double(const TaskResult&)> overall;
  };
  const MetricDef metrics[] = {
      {"build@1",
       [](const TaskResult& t) { return t.build1_codeonly(); },
       [](const TaskResult& t) { return t.build1_overall(); }},
      {"pass@1",
       [](const TaskResult& t) { return t.pass1_codeonly(); },
       [](const TaskResult& t) { return t.pass1_overall(); }},
  };

  // One column block per selected technique whose gates admit this pair —
  // the SWE-agent block appears exactly where the spec's gating evaluated
  // it (CUDA->Kokkos under the paper spec), not via a hard-coded pair.
  std::vector<Technique> techs;
  for (const Technique tech : selected_techniques(suite, spec)) {
    if (spec.gate_allows_pair(tech, pair)) techs.push_back(tech);
  }

  // Flatten every (metric, mode, technique) map into one job list, grouped
  // by the side-by-side block it renders into, and build on the pool.
  std::vector<std::function<HeatMap()>> jobs;
  std::vector<std::size_t> job_group;
  std::size_t groups = 0;
  for (const auto& m : metrics) {
    for (const bool overall : {false, true}) {
      for (const auto tech : techs) {
        const std::string title =
            std::string(overall ? "Overall " : "Code-only ") + m.name +
            " — " +
            (tech == Technique::SweAgent ? "SWE-agent"
                                         : llm::technique_name(tech));
        const auto& metric = overall ? m.overall : m.codeonly;
        jobs.push_back([&tasks, tech, rows, cols, title, metric] {
          return metric_map(title, tasks, tech, rows, cols, metric);
        });
        job_group.push_back(groups);
      }
      ++groups;
    }
  }
  if (techs.empty()) return out + "(no techniques selected)\n";
  const auto built = build_maps(jobs);

  std::size_t j = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<HeatMap> maps;
    while (j < jobs.size() && job_group[j] == g) {
      maps.push_back(*built[j]);
      ++j;
    }
    out += support::render_side_by_side(maps) + "\n";
  }
  return out;
}

std::string figure2_reports(const Suite& suite, const SweepSpec& spec,
                            const std::vector<TaskResult>& tasks) {
  std::string out;
  for (const Pair& pair : suite.pairs()) {
    if (!spec.selects_pair(pair)) continue;
    std::vector<TaskResult> pair_tasks;
    for (const TaskResult& t : tasks) {
      if (t.pair == pair) pair_tasks.push_back(t);
    }
    out += figure2_report(suite, spec, pair, pair_tasks);
  }
  return out;
}

std::string figure3_report(const Suite& suite, const SweepSpec& spec,
                           const ClassificationResult& classification) {
  std::string out =
      "== Figure 3: build-error categories per (LLM, application) ==\n"
      "(ours = classified from this run's failure logs via word2vec + "
      "DBSCAN + labelling pass; paper = Figure 3 reference counts)\n\n";
  const std::vector<std::string> rows = suite_app_names(suite, spec);
  const std::vector<std::string> cols = llm_names(suite, spec);

  std::vector<xlate::DefectKind> kinds;
  for (const auto kind : xlate::all_defect_kinds()) {
    if (kind != xlate::DefectKind::Semantic) kinds.push_back(kind);
  }
  // Each kind's (ours, paper) map pair is independent: build them all
  // concurrently, then render in kind order.
  std::vector<std::function<HeatMap()>> jobs;
  for (const auto kind : kinds) {
    jobs.push_back([&, kind, rows, cols] {
      HeatMap ours(std::string("ours: ") + xlate::defect_name(kind), rows,
                   cols);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t c = 0; c < cols.size(); ++c) {
          const auto cit = classification.counts.find(kind);
          int count = 0;
          if (cit != classification.counts.end()) {
            const auto ait = cit->second.find(rows[r]);
            if (ait != cit->second.end()) {
              const auto lit = ait->second.find(cols[c]);
              if (lit != ait->second.end()) count = lit->second;
            }
          }
          ours.set(r, c, count);
        }
      }
      return ours;
    });
    jobs.push_back([kind, rows, cols] {
      HeatMap paper(std::string("paper: ") + xlate::defect_name(kind), rows,
                    cols);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t c = 0; c < cols.size(); ++c) {
          paper.set(r, c, llm::figure3_reference(kind, rows[r], cols[c]));
        }
      }
      return paper;
    });
  }
  const auto built = build_maps(jobs);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    out += support::render_side_by_side(
               {*built[2 * k], *built[2 * k + 1]}, 0) +
           "\n";
  }
  return out;
}

std::string figure4_report(const Suite& suite, const SweepSpec& spec,
                           const std::vector<TaskResult>& tasks) {
  std::string out =
      "== Figure 4: total inference tokens used in translation "
      "(thousands; averaged across generations and pairs) ==\n\n";
  const std::vector<std::string> rows = suite_app_names(suite, spec);
  const std::vector<std::string> cols = llm_names(suite, spec);
  std::vector<std::function<HeatMap()>> jobs;
  for (const auto tech : selected_techniques(suite, spec)) {
    jobs.push_back([&tasks, tech, rows, cols] {
      HeatMap hm(llm::technique_name(tech), rows, cols);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t c = 0; c < cols.size(); ++c) {
          double sum = 0.0;
          int n = 0;
          for (const auto& t : tasks) {
            if (t.llm == cols[c] && t.technique == tech &&
                t.app == rows[r] && t.ran) {
              sum += t.avg_tokens;
              ++n;
            }
          }
          if (n > 0) hm.set(r, c, sum / n / 1000.0);
        }
      }
      return hm;
    });
  }
  if (jobs.empty()) return out + "(no techniques selected)\n";
  const auto built = build_maps(jobs);
  std::vector<HeatMap> maps;
  for (const auto& hm : built) maps.push_back(*hm);
  out += support::render_side_by_side(maps, 1);
  return out;
}

std::string figure5_report(const Suite& suite, const SweepSpec& spec,
                           const std::vector<TaskResult>& tasks) {
  std::string out =
      "== Figure 5: expected tokens needed for a successful translation "
      "(Eκ, thousands; cells with pass@1 > 0) ==\n\n";
  const std::vector<std::string> rows = suite_app_names(suite, spec);
  const std::vector<std::string> cols = llm_names(suite, spec);
  std::vector<std::function<HeatMap()>> jobs;
  for (const auto tech : selected_techniques(suite, spec)) {
    // The paper's Eκ figure covers the two full-matrix techniques only.
    if (tech == Technique::SweAgent) continue;
    jobs.push_back([&tasks, tech, rows, cols] {
      HeatMap hm(llm::technique_name(tech), rows, cols);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t c = 0; c < cols.size(); ++c) {
          double ek_sum = 0.0;
          int n = 0;
          for (const auto& t : tasks) {
            if (t.llm != cols[c] || t.technique != tech ||
                t.app != rows[r] || !t.ran) {
              continue;
            }
            const double pass1 = t.pass1_overall();
            const double ek = expected_token_cost(t.avg_tokens, pass1);
            if (ek >= 0) {
              ek_sum += ek;
              ++n;
            }
          }
          if (n > 0) hm.set(r, c, ek_sum / n / 1000.0);
        }
      }
      return hm;
    });
  }
  if (jobs.empty()) return out + "(no techniques selected)\n";
  const auto built = build_maps(jobs);
  std::vector<HeatMap> maps;
  for (const auto& hm : built) maps.push_back(*hm);
  out += support::render_side_by_side(maps, 0);
  return out;
}

std::string table1_report(const Suite& suite) {
  std::string out = "== Table 1: the ParEval-Repo application suite ==\n";
  support::TextTable t({"Application", "SLoC", "CC", "# Files", "OMP Th.",
                        "OMP Of.", "CUDA", "Kokkos"});
  const auto& apps_list = suite.apps();
  // repo_metrics walks every file of every app: compute the rows on the
  // pool, then emit them in Table 1 order.
  std::vector<std::vector<std::string>> table_rows(apps_list.size());
  support::parallel_for(0, apps_list.size(), [&](std::size_t i) {
    const apps::AppSpec* app = apps_list[i];
    // Prefer the CUDA implementation (Table 1's convention), else OMP
    // threads, else whatever the (custom) app ships first.
    auto it = app->repos.find(apps::Model::Cuda);
    if (it == app->repos.end()) it = app->repos.find(apps::Model::OmpThreads);
    if (it == app->repos.end()) it = app->repos.begin();
    codeanal::RepoMetrics metrics{};
    if (it != app->repos.end()) {
      metrics = codeanal::repo_metrics(it->second);
    }
    auto mark = [&](apps::Model model) -> std::string {
      for (const auto a : app->available) {
        if (a == model) return "yes";
      }
      for (const auto p : app->ports) {
        if (p == model) return app->public_port_exists ? "port?*" : "port?";
      }
      return "";
    };
    table_rows[i] = {app->name, std::to_string(metrics.sloc),
                     std::to_string(metrics.complexity),
                     std::to_string(metrics.files),
                     mark(apps::Model::OmpThreads),
                     mark(apps::Model::OmpOffload), mark(apps::Model::Cuda),
                     mark(apps::Model::Kokkos)};
  });
  for (auto& row : table_rows) t.add_row(std::move(row));
  out += t.render();
  out += "('yes' = implementation shipped; 'port?' = translation target; "
         "'*' = public ports exist — contamination probe)\n";
  return out;
}

std::string table2_report(const Suite& suite,
                          const std::vector<TaskResult>& tasks) {
  std::string out =
      "== Table 2: estimated cost for a successful translation ==\n";
  const llm::LlmProfile* o4 = suite.find_profile("o4-mini");
  const llm::LlmProfile* llama = suite.find_profile("Llama-3.3-70B");
  support::TextTable t({"Configuration", "nanoXOR", "microXORh", "microXOR"});

  auto row = [&](const llm::LlmProfile& profile, bool dollars) {
    std::vector<std::string> cells = {
        std::string("Non-agentic ") + profile.name};
    for (const char* app : {"nanoXOR", "microXORh", "microXOR"}) {
      double ek_sum = 0.0;
      int n = 0;
      for (const auto& task : tasks) {
        if (task.llm != profile.name ||
            task.technique != Technique::NonAgentic || task.app != app ||
            !task.ran) {
          continue;
        }
        const double ek =
            expected_token_cost(task.avg_tokens, task.pass1_overall());
        if (ek >= 0) {
          ek_sum += ek;
          ++n;
        }
      }
      if (n == 0) {
        cells.push_back("-");
        continue;
      }
      const double ek = ek_sum / n;
      if (dollars) {
        // Assume the paper's ~2:1 input:output split for pricing.
        const double usd = ek * (0.55 * profile.usd_per_mtok_input +
                                 0.45 * profile.usd_per_mtok_output) /
                           1.0e6;
        cells.push_back("$" + support::strfmt("%.4f", usd));
      } else {
        const double node_hours =
            ek / profile.tokens_per_second / 3600.0;
        cells.push_back(support::strfmt("%.4f n.h.", node_hours));
      }
    }
    t.add_row(cells);
  };
  if (o4 != nullptr) row(*o4, /*dollars=*/true);
  if (llama != nullptr) row(*llama, /*dollars=*/false);
  out += t.render();
  out += "(computed from Eκ, public API prices, and 187 tok/s measured "
         "local throughput, as in §8.4)\n";
  return out;
}

std::string stage_breakdown_report(const Suite& suite,
                                   const SweepSpec& spec,
                                   const std::vector<TaskResult>& tasks) {
  std::string out =
      "== Staged pipeline: where Overall-mode samples stop ==\n";
  support::TextTable t({"Application", "Samples", "Passed", "Build fail",
                        "Run error", "Mismatch", "No device", "Exact"});
  for (const std::string& app : suite_app_names(suite, spec)) {
    int samples = 0, passed = 0, build_fail = 0, run_error = 0;
    int mismatch = 0, no_device = 0, exact = 0;
    for (const TaskResult& task : tasks) {
      if (task.app != app || !task.ran) continue;
      for (const SampleOutcome& o : task.outcomes) {
        ++samples;
        if (o.passed_overall) {
          ++passed;
          continue;
        }
        const StageOutcome* failed = first_failed_stage(o.stages);
        if (failed == nullptr) continue;  // provenance-less failure
        switch (failed->stage) {
          case Stage::Build: ++build_fail; break;
          case Stage::Execute: ++run_error; break;
          case Stage::Validate:
            (failed->detail == kDetailNoDeviceLaunch ? no_device
                                                     : mismatch)++;
            break;
        }
        xlate::DefectKind kind;
        bool from_provenance = false;
        if (label_outcome(o, &kind, &from_provenance) && from_provenance) {
          ++exact;
        }
      }
    }
    t.add_row({app, std::to_string(samples), std::to_string(passed),
               std::to_string(build_fail), std::to_string(run_error),
               std::to_string(mismatch), std::to_string(no_device),
               std::to_string(exact)});
  }
  out += t.render();
  out += "('Exact' = failures the classifier labels from stage provenance "
         "alone, no keyword scan)\n";
  return out;
}

}  // namespace pareval::eval
