#pragma once
// Report generation: renders the harness's measurements in the layouts of
// the paper's tables and figures (ASCII heat maps and tables).

#include <functional>
#include <string>
#include <vector>

#include "eval/classify.hpp"
#include "eval/harness.hpp"

namespace pareval::eval {

// Every builder takes the (suite, spec) that produced the results: rows
// are the suite's registered apps, columns its spec-selected profiles,
// technique blocks its spec-selected techniques — nothing reaches for the
// global paper registries; pass Suite::paper() and SweepSpec::paper() for
// the paper's own layout.

/// Figure 2 sub-figure: build@1 and pass@1 heat maps (code-only and
/// overall rows; one technique per column block) for one pair. A
/// technique block appears only when the spec selects the technique and
/// no gate pins it away from `pair`.
std::string figure2_report(const Suite& suite, const SweepSpec& spec,
                           const llm::Pair& pair,
                           const std::vector<TaskResult>& tasks);

/// One Figure 2 block per spec-selected pair (suite order), each fed the
/// slice of `tasks` belonging to that pair — the standard way to render a
/// whole sweep's correctness figures.
std::string figure2_reports(const Suite& suite, const SweepSpec& spec,
                            const std::vector<TaskResult>& tasks);

/// Figure 3: error-category counts per (LLM, app), with the paper's counts
/// alongside for comparison.
std::string figure3_report(const Suite& suite, const SweepSpec& spec,
                           const ClassificationResult& classification);

/// Figure 4: average total inference tokens (thousands) per technique.
std::string figure4_report(const Suite& suite, const SweepSpec& spec,
                           const std::vector<TaskResult>& tasks);

/// Figure 5: expected token cost Eκ (thousands), cells with pass@1 > 0.
std::string figure5_report(const Suite& suite, const SweepSpec& spec,
                           const std::vector<TaskResult>& tasks);

/// Table 1: application statistics (SLoC, CC, #files, model matrix).
std::string table1_report(const Suite& suite);

/// Table 2: $ / node-hour estimates for the most economic models.
std::string table2_report(const Suite& suite,
                          const std::vector<TaskResult>& tasks);

/// Staged-pipeline view of a sweep's Overall-mode outcomes: per app, how
/// many samples passed and how many stopped at each stage — build failed,
/// run error, output mismatch, missed device — straight from the samples'
/// StageOutcome provenance (no log scraping), plus how many of the
/// failures the classifier could label exactly from that provenance.
std::string stage_breakdown_report(const Suite& suite,
                                   const SweepSpec& spec,
                                   const std::vector<TaskResult>& tasks);

}  // namespace pareval::eval
