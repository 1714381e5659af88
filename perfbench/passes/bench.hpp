#pragma once
// Shared pieces of the perfbench passes: clocks and resource meters,
// result digests, the seeded workload inputs, reference files, and the
// output checks every pass runs.
//
// The passes only call the program's public entry points. Everything a
// workload feeds the program is generated here from one seed.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "eval/classify.hpp"
#include "eval/harness.hpp"
#include "eval/spec.hpp"
#include "eval/suite.hpp"
#include "minic/engine.hpp"
#include "support/cachestore.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace eval = pareval::eval;
namespace cache = pareval::cache;
using pareval::support::Json;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
/// User + system CPU seconds of this process, all threads included.
double process_cpu_seconds();
/// This process's monotonic clock reading in seconds: the clock Python's
/// time.monotonic() reads, so run.py can time set-up from the spawn on.
double monotonic_seconds();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

inline constexpr std::uint64_t kDefaultSeed = 1070;

// ---- digests ---------------------------------------------------------------

/// FNV-1a digest over every field of a TaskResult (outcomes, stage logs
/// and injected defects included). Written against the struct, not a file
/// format, so a change to a serializer cannot move it.
std::uint64_t digest(const eval::TaskResult& task);
std::uint64_t digest_text(const std::string& text);
std::string hex(std::uint64_t value);
bool parse_hex(const std::string& text, std::uint64_t* out);

// ---- workload inputs --------------------------------------------------------

/// The paper spec (every cell, N=25) with the given base seed.
eval::SweepSpec paper_spec(std::uint64_t seed);

/// The CI subset shape (52 cells, N=6) with the given base seed.
eval::SweepSpec ci_subset_spec(std::uint64_t seed);

/// serve_ci traffic: every client submits its job list in order and waits
/// for each reply (a closed loop). A third of each list resubmits a spec
/// the same client sent earlier, the CI warm-resubmit pattern.
inline constexpr int kServeClients = 2;
inline constexpr int kServeFreshPerClient = 8;
inline constexpr int kServeResubmitsPerClient = 4;

struct ServePlan {
  std::vector<eval::SweepSpec> specs;         // distinct job specs
  std::vector<std::vector<int>> client_jobs;  // per client: spec indices
};
ServePlan serve_plan(std::uint64_t seed);
/// The order one serial client submits the whole plan in: the clients'
/// lists interleaved, so every resubmit still follows its original.
std::vector<int> interleaved_jobs(const ServePlan& plan);

/// reference_execute's corpus: every shipped implementation of every app.
struct ExecTarget {
  const pareval::apps::AppSpec* app = nullptr;
  pareval::apps::Model model = pareval::apps::Model::OmpThreads;
};
std::vector<ExecTarget> exec_targets();

/// One (target, test, engine) run. The corpus is fixed: every seed gives
/// the same runs in the same order, so run-to-run differences are noise
/// and not a different schedule on the pool.
struct ExecUnit {
  int target = 0;
  int test = 0;
  pareval::minic::EngineKind engine = pareval::minic::EngineKind::Interp;
};
inline constexpr pareval::minic::EngineKind kEngines[] = {
    pareval::minic::EngineKind::Interp, pareval::minic::EngineKind::Vm};
std::vector<ExecUnit> exec_units(const std::vector<ExecTarget>& targets);
/// reference_execute's check: a run fails unless it passed golden
/// validation (`valid`) and its other-engine twin's RunResult serialises
/// to the same bytes (`canonical`). Prints a MISMATCH line per failed run
/// and returns how many failed.
int check_exec_runs(const std::string& label,
                    const std::vector<ExecTarget>& targets,
                    const std::vector<ExecUnit>& units,
                    const std::vector<char>& valid,
                    const std::vector<std::string>& canonical);

/// Every figure and table, in bench_figures order.
std::string figures_text(const eval::Suite& suite,
                         const eval::SweepSpec& spec,
                         const std::vector<eval::TaskResult>& tasks,
                         const eval::ClassificationResult& classification);

// ---- references -------------------------------------------------------------

/// Expected outputs of one workload input: per spec, one digest per cell,
/// plus the figures-text digest (paper specs only; 0 otherwise).
struct Reference {
  std::vector<std::vector<std::uint64_t>> cells;
  std::uint64_t figures = 0;
};
bool read_reference(const std::string& path, Reference* out);
bool write_reference(const std::string& path, const Reference& ref);

std::vector<std::uint64_t> cell_digests(
    const std::vector<eval::TaskResult>& tasks);

/// Compare a sweep against its expected cell digests. Prints one MISMATCH
/// line per disagreeing cell and returns how many disagreed (a missing or
/// extra cell counts as a mismatch).
int check_cells(const std::string& label,
                const std::vector<eval::TaskResult>& tasks,
                const std::vector<std::uint64_t>& expected);

// ---- the store --------------------------------------------------------------

/// Every journal stream the cache layers write.
const std::vector<std::string>& store_streams();

void attach_layers(cache::Store& store, eval::ScoreCache& cache);
std::size_t flush_layers(eval::ScoreCache& cache);

struct StoreTotals {
  std::size_t replayed = 0;
  std::size_t appended = 0;
  std::size_t dropped = 0;  // torn + CRC-rejected records
  std::size_t journal_bytes = 0;
};
StoreTotals store_totals(const cache::Store& store);

/// Make `dir` a fresh store directory: empty, or a byte copy of
/// `template_dir` when that is non-empty.
bool prepare_store(const std::string& dir, const std::string& template_dir);

// ---- small helpers ----------------------------------------------------------

/// Nearest-rank percentile, q in (0, 100].
double percentile(std::vector<double> values, double q);

/// Print `result` as the process's last stdout line.
void emit(const Json& result);

}  // namespace perfbench
