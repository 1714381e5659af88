#include "eval/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "buildsim/builder.hpp"
#include "buildsim/linkcache.hpp"
#include "buildsim/tucache.hpp"
#include "execsim/driver.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pareval::eval {

using support::Json;

// --- stable keys ------------------------------------------------------------

const char* stage_key(Stage s) {
  switch (s) {
    case Stage::Build: return "build";
    case Stage::Execute: return "execute";
    case Stage::Validate: return "validate";
  }
  return "?";
}

bool stage_from_key(const std::string& key, Stage* out) {
  for (const Stage s : {Stage::Build, Stage::Execute, Stage::Validate}) {
    if (key == stage_key(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

const char* stage_verdict_key(StageVerdict v) {
  switch (v) {
    case StageVerdict::Pass: return "pass";
    case StageVerdict::Fail: return "fail";
    case StageVerdict::Skipped: return "skipped";
  }
  return "?";
}

bool stage_verdict_from_key(const std::string& key, StageVerdict* out) {
  for (const StageVerdict v :
       {StageVerdict::Pass, StageVerdict::Fail, StageVerdict::Skipped}) {
    if (key == stage_verdict_key(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

const char* diag_detail_key(minic::DiagCategory c) {
  return minic::diag_category_key(c);
}

bool diag_detail_from_key(const std::string& key,
                          minic::DiagCategory* out) {
  return minic::diag_category_from_key(key, out);
}

// --- StagedScore ------------------------------------------------------------

const StageOutcome* first_failed_stage(
    const std::vector<StageOutcome>& stages) {
  for (const StageOutcome& s : stages) {
    if (s.verdict == StageVerdict::Fail) return &s;
  }
  return nullptr;
}

std::string concat_stage_logs(const std::vector<StageOutcome>& stages) {
  std::string out;
  for (const StageOutcome& s : stages) out += s.log;
  return out;
}

std::string StagedScore::flat_log() const {
  return concat_stage_logs(stages);
}

// --- content hashing --------------------------------------------------------

std::uint64_t repo_content_hash(const vfs::Repo& repo) {
  // One definition of "the same artifact" for every cache layer: the
  // algorithm lives with the TU compile cache (buildsim) so the build
  // simulator's plan digests and the score/build layers can never drift.
  return buildsim::repo_content_hash(repo);
}

std::uint64_t build_artifact_key(const apps::AppSpec& app,
                                 const vfs::Repo& repo) {
  return support::SplitMix64(repo_content_hash(repo) ^
                             support::stable_hash(app.name))
      .next();
}

// --- BuildArtifactCache -----------------------------------------------------

std::shared_ptr<const buildsim::BuildResult> BuildArtifactCache::lookup(
    std::uint64_t key) {
  std::shared_ptr<const buildsim::BuildResult> build;
  if (!entries_.find(key, [&build](const auto& b) { build = b; })) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return build;
}

void BuildArtifactCache::clear() {
  entries_.clear();
  hits_.store(0);
  misses_.store(0);
}

// --- ScoringPipeline --------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_build_stage_nanos{0};
}  // namespace

std::uint64_t build_stage_nanos() {
  return g_build_stage_nanos.load(std::memory_order_relaxed);
}

std::shared_ptr<const buildsim::BuildResult> ScoringPipeline::build_stage(
    const apps::AppSpec& app, const vfs::Repo& repo,
    StageOutcome* outcome) const {
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const buildsim::BuildResult> build;
  if (build_cache_ != nullptr) {
    const std::uint64_t key = build_artifact_key(app, repo);
    build = build_cache_->lookup(key);
    if (build == nullptr) {
      // Two threads racing on one key just perform the same pure build
      // twice; the second insert benignly replaces the first. The TU
      // cache dedupes the compile work below the whole-repo key.
      build = std::make_shared<buildsim::BuildResult>(
          buildsim::build_repo(repo, "", tu_cache_, link_cache_));
      build_cache_->insert(key, build);
    }
  } else {
    build = std::make_shared<buildsim::BuildResult>(
        buildsim::build_repo(repo, "", tu_cache_, link_cache_));
  }
  g_build_stage_nanos.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);

  StageOutcome bs;
  bs.stage = Stage::Build;
  bs.log = build->log;
  if (build->ok) {
    bs.verdict = StageVerdict::Pass;
  } else {
    bs.verdict = StageVerdict::Fail;
    const auto category = build->sole_error_category();
    if (category.has_value()) {
      bs.detail = diag_detail_key(*category);
    } else if (build->diags.has_errors()) {
      bs.detail = kDetailMixedDiagnostics;  // errors of several categories
    } else {
      // Every command ran but nothing linked an executable (e.g. a
      // compile-only Makefile): a failure with no diagnostic to cite.
      bs.detail = kDetailNoExecutable;
    }
  }
  *outcome = std::move(bs);
  return build;
}

StagedScore ScoringPipeline::score(const apps::AppSpec& app,
                                   const vfs::Repo& repo,
                                   apps::Model target) const {
  StagedScore out;
  StageOutcome build_outcome;
  const auto build = build_stage(app, repo, &build_outcome);
  out.stages.push_back(std::move(build_outcome));
  if (!build->ok) return out;
  out.built = true;

  const bool gpu_target = target != apps::Model::OmpThreads;
  bool all_passed = true;
  for (std::size_t i = 0; i < app.tests.size(); ++i) {
    const apps::TestCase& tc = app.tests[i];
    const auto run = execsim::run_executable(*build->exe, tc.args,
                                             minic::RunLimits{}, engine_);

    StageOutcome es;
    es.stage = Stage::Execute;
    es.test_case = static_cast<int>(i);
    if (!run.ok) {
      es.verdict = StageVerdict::Fail;
      es.detail = kDetailRunError;
      es.log = run.stderr_text;
      out.stages.push_back(std::move(es));
      all_passed = false;
      break;
    }
    es.verdict = StageVerdict::Pass;
    out.stages.push_back(std::move(es));

    StageOutcome vs;
    vs.stage = Stage::Validate;
    vs.test_case = static_cast<int>(i);
    if (!apps::outputs_match(run.stdout_text, app.golden(tc),
                             app.tolerance)) {
      vs.verdict = StageVerdict::Fail;
      vs.detail = kDetailOutputMismatch;
      vs.log = "validation failed: output mismatch\nexpected:\n" +
               app.golden(tc) + "got:\n" + run.stdout_text;
      out.stages.push_back(std::move(vs));
      all_passed = false;
      break;
    }
    if (gpu_target && run.stats.device_kernel_launches == 0) {
      vs.verdict = StageVerdict::Fail;
      vs.detail = kDetailNoDeviceLaunch;
      vs.log =
          "validation failed: translation did not execute on the GPU "
          "(no device kernel launches)\n";
      out.stages.push_back(std::move(vs));
      all_passed = false;
      break;
    }
    vs.verdict = StageVerdict::Pass;
    out.stages.push_back(std::move(vs));
  }
  out.passed = all_passed;
  return out;
}

// --- JSON codecs ------------------------------------------------------------

Json to_json(const StageOutcome& o) {
  Json j = Json::object();
  j.set("stage", stage_key(o.stage));
  j.set("verdict", stage_verdict_key(o.verdict));
  // Value-dependent fields are omitted when empty/absent so stripped-log
  // outcomes stay compact; parsing restores the defaults.
  if (o.test_case >= 0) j.set("test", o.test_case);
  if (!o.detail.empty()) j.set("detail", o.detail);
  if (!o.log.empty()) j.set("log", o.log);
  return j;
}

bool from_json(const Json& j, StageOutcome* out) {
  if (!j.is_object() ||
      !stage_from_key(j["stage"].as_string(), &out->stage) ||
      !stage_verdict_from_key(j["verdict"].as_string(), &out->verdict)) {
    return false;
  }
  out->test_case =
      j["test"].is_number() ? static_cast<int>(j["test"].as_int()) : -1;
  out->detail = j["detail"].as_string();
  out->log = j["log"].as_string();
  return true;
}

Json to_json(const StagedScore& s) {
  Json j = Json::object();
  j.set("built", s.built);
  j.set("passed", s.passed);
  Json stages = Json::array();
  for (const StageOutcome& o : s.stages) stages.push_back(to_json(o));
  j.set("stages", std::move(stages));
  return j;
}

bool from_json(const Json& j, StagedScore* out) {
  if (!j.is_object() || !j["built"].is_bool() || !j["passed"].is_bool()) {
    return false;
  }
  out->built = j["built"].as_bool();
  out->passed = j["passed"].as_bool();
  out->stages.clear();
  for (const Json& o : j["stages"].items()) {
    StageOutcome outcome;
    if (!from_json(o, &outcome)) return false;
    out->stages.push_back(std::move(outcome));
  }
  return true;
}

}  // namespace pareval::eval
