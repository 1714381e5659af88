// Translation-engine tests. The reference transpilers must produce
// *correct* target-model repositories: they build under the simulated
// toolchains, run on the device, and match the app's golden outputs. The
// defect mutators must then create exactly the failure class they claim.

#include <gtest/gtest.h>

#include "agents/techniques.hpp"
#include "apps/app.hpp"
#include "buildsim/builder.hpp"
#include "codeanal/analysis.hpp"
#include "eval/harness.hpp"
#include "eval/spec.hpp"
#include "eval/suite.hpp"
#include "support/par.hpp"
#include "translate/mutate.hpp"
#include "translate/transpile.hpp"

namespace pa = pareval::apps;
namespace bs = pareval::buildsim;
namespace px = pareval::xlate;
using pareval::execsim::run_executable;
using pareval::minic::DiagCategory;

namespace {

struct PairCase {
  std::string app;
  pa::Model from;
  pa::Model to;
  bool expect_runnable;  // reference translation should pass validation
};

// The benchmark's sixteen translation tasks (§5.2). XSBench->Kokkos is the
// one task whose naive translation cannot work in our substrate (pointer
// arithmetic into Views); the paper's Figure 2 shows zero successes there
// for every technique, so the reference translation is only required to
// exist, not to pass.
std::vector<PairCase> pair_cases() {
  using M = pa::Model;
  return {
      {"nanoXOR", M::Cuda, M::OmpOffload, true},
      {"microXORh", M::Cuda, M::OmpOffload, true},
      {"microXOR", M::Cuda, M::OmpOffload, true},
      {"SimpleMOC-kernel", M::Cuda, M::OmpOffload, true},
      {"XSBench", M::Cuda, M::OmpOffload, true},
      {"llm.c", M::Cuda, M::OmpOffload, true},
      {"nanoXOR", M::Cuda, M::Kokkos, true},
      {"microXORh", M::Cuda, M::Kokkos, true},
      {"microXOR", M::Cuda, M::Kokkos, true},
      {"SimpleMOC-kernel", M::Cuda, M::Kokkos, true},
      {"XSBench", M::Cuda, M::Kokkos, false},
      {"llm.c", M::Cuda, M::Kokkos, true},
      {"nanoXOR", M::OmpThreads, M::OmpOffload, true},
      {"microXORh", M::OmpThreads, M::OmpOffload, true},
      {"microXOR", M::OmpThreads, M::OmpOffload, true},
      {"XSBench", M::OmpThreads, M::OmpOffload, true},
  };
}

std::string pair_name(const testing::TestParamInfo<PairCase>& info) {
  std::string name = info.param.app + "_" +
                     pa::model_name(info.param.from) + "_to_" +
                     pa::model_name(info.param.to);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

bool has_category(const pareval::minic::DiagBag& bag, DiagCategory cat) {
  for (const auto& d : bag.all()) {
    if (d.category == cat &&
        d.severity == pareval::minic::Severity::Error) {
      return true;
    }
  }
  return false;
}

}  // namespace

class TranslationPair : public testing::TestWithParam<PairCase> {};

TEST_P(TranslationPair, ReferenceTranslationIsCorrect) {
  const PairCase& pc = GetParam();
  const pa::AppSpec* app = pa::find_app(pc.app);
  ASSERT_NE(app, nullptr);

  px::TranspileLog log;
  const pareval::vfs::Repo translated =
      px::transpile_repo(*app, pc.from, pc.to, log);

  // Structural checks always apply.
  EXPECT_TRUE(translated.exists(pc.to == pa::Model::Kokkos
                                    ? "CMakeLists.txt"
                                    : "Makefile"));
  for (const auto& path : translated.paths()) {
    EXPECT_FALSE(path.ends_with(".cu")) << path;
    EXPECT_FALSE(path.ends_with(".cuh")) << path;
  }

  if (!pc.expect_runnable) return;

  const auto build = bs::build_repo(translated);
  ASSERT_TRUE(build.ok) << build.log;
  for (const auto& tc : app->tests) {
    const auto run = run_executable(*build.exe, tc.args);
    ASSERT_TRUE(run.ok) << run.stderr_text << "\n" << build.log;
    EXPECT_TRUE(
        pa::outputs_match(run.stdout_text, app->golden(tc), app->tolerance))
        << "got:  " << run.stdout_text << "want: " << app->golden(tc);
    EXPECT_GE(run.stats.device_kernel_launches, 1)
        << "translation did not execute on the device";
  }
}

INSTANTIATE_TEST_SUITE_P(Pairs, TranslationPair,
                         testing::ValuesIn(pair_cases()), pair_name);

// ----------------------------------------------------------- mutators ---

namespace {

pareval::vfs::Repo translated_nanoxor_omp() {
  px::TranspileLog log;
  return px::transpile_repo(*pa::find_app("nanoXOR"), pa::Model::Cuda,
                            pa::Model::OmpOffload, log);
}

pareval::vfs::Repo translated_nanoxor_kokkos() {
  px::TranspileLog log;
  return px::transpile_repo(*pa::find_app("nanoXOR"), pa::Model::Cuda,
                            pa::Model::Kokkos, log);
}

pareval::vfs::Repo translated_microxor_omp() {
  px::TranspileLog log;
  return px::transpile_repo(*pa::find_app("microXOR"), pa::Model::Cuda,
                            pa::Model::OmpOffload, log);
}

}  // namespace

TEST(Mutators, MakefileSyntaxBreaksBuildAsItsCategory) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(1);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::MakefileSyntax, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::MakefileSyntax));
}

TEST(Mutators, MissingBuildTarget) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(2);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::MissingBuildTarget, rng)
          .applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::MissingBuildTarget));
}

TEST(Mutators, CMakeConfigError) {
  auto repo = translated_nanoxor_kokkos();
  pareval::support::Rng rng(3);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::CMakeConfig, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::CMakeConfig));
}

TEST(Mutators, InvalidCompilerFlag) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(4);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::InvalidFlag, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::InvalidCompilerFlag));
}

TEST(Mutators, MissingHeader) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(5);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::MissingHeader, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::MissingHeader));
}

TEST(Mutators, CodeSyntax) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(6);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::CodeSyntax, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::CodeSyntax));
}

TEST(Mutators, UndeclaredIdentifierCrossFile) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(7);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::UndeclaredId, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok) << outcome.description;
  EXPECT_TRUE(has_category(build.diags, DiagCategory::UndeclaredIdentifier) ||
              has_category(build.diags, DiagCategory::LinkError))
      << build.log;
}

TEST(Mutators, ArgMismatch) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(8);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::ArgMismatch, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok) << outcome.description;
  EXPECT_TRUE(has_category(build.diags, DiagCategory::ArgTypeMismatch))
      << build.log;
}

TEST(Mutators, OmpInvalidDirective) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(9);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::OmpInvalid, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::OmpInvalidDirective))
      << build.log;
}

TEST(Mutators, LinkError) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(10);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::LinkError, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok) << outcome.description;
  EXPECT_TRUE(has_category(build.diags, DiagCategory::LinkError))
      << build.log;
}

TEST(Mutators, SemanticDefectBuildsButFailsValidation) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(11);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::Semantic, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  ASSERT_TRUE(build.ok) << outcome.description << "\n" << build.log;
  const pa::AppSpec* app = pa::find_app("nanoXOR");
  const auto run = run_executable(*build.exe, app->tests[0].args);
  const bool passes =
      run.ok &&
      pa::outputs_match(run.stdout_text, app->golden(app->tests[0]),
                        app->tolerance) &&
      run.stats.device_kernel_launches >= 1;
  EXPECT_FALSE(passes) << outcome.description;
}

TEST(Mutators, BuildFileDefectsAreHiddenByCodeOnlyMode) {
  // Code-only scoring swaps in the ground-truth build file: a build-file
  // defect must vanish, a source defect must not.
  const pa::AppSpec* app = pa::find_app("nanoXOR");
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(12);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::InvalidFlag, rng).applied);
  EXPECT_FALSE(bs::build_repo(repo).ok);
  // Swap in ground truth (what the harness's Code-only mode does).
  for (const auto& f :
       app->ground_truth_builds.at(pa::Model::OmpOffload).files()) {
    repo.write(f.path, f.content);
  }
  EXPECT_TRUE(bs::build_repo(repo).ok);
}

TEST(Mutators, EveryKindHasANameAndOrder) {
  EXPECT_EQ(px::all_defect_kinds().size(), 11u);
  for (const auto k : px::all_defect_kinds()) {
    EXPECT_NE(std::string(px::defect_name(k)), "?");
  }
}

// The defect injectors read each file's memoised codeanal::Analysis. They
// only ever see source repos and pre-defect reference translations, so the
// memo is bounded by those fixed inputs: once one seed's generation pass
// has filled it, another seed's pass adds no entry.
TEST(Mutators, AnalysisMemoStopsGrowingAcrossSeeds) {
  const auto& suite = pareval::eval::Suite::paper();
  auto spec = pareval::eval::SweepSpec::paper();
  const auto cells = pareval::eval::sweep_cells(suite, spec);
  ASSERT_FALSE(cells.empty());
  auto generate_all = [&](std::uint64_t seed) {
    constexpr int kSamples = 6;
    pareval::support::parallel_for(
        0, cells.size() * kSamples, [&](std::size_t k) {
          const auto& cell = cells[k / kSamples];
          pareval::support::Rng rng(
              seed ^ pareval::support::stable_hash(
                         cell.profile->name + "|" + cell.app->name + "#" +
                         std::to_string(k)));
          pareval::agents::run_technique(*cell.app, cell.technique,
                                         *cell.profile, cell.pair, rng);
        });
  };
  generate_all(1070);
  const auto filled = pareval::codeanal::analysis_runs();
  EXPECT_GT(filled, 0u);
  generate_all(2024);
  EXPECT_EQ(pareval::codeanal::analysis_runs(), filled);
}
