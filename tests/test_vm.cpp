// Differential tests for the bytecode VM (minic/vm.hpp): the VM and the
// tree-walking interpreter must be bit-identical in every observable —
// exit code, stdout/stderr, diagnostics, and RunStats including the fuel
// (`steps`) counter — across the whole seed application corpus, targeted
// language features, and runtime-fault paths. This is the contract that
// lets the harness treat the engine as a pure speed knob (and lets the
// score cache omit it from its key).

#include <gtest/gtest.h>

#include <future>
#include <map>

#include "agents/techniques.hpp"
#include "apps/app.hpp"
#include "buildsim/builder.hpp"
#include "eval/harness.hpp"
#include "eval/pipeline.hpp"
#include "eval/spec.hpp"
#include "eval/suite.hpp"
#include "execsim/driver.hpp"
#include "minic/engine.hpp"
#include "minic/sym.hpp"
#include "support/par.hpp"
#include "support/rng.hpp"

namespace pa = pareval::apps;
namespace bs = pareval::buildsim;
namespace pe = pareval::eval;
using pareval::execsim::Executable;
using pareval::execsim::compile_repo;
using pareval::minic::Capabilities;
using pareval::minic::DiagCategory;
using pareval::minic::EngineKind;
using pareval::minic::RunLimits;
using pareval::minic::RunResult;
using pareval::minic::interned_symbols;
using pareval::minic::make_engine;
using pareval::vfs::Repo;

namespace {

Capabilities cuda_caps() {
  Capabilities c;
  c.cuda = true;
  c.curand = true;
  return c;
}
Capabilities omp_caps(bool offload = true) {
  Capabilities c;
  c.openmp = true;
  c.offload = offload;
  return c;
}

Executable compile_one(const std::string& src, Capabilities caps) {
  Repo repo;
  repo.write("main.cpp", src);
  return compile_repo(repo, {"main.cpp"}, caps);
}

RunResult run_engine(const Executable& exe, EngineKind kind,
                     const std::vector<std::string>& args = {},
                     RunLimits limits = {}) {
  return make_engine(kind, exe.program, *exe.builtins, limits)->run(args);
}

/// Run under the VM and report how many tree-walk fallback instructions
/// executed (ExecEngine::tree_fallbacks): 0 = the whole run was lowered.
long long vm_fallbacks(const Executable& exe,
                       const std::vector<std::string>& args = {},
                       RunLimits limits = {}) {
  auto eng = make_engine(EngineKind::Vm, exe.program, *exe.builtins, limits);
  eng->run(args);
  return eng->tree_fallbacks();
}

/// The full observable surface of a run, via the shared JSON codec.
std::string fingerprint(const RunResult& r) {
  return pareval::minic::to_json(r).dump();
}

/// Compile `src`, run it under both engines, require byte-identical
/// results, and return the (interpreter) result for further checks.
RunResult run_both(const std::string& src, Capabilities caps,
                   std::vector<std::string> args = {},
                   RunLimits limits = {}) {
  Executable exe = compile_one(src, caps);
  EXPECT_TRUE(exe.ok()) << exe.diags.render();
  const RunResult interp = run_engine(exe, EngineKind::Interp, args, limits);
  const RunResult vm = run_engine(exe, EngineKind::Vm, args, limits);
  EXPECT_EQ(fingerprint(interp), fingerprint(vm)) << src;
  return interp;
}

bool has_runtime_fault(const pareval::minic::DiagBag& bag) {
  for (const auto& d : bag.all()) {
    if (d.category == DiagCategory::RuntimeFault &&
        d.severity == pareval::minic::Severity::Error) {
      return true;
    }
  }
  return false;
}

}  // namespace

// ------------------------------------------------- seed app corpus ----

namespace {

struct AppModelCase {
  const pa::AppSpec* app;
  pa::Model model;
};

std::vector<AppModelCase> shipped_cases() {
  std::vector<AppModelCase> out;
  for (const pa::AppSpec* app : pa::all_apps()) {
    for (const pa::Model m : app->available) {
      out.push_back({app, m});
    }
  }
  return out;
}

std::string case_name(const testing::TestParamInfo<AppModelCase>& info) {
  std::string name =
      info.param.app->name + "_" + pa::model_name(info.param.model);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

}  // namespace

class VmDiff : public testing::TestWithParam<AppModelCase> {};

// Every shipped implementation of every app, every test case: the VM's
// RunResult (exit code, stdout, stderr, diags, stats) must be
// byte-identical to the interpreter's.
TEST_P(VmDiff, SeedCorpusBitIdentical) {
  const auto& [app, model] = GetParam();
  const auto build = bs::build_repo(app->repos.at(model));
  ASSERT_TRUE(build.ok) << build.log;
  for (const auto& tc : app->tests) {
    const RunResult interp =
        run_engine(*build.exe, EngineKind::Interp, tc.args);
    const RunResult vm = run_engine(*build.exe, EngineKind::Vm, tc.args);
    EXPECT_EQ(fingerprint(interp), fingerprint(vm))
        << app->name << " / " << pa::model_name(model);
    EXPECT_EQ(interp.stats, vm.stats);
  }
}

// The staged scoring pipeline with engine=Vm must produce the exact
// StagedScore — stage verdicts, details, and log slices — of the
// interpreter-backed pipeline.
TEST_P(VmDiff, StagedScoresBitIdentical) {
  const auto& [app, model] = GetParam();
  pe::ScoringPipeline interp_pipe;
  pe::ScoringPipeline vm_pipe;
  vm_pipe.set_engine(EngineKind::Vm);
  const pe::StagedScore a = interp_pipe.score(*app, app->repos.at(model), model);
  const pe::StagedScore b = vm_pipe.score(*app, app->repos.at(model), model);
  EXPECT_EQ(a, b) << app->name << " / " << pa::model_name(model);
}

INSTANTIATE_TEST_SUITE_P(Suite, VmDiff, testing::ValuesIn(shipped_cases()),
                         case_name);

namespace {

/// FNV-1a of the RunResult of every shipped target x test, captured
/// before names were resolved to interned symbols. Both engines must hit
/// the same constant; a run whose steps, output, diags or stats move by
/// one bit changes its entry.
const std::map<std::string, std::uint64_t>& pinned_fingerprints() {
  static const std::map<std::string, std::uint64_t> kPinned = {
    {"nanoXOR/OpenMP Threads/0", 0x66cb60efaadbbb18ULL},
    {"nanoXOR/OpenMP Threads/1", 0xefc8bc33cde08260ULL},
    {"nanoXOR/OpenMP Threads/2", 0x6d06bfd538e6870fULL},
    {"nanoXOR/CUDA/0", 0x804d9047b49b7baeULL},
    {"nanoXOR/CUDA/1", 0xe155ee1e587adee2ULL},
    {"nanoXOR/CUDA/2", 0x302bdc997725c088ULL},
    {"microXORh/OpenMP Threads/0", 0x66cb60efaadbbb18ULL},
    {"microXORh/OpenMP Threads/1", 0xefc8bc33cde08260ULL},
    {"microXORh/OpenMP Threads/2", 0x6d06bfd538e6870fULL},
    {"microXORh/CUDA/0", 0x804d9047b49b7baeULL},
    {"microXORh/CUDA/1", 0xe155ee1e587adee2ULL},
    {"microXORh/CUDA/2", 0x302bdc997725c088ULL},
    {"microXOR/OpenMP Threads/0", 0x66cb60efaadbbb18ULL},
    {"microXOR/OpenMP Threads/1", 0xefc8bc33cde08260ULL},
    {"microXOR/OpenMP Threads/2", 0x6d06bfd538e6870fULL},
    {"microXOR/CUDA/0", 0x804d9047b49b7baeULL},
    {"microXOR/CUDA/1", 0xe155ee1e587adee2ULL},
    {"microXOR/CUDA/2", 0x302bdc997725c088ULL},
    {"SimpleMOC-kernel/CUDA/0", 0x795e50b3aa5d4bebULL},
    {"SimpleMOC-kernel/CUDA/1", 0x1952bd757a3bb0fdULL},
    {"SimpleMOC-kernel/CUDA/2", 0x39e2c211484418e5ULL},
    {"XSBench/OpenMP Threads/0", 0x007cfeee7aae86a4ULL},
    {"XSBench/OpenMP Threads/1", 0xe17e6904455cad95ULL},
    {"XSBench/OpenMP Threads/2", 0xea9b8e623cfd9d5cULL},
    {"XSBench/CUDA/0", 0x13a9233aed9e0adaULL},
    {"XSBench/CUDA/1", 0x0d1f9a5a773c6828ULL},
    {"XSBench/CUDA/2", 0xf95c24441f185538ULL},
    {"llm.c/CUDA/0", 0x5f71ac47845575caULL},
    {"llm.c/CUDA/1", 0xf913aedee1e75f6dULL},
    {"llm.c/CUDA/2", 0x8e1e33152277d0daULL},
  };
  return kPinned;
}

}  // namespace

TEST(VmCorpus, FingerprintsPinned) {
  std::size_t checked = 0;
  for (const AppModelCase& c : shipped_cases()) {
    const auto build = bs::build_repo(c.app->repos.at(c.model));
    ASSERT_TRUE(build.ok) << build.log;
    for (std::size_t t = 0; t < c.app->tests.size(); ++t) {
      const std::string key = c.app->name + "/" + pa::model_name(c.model) +
                              "/" + std::to_string(t);
      const auto it = pinned_fingerprints().find(key);
      ASSERT_NE(it, pinned_fingerprints().end()) << key;
      for (const EngineKind kind : {EngineKind::Interp, EngineKind::Vm}) {
        const std::uint64_t h = pareval::support::stable_hash(
            fingerprint(run_engine(*build.exe, kind, c.app->tests[t].args)));
        EXPECT_EQ(it->second, h)
            << key << (kind == EngineKind::Vm ? " vm" : " interp");
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, pinned_fingerprints().size());
}

// --------------------------------------------- language feature diffs ----

TEST(VmLang, ControlFlowAndCompoundOps) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int main() {
  int sum = 0;
  for (int i = 0; i < 20; i++) {
    if (i % 3 == 0) continue;
    if (i > 15) break;
    sum += i;
  }
  int j = 0;
  while (j < 10) { j += 2; }
  do { j--; } while (j > 5);
  int k = 7;
  k *= 3; k -= 4; k /= 2; k %= 6; k <<= 2; k >>= 1; k |= 8; k &= 14; k ^= 5;
  int pre = ++k, post = k++;
  printf("%d %d %d %d %d\n", sum, j, k, pre, post);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok);
}

TEST(VmLang, PointersAndArrays) {
  const RunResult r = run_both(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  int a[5];
  for (int i = 0; i < 5; i++) a[i] = i * i;
  int* p = a;
  int* q = p + 3;
  printf("%d %d %ld %d\n", *p, *q, q - p, p < q ? 1 : 0);
  double* d = (double*)malloc(4 * sizeof(double));
  d[0] = 1.5; d[1] = d[0] * 2.0;
  int x = 41;
  int* px = &x;
  *px += 1;
  printf("%d %.1f\n", x, d[1]);
  free(d);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "0 9 3 1\n42 3.0\n");
}

TEST(VmLang, ShortCircuitAndTernary) {
  run_both(R"(
#include <stdio.h>
int calls = 0;
int bump() { calls++; return 1; }
int main() {
  int a = 0 && bump();
  int b = 1 || bump();
  int c = 1 && bump();
  printf("%d %d %d %d %d\n", a, b, c, calls, calls > 0 ? 10 : 20);
  return 0;
}
)",
           Capabilities{});
}

TEST(VmLang, RecursionAndFunctionCalls) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() { printf("%d\n", fib(18)); return 0; }
)",
                               Capabilities{});
  EXPECT_EQ(r.stdout_text, "2584\n");
}

TEST(VmLang, KokkosLambdaBodiesCompiled) {
  // Lambda bodies compile to their own chunks on first call; View
  // declarations and view-element assignments (`a(i) = ...`, an Assign
  // whose target is an ExprKind::Call lvalue) remain tree fallbacks.
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    int n = 16;
    Kokkos::View<double*> a("a", n);
    Kokkos::parallel_for("fill", n, KOKKOS_LAMBDA(int i) {
      a(i) = 3.0 * i;
    });
    Kokkos::fence();
    double total = 0.0;
    Kokkos::parallel_reduce(n, KOKKOS_LAMBDA(int i, double& sum) {
      sum += a(i);
    }, total);
    printf("%.0f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "360\n");
}

TEST(VmLang, CudaKernelLaunch) {
  const RunResult r = run_both(R"(
#include <stdio.h>
#include <cuda_runtime.h>
__global__ void scale(int* v, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) v[i] = v[i] * 2;
}
int main() {
  int h[8];
  for (int i = 0; i < 8; i++) h[i] = i;
  int* d;
  cudaMalloc(&d, 8 * sizeof(int));
  cudaMemcpy(d, h, 8 * sizeof(int), cudaMemcpyHostToDevice);
  scale<<<2, 4>>>(d, 8);
  cudaDeviceSynchronize();
  cudaMemcpy(h, d, 8 * sizeof(int), cudaMemcpyDeviceToHost);
  int sum = 0;
  for (int i = 0; i < 8; i++) sum += h[i];
  printf("%d\n", sum);
  return 0;
}
)",
                               cuda_caps());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stats.device_kernel_launches, 1);
}

TEST(VmLang, OmpOffloadRegionCompiled) {
  // OpenMP target regions compile their structured body into a subchunk
  // (an OmpExec instruction brackets it with the data-environment
  // bookkeeping). Device-context stats must still match exactly.
  const RunResult r = run_both(R"(
#include <stdio.h>
#include <omp.h>
int main() {
  int n = 64;
  double sum = 0.0;
  double v[64];
  for (int i = 0; i < n; i++) v[i] = i * 0.5;
  #pragma omp target teams distribute parallel for reduction(+:sum) map(to: v[0:n])
  for (int i = 0; i < n; i++) sum += v[i];
  printf("%.1f\n", sum);
  return 0;
}
)",
                               omp_caps());
  EXPECT_TRUE(r.ok);
  EXPECT_GE(r.stats.target_regions, 1);
}

// ------------------------------------------------- lambda chunk diffs ----

TEST(VmLambda, CapturesThroughNestedScopes) {
  // Capture-by-value flattens globals + every scope of the creating
  // frame; the compiled lambda chunk must resolve captured names through
  // the same environment chain as the tree walker.
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
double gscale = 2.0;
int main() {
  Kokkos::initialize();
  {
    int n = 8;
    Kokkos::View<double*> out("out", n);
    double base = 10.0;
    {
      double inner = 0.5;
      {
        int deep = 3;
        Kokkos::parallel_for("fill", n, KOKKOS_LAMBDA(int i) {
          out(i) = gscale * base + inner * i + deep;
        });
      }
    }
    Kokkos::fence();
    double total = 0.0;
    Kokkos::parallel_reduce(n, KOKKOS_LAMBDA(int i, double& sum) {
      sum += out(i);
    }, total);
    printf("%.1f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  // 8 * (2*10 + 3) + 0.5 * (0+..+7) = 184 + 14 = 198
  EXPECT_EQ(r.stdout_text, "198.0\n");
}

TEST(VmLambda, LambdaCallsFunctionsAndRecursion) {
  // A compiled lambda chunk's CallFn dispatches through the virtual
  // call_function — recursion and nested lambda launches included.
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() {
  Kokkos::initialize();
  {
    double total = 0.0;
    Kokkos::parallel_reduce(6, KOKKOS_LAMBDA(int i, double& sum) {
      sum += fib(i);
    }, total);
    printf("%.0f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "12\n");  // 0+1+1+2+3+5
}

TEST(VmLambda, RepeatedLaunchesReuseOneChunk) {
  // Every closure over the same LambdaExpr shares one compiled chunk;
  // repeated launches across loop iterations must stay bit-identical
  // (and the fused fuel replay must hold on every re-entry).
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    double grand = 0.0;
    for (int rep = 1; rep <= 4; rep++) {
      double total = 0.0;
      Kokkos::parallel_reduce(5, KOKKOS_LAMBDA(int i, double& sum) {
        if (i % 2 == 0) { sum += rep * i; } else { sum += 1.0; }
      }, total);
      grand += total;
    }
    printf("%.0f\n", grand);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  // per rep: rep*(0+2+4) + 2 = 6*rep + 2; reps 1..4 -> 60 + 8 = 68
  EXPECT_EQ(r.stdout_text, "68\n");
}

TEST(VmLambda, FuelExhaustionInsideLambdaChunk) {
  // The trap must fire after exactly max_steps + 1 charges and report the
  // same line from inside the compiled lambda chunk as from the walker
  // (run_both's fingerprint equality covers the diag byte-for-byte).
  Capabilities caps;
  caps.kokkos = true;
  RunLimits limits;
  limits.max_steps = 4000;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
int main() {
  Kokkos::initialize();
  {
    double total = 0.0;
    Kokkos::parallel_reduce(1000000, KOKKOS_LAMBDA(int i, double& sum) {
      sum += i * 0.5;
    }, total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps, {}, limits);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags));
  EXPECT_EQ(r.stats.steps, limits.max_steps + 1);
}

// --------------------------------------------- fallback counting ----

TEST(VmCoverage, LoweredControlFlowRunsWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <stdio.h>
#include <stdlib.h>
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() {
  int* v = (int*)malloc(16 * sizeof(int));
  int sum = 0;
  for (int i = 0; i < 16; i++) {
    if (i % 4 == 0) continue;
    v[i] = fib(i % 8);
    sum += v[i];
  }
  int j = 0;
  while (j < 5) { j++; }
  do { j--; } while (j > 2);
  printf("%d %d\n", sum, j);
  free(v);
  return 0;
}
)",
                               Capabilities{});
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, LambdaBodiesRunWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    double total = 0.0;
    Kokkos::parallel_reduce(64, KOKKOS_LAMBDA(int i, double& sum) {
      if (i % 2 == 0) { sum += i * 0.5; }
    }, total);
    printf("%.0f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               [] {
                                 Capabilities c;
                                 c.kokkos = true;
                                 return c;
                               }());
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, OmpHostParallelRunsWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
int main() {
  int n = 32;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = i * 0.25;
  double sum = 0.0;
  #pragma omp parallel for reduction(+:sum)
  for (int i = 0; i < n; i++) sum += v[i];
  printf("%.2f\n", sum);
  free(v);
  return 0;
}
)",
                               omp_caps(/*offload=*/false));
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, OmpTargetRegionRunsWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
int main() {
  int n = 32;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = i * 0.5;
  double sum = 0.0;
  #pragma omp target teams distribute parallel for reduction(+:sum) map(to: v[0:n])
  for (int i = 0; i < n; i++) sum += v[i];
  #pragma omp target data map(tofrom: v[0:n])
  {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) v[i] = v[i] + 1.0;
  }
  printf("%.1f %.1f\n", sum, v[3]);
  free(v);
  return 0;
}
)",
                               omp_caps());
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, ResidualFormsAreCountedAsFallbacks) {
  // `int a[3] = {...}` is a complex declaration (array + InitList): the
  // whole statement tree-walks and the counter must say so.
  Executable exe = compile_one(R"(
#include <stdio.h>
int main() {
  int a[3] = {1, 2, 3};
  printf("%d\n", a[0] + a[1] + a[2]);
  return 0;
}
)",
                               Capabilities{});
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_GT(vm_fallbacks(exe), 0);
}

// ------------------------------------------------- runtime fault diffs ----

TEST(VmFault, OutOfBoundsAccess) {
  const RunResult r = run_both(R"(
#include <stdlib.h>
int main() {
  int* p = (int*)malloc(4 * sizeof(int));
  p[10] = 3;
  return 0;
}
)",
                               Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags)) << fingerprint(r);
}

TEST(VmFault, UninitializedRead) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int main() {
  int x;
  int y = x + 1;
  printf("%d\n", y);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_EQ(r.stats.read_uninitialized, 1);
}

TEST(VmFault, FuelExhaustion) {
  RunLimits limits;
  limits.max_steps = 5000;
  const RunResult r = run_both(R"(
int main() {
  int i = 0;
  while (1) { i++; }
  return i;
}
)",
                               Capabilities{}, {}, limits);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags));
  // Fuel accounting is the one shared definition (minic/runio.hpp): both
  // engines clamp to exactly max_steps + 1.
  EXPECT_EQ(r.stats.steps, limits.max_steps + 1);
  EXPECT_NE(r.stderr_text.find("instruction budget"), std::string::npos);
}

TEST(VmFault, StackOverflow) {
  const RunResult r = run_both(R"(
int boom(int n) { return boom(n + 1); }
int main() { return boom(0); }
)",
                               Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.stderr_text.find("stack overflow"), std::string::npos);
}

TEST(VmFault, DivisionByZero) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int main() {
  int a = 7, b = 0;
  printf("%d\n", a / b);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags));
}

TEST(VmFault, MinOverMinusOneTrapsInBothEngines) {
  // LLONG_MIN / -1 (and % -1) has no representable quotient: evaluated
  // natively it raises SIGFPE and kills the whole host process. Every
  // spelling — binary and compound, both engines — must trap instead.
  for (const char* expr : {"m / d", "m % d", "(m /= d)", "(m %= d)"}) {
    const std::string src = std::string(R"(
#include <stdio.h>
int main() {
  long long m = -9223372036854775807 - 1;
  long long d = -1;
  printf("%lld\n", )") + expr + R"();
  return 0;
}
)";
    const RunResult r = run_both(src, Capabilities{});
    EXPECT_FALSE(r.ok) << expr;
    EXPECT_TRUE(has_runtime_fault(r.diags)) << expr;
    EXPECT_NE(r.stderr_text.find("integer division overflow"),
              std::string::npos)
        << expr << ": " << r.stderr_text;
  }
}

TEST(VmFault, IntegerOverflowWrapsInBothEngines) {
  // Signed overflow is two's-complement wrap in both engines, whether it
  // comes from a binary operator, a compound assignment, ++/-- or unary
  // minus — never host undefined behaviour (the UBSan job runs this).
  const RunResult r = run_both(R"(
#include <stdio.h>
int main() {
  long long max = 9223372036854775807;
  long long min = -max - 1;
  long long s = max;
  s += 1;
  long long t = min;
  t -= 1;
  long long p = max;
  p *= 2;
  long long i = max;
  i++;
  long long j = min;
  j--;
  printf("%lld %lld %lld %lld %lld\n", s, t, p, i, j);
  printf("%lld %lld %lld\n", max + 1, min - 1, -min);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text,
            "-9223372036854775808 9223372036854775807 -2 "
            "-9223372036854775808 9223372036854775807\n"
            "-9223372036854775808 9223372036854775807 "
            "-9223372036854775808\n");
}

TEST(VmFault, HugeMallocTrapsOutOfMemory) {
  // The second request is far past RunLimits::max_cells; adding it to the
  // running total before the check overflowed a signed counter.
  const RunResult r = run_both(R"(
#include <stdlib.h>
int main() {
  char* a = (char*)malloc(16);
  char* b = (char*)malloc(9223372036854775807);
  return a == b;
}
)",
                               Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.stderr_text.find("out of memory (simulated)"),
            std::string::npos)
      << r.stderr_text;
}

TEST(VmFault, OverflowingViewExtentsTrapOutOfMemory) {
  // 2^32 x 2^32 elements: the extent product wraps to 0 in 64 bits.
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    Kokkos::View<double**> v("v", 4294967296, 4294967296);
    printf("made\n");
    v(0, 0) = 1.0;
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.stdout_text, "");
  EXPECT_NE(r.stderr_text.find("out of memory (simulated)"),
            std::string::npos)
      << r.stderr_text;
}

// ------------------------------------------------ name resolution ----
//
// Both engines resolve names through one binding stack keyed by interned
// symbols; these pin the scoping rules the string-keyed scope chain had.

TEST(VmNames, NestedShadowing) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int x = 1;
int get() { return x; }
int main() {
  int x = 2;
  printf("%d %d\n", x, get());
  {
    int x = 3;
    printf("%d\n", x);
    {
      x = 4;
      int x = 5;
      x++;
      printf("%d %d\n", x, get());
    }
    printf("%d\n", x);
  }
  for (int x = 10; x < 12; x++) printf("%d\n", x);
  printf("%d\n", x);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "2 1\n3\n6 1\n4\n10\n11\n2\n");
}

TEST(VmNames, SameScopeRedeclarationReusesTheSlot) {
  // A second declaration in the same scope overwrites the existing slot
  // in place, so a reference taken to the first one sees the second.
  const RunResult r = run_both(R"(
#include <stdio.h>
void set(int* p, int v) { *p = v; }
int main() {
  int a = 1;
  int* p = &a;
  set(&a, 6);
  int b = a;
  int a = 2;
  printf("%d %d %d\n", a, b, *p);
  *p = 9;
  printf("%d\n", a);
  for (int i = 0; i < 3; i++) {
    int t = i * 10;
    int t = t + 1;
    printf("%d\n", t);
  }
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "2 6 2\n9\n1\n11\n21\n");
}

TEST(VmNames, VariablesSpelledLikeBuiltins) {
  // CUDA coordinates resolve before variables; runtime constants after.
  const RunResult host = run_both(R"(
#include <stdio.h>
#undef NULL
int main() {
  double M_PI = 3.0;
  int NULL = 5;
  int RAND_MAX = 7;
  printf("%.1f %d %d %d\n", M_PI, NULL, RAND_MAX, EXIT_FAILURE);
  return 0;
}
)",
                                  Capabilities{});
  EXPECT_TRUE(host.ok) << host.stderr_text;
  EXPECT_EQ(host.stdout_text, "3.0 5 7 1\n");
  const RunResult dev = run_both(R"(
#include <stdio.h>
#include <cuda_runtime.h>
__global__ void k(int* out) {
  int gridDim = 9;
  out[blockIdx.x] = blockIdx.x * 10 + gridDim;
}
int main() {
  int* d;
  int h[2];
  cudaMalloc(&d, 2 * sizeof(int));
  k<<<2, 1>>>(d);
  cudaMemcpy(h, d, 2 * sizeof(int), cudaMemcpyDeviceToHost);
  printf("%d %d\n", h[0], h[1]);
  return 0;
}
)",
                                 cuda_caps());
  EXPECT_TRUE(dev.ok) << dev.stderr_text;
  EXPECT_EQ(dev.stdout_text, "0 10\n");
}

TEST(VmNames, LambdaCapturesTheInnermostShadow) {
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
double v = 1.0;
int i = 100;
int main() {
  Kokkos::initialize();
  {
    Kokkos::View<double*> out("out", 4);
    double v = 2.0;
    {
      double v = 3.0;
      Kokkos::parallel_for("fill", 4, KOKKOS_LAMBDA(int i) {
        out(i) = v * i;
      });
    }
    Kokkos::fence();
    double total = 0.0;
    Kokkos::parallel_reduce(4, KOKKOS_LAMBDA(int i, double& v) {
      v += out(i);
    }, total);
    printf("%.1f %.1f\n", total, v);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "18.0 2.0\n");
}

TEST(VmNames, RecursionKeepsFramesApart) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int n = 1000;
int walk(int n) {
  int x = n * 2;
  if (n == 0) return x;
  { int x = 1; n = n - x; }
  return walk(n) + x;
}
int main() {
  printf("%d %d\n", walk(6), n);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "42 1000\n");
}

TEST(VmNames, OmpTargetRegionShadowsOuterScalar) {
  const RunResult r = run_both(R"(
#include <stdio.h>
#include <omp.h>
int main() {
  int n = 8;
  double s = 1.0;
  double t = 0.5;
  double a[8];
  #pragma omp target map(tofrom: a[0:n])
  {
    double s = 2.0;
    for (int i = 0; i < n; i++) a[i] = s * i;
  }
  #pragma omp target map(tofrom: s) map(to: a[0:n])
  {
    s = s + a[0] + 4.0;
    t = 9.0;
  }
  printf("%.1f %.1f %.1f\n", s, t, a[7]);
  return 0;
}
)",
                               omp_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "5.0 0.5 14.0\n");
}

TEST(VmNames, UndeclaredIdentifierTrap) {
  // Sema rejects the program, but an engine asked to run it anyway must
  // trap at the read with the same message and step count.
  Executable exe = compile_one(R"(
int main() {
  int y = 1;
  y = y + zz;
  return y;
}
)",
                               Capabilities{});
  ASSERT_FALSE(exe.ok());
  const RunResult interp = run_engine(exe, EngineKind::Interp);
  const RunResult vm = run_engine(exe, EngineKind::Vm);
  EXPECT_EQ(fingerprint(interp), fingerprint(vm));
  EXPECT_FALSE(interp.ok);
  EXPECT_NE(interp.stderr_text.find("use of undeclared identifier 'zz'"),
            std::string::npos)
      << interp.stderr_text;
  EXPECT_EQ(interp.stats.steps, 9);
}

// ------------------------------------------------ symbol interner ----
//
// Names are interned at sema and decode time only; the interner is
// process-wide and never evicts, so it must stop growing once the inputs
// repeat, and concurrent compiles must agree on every symbol.

TEST(VmInterner, RunningInternsNothing) {
  std::vector<std::pair<const pa::AppSpec*, bs::BuildResult>> builds;
  for (const AppModelCase& c : shipped_cases()) {
    builds.emplace_back(c.app, bs::build_repo(c.app->repos.at(c.model)));
    ASSERT_TRUE(builds.back().second.ok) << builds.back().second.log;
  }
  const std::size_t before = interned_symbols();
  for (const auto& [app, build] : builds) {
    for (const auto& tc : app->tests) {
      for (const EngineKind kind : {EngineKind::Interp, EngineKind::Vm}) {
        run_engine(*build.exe, kind, tc.args);
      }
    }
  }
  EXPECT_EQ(interned_symbols(), before);
}

TEST(VmInterner, RecompilingAndRegeneratingAddNoSymbols) {
  auto build_all = [] {
    for (const AppModelCase& c : shipped_cases()) {
      EXPECT_TRUE(bs::build_repo(c.app->repos.at(c.model)).ok);
    }
  };
  build_all();
  const std::size_t compiled = interned_symbols();
  EXPECT_GT(compiled, std::size_t{pareval::minic::kNumReservedSyms});
  build_all();
  EXPECT_EQ(interned_symbols(), compiled);

  // Generating translations never compiles: a second seed's pass over
  // every paper-spec cell adds nothing either.
  const auto& suite = pe::Suite::paper();
  const auto cells = pe::sweep_cells(suite, pe::SweepSpec::paper());
  ASSERT_FALSE(cells.empty());
  auto generate_all = [&](std::uint64_t seed) {
    constexpr int kSamples = 2;
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
  const std::size_t generated = interned_symbols();
  generate_all(2024);
  EXPECT_EQ(interned_symbols(), generated);
}

TEST(VmInterner, ConcurrentCompilesAgreeOnEverySymbol) {
  // 32 compiles race to intern 48 fresh spellings, each source declaring
  // an overlapping window of 16 of them.
  constexpr int kTasks = 32;
  constexpr int kNames = 48;
  constexpr int kWindow = 16;
  auto name_of = [](int n) { return "interner_race_v" + std::to_string(n); };
  using Seen = std::vector<std::pair<std::string, pareval::minic::Sym>>;
  std::vector<Seen> seen(kTasks);
  {
    pareval::support::ThreadPool pool(kTasks);
    std::vector<std::future<void>> done;
    for (int t = 0; t < kTasks; ++t) {
      done.push_back(pool.submit([&, t] {
        std::string src = "int main() {\n";
        for (int j = 0; j < kWindow; ++j) {
          src += "  int " + name_of((t + 3 * j) % kNames) + " = " +
                 std::to_string(j) + ";\n";
        }
        src += "  return 0;\n}\n";
        const Executable exe = compile_one(src, Capabilities{});
        const auto& body = *exe.program.functions.at("main")->body;
        for (const auto& stmt : body.body) {
          for (const auto& d : stmt->decls) seen[t].emplace_back(d.name, d.sym);
        }
      }));
    }
    for (auto& f : done) pool.await(f);
  }
  std::map<std::string, pareval::minic::Sym> agreed;
  std::map<pareval::minic::Sym, std::string> spelled;
  for (const Seen& s : seen) {
    ASSERT_EQ(s.size(), std::size_t{kWindow});
    for (const auto& [name, sym] : s) {
      EXPECT_NE(sym, pareval::minic::kNoSym) << name;
      const auto [it, fresh] = agreed.emplace(name, sym);
      EXPECT_EQ(it->second, sym) << name;
      const auto [jt, fresh_sym] = spelled.emplace(sym, name);
      EXPECT_EQ(jt->second, name) << sym;
    }
  }
  EXPECT_EQ(agreed.size(), std::size_t{kNames});
  for (const auto& [name, sym] : agreed) {
    EXPECT_EQ(pareval::minic::intern(name), sym) << name;
  }
}

// ------------------------------------------------ harness invariance ----

// The harness with engine=Vm is deterministic across thread counts and
// produces the exact TaskResult of the interpreter-backed harness.
TEST(VmHarness, RunTaskEngineAndThreadInvariant) {
  const auto* app = pa::find_app("nanoXOR");
  ASSERT_NE(app, nullptr);
  const auto& pair = pareval::llm::all_pairs()[0];
  const auto& profile = pareval::llm::all_profiles()[0];
  const auto technique = pareval::llm::Technique::NonAgentic;

  pe::HarnessConfig interp_cfg;
  interp_cfg.samples_per_task = 6;
  interp_cfg.threads = 1;
  interp_cfg.use_score_cache = false;

  pe::HarnessConfig vm_serial = interp_cfg;
  vm_serial.engine = EngineKind::Vm;
  pe::HarnessConfig vm_parallel = vm_serial;
  vm_parallel.threads = pareval::support::hardware_threads();

  const auto a = pe::run_task(*app, technique, profile, pair, interp_cfg);
  const auto b = pe::run_task(*app, technique, profile, pair, vm_serial);
  const auto c = pe::run_task(*app, technique, profile, pair, vm_parallel);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}
