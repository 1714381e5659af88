#pragma once
// Rule-based source-to-source translation engines for the three
// programming-model pairs of the benchmark (§5.2):
//   CUDA -> OpenMP offload, CUDA -> Kokkos, OpenMP threads -> OpenMP offload.
//
// These produce the *reference-correct* translation that the simulated-LLM
// layer then degrades with calibrated defects (DESIGN.md §2). The engines
// work the way the paper's tools must: parse each file, rewrite kernels
// into the target model's parallel idiom, rewrite the CUDA runtime calls
// at the call sites, regenerate the build system, and rename files to the
// target language's extensions.

#include <map>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "vfs/repo.hpp"

namespace pareval::xlate {

struct TranspileLog {
  /// old path -> new path for every renamed file.
  std::map<std::string, std::string> file_renames;
  /// per-file human-readable change summaries (the context agent's input).
  std::map<std::string, std::vector<std::string>> changes;
  std::vector<std::string> warnings;
};

/// Translate one file's source text from `from` to `to`. `repo` provides
/// cross-file context (struct names, kernel signatures). Returns the
/// translated text; records changes in `log`.
std::string transpile_file(const apps::AppSpec& app, const vfs::Repo& repo,
                           const std::string& path, apps::Model from,
                           apps::Model to, TranspileLog& log);

/// Translate a whole repository (sources + generated build file + renames).
/// agents::run_technique caches the result per process under a key of the
/// AppSpec fields read here (app_content_hash in agents/techniques.cpp);
/// reading another field means adding it to that key.
vfs::Repo transpile_repo(const apps::AppSpec& app, apps::Model from,
                         apps::Model to, TranspileLog& log);

/// Target-model build file content for an app (the correct generator; also
/// used to author the ground truths).
std::string generate_build_file(const apps::AppSpec& app, apps::Model to,
                                const std::vector<std::string>& sources);

/// The new path for a translated file (.cu -> .cpp, .cuh -> .h, build file
/// swaps between Makefile and CMakeLists.txt).
std::string translated_path(const std::string& path, apps::Model to);

}  // namespace pareval::xlate
