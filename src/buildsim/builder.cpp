#include "buildsim/builder.hpp"

#include <map>
#include <set>

#include "buildsim/cmakelite.hpp"
#include "buildsim/linkcache.hpp"
#include "buildsim/makefile.hpp"
#include "buildsim/toolchain.hpp"
#include "buildsim/tucache.hpp"
#include "support/strings.hpp"

namespace pareval::buildsim {

using minic::Capabilities;
using minic::DiagBag;
using minic::DiagCategory;

namespace {

bool known_system_lib(const std::string& lib) {
  static const std::set<std::string> kLibs = {
      "m",      "kokkoscore", "kokkos", "curand", "cudart", "cuda",
      "gomp",   "omp",        "iomp5",  "pthread", "stdc++", "dl", "rt"};
  return kLibs.count(lib) > 0;
}

Capabilities union_caps(const Capabilities& a, const Capabilities& b) {
  Capabilities out;
  out.cuda = a.cuda || b.cuda;
  out.openmp = a.openmp || b.openmp;
  out.offload = a.offload || b.offload;
  out.kokkos = a.kokkos || b.kokkos;
  out.curand = a.curand || b.curand;
  return out;
}

/// Executes planned compiler command lines against the repo.
class CommandRunner {
 public:
  CommandRunner(const vfs::Repo& repo, BuildResult& result,
                TuCompileCache* tu_cache, LinkCache* link_cache)
      : repo_(repo), result_(result), tu_cache_(tu_cache),
        link_cache_(link_cache) {}

  /// Primary keys of the TU compiles performed, in command order — the
  /// build's compile-plan digest (only collected when a cache is wired).
  std::vector<std::uint64_t> take_tu_keys() { return std::move(tu_keys_); }

  /// Run one command line. Returns false when the build must stop.
  bool run(const std::string& line) {
    result_.log += line + "\n";
    const auto tokens = shell_split(line);
    if (tokens.empty()) return true;
    const std::string& head = tokens[0];
    if (head == "rm" || head == "echo" || head == "mkdir" ||
        head == "touch" || head == "true" || head == ":") {
      return true;  // harmless shell commands
    }
    const Tool tool = classify_tool(head);
    if (tool == Tool::Unknown) {
      result_.diags.error(DiagCategory::MakefileSyntax,
                          "/bin/sh: 1: " + head + ": not found",
                          "Makefile");
      return false;
    }
    DiagBag inv_diags;
    const Invocation inv = parse_invocation(tokens, "build", inv_diags);
    append(inv_diags);
    if (inv_diags.has_errors()) return false;
    if (inv.inputs.empty()) {
      result_.diags.error(DiagCategory::InvalidCompilerFlag,
                          inv.tool_name + ": no input files", "build");
      return false;
    }
    result_.caps = union_caps(result_.caps, inv.caps);

    // Compile the source inputs; gather objects for .o inputs. Each TU
    // travels with its content key (0 = unkeyed) for the link cache.
    std::vector<Object> tus;
    bool compile_failed = false;
    for (const auto& input : inv.inputs) {
      const std::string ext = vfs::extension(input);
      if (ext == ".o" || ext == ".a") {
        const auto hit = objects_.find(input);
        if (hit == objects_.end()) {
          result_.diags.error(DiagCategory::LinkError,
                              inv.tool_name + ": error: " + input +
                                  ": No such file or directory",
                              "build");
          compile_failed = true;
          continue;
        }
        for (const auto& obj : hit->second) tus.push_back(obj);
        continue;
      }
      if (!repo_.exists(input)) {
        result_.diags.error(DiagCategory::MissingHeader,
                            inv.tool_name + ": error: " + input +
                                ": No such file or directory",
                            "build");
        compile_failed = true;
        continue;
      }
      std::shared_ptr<minic::TranslationUnit> tu;
      std::uint64_t obj_key = 0;
      if (tu_cache_ != nullptr) {
        std::uint64_t tu_key = 0;
        tu = tu_cache_->compile(repo_, input, inv.caps, inv.defines,
                                tool_key(inv.tool), &tu_key, &obj_key);
        tu_keys_.push_back(tu_key);
      } else {
        tu = execsim::compile_tu(repo_, input, inv.caps, inv.defines);
      }
      if (tu->diags.has_errors()) compile_failed = true;
      append(tu->diags);
      tus.push_back({std::move(tu), obj_key});
    }
    if (compile_failed) return false;

    if (inv.compile_only) {
      std::string out = inv.output;
      if (out.empty()) {
        // Default object name: basename with .o
        const std::string base = vfs::basename(inv.inputs[0]);
        const auto dot = base.rfind('.');
        out = (dot == std::string::npos ? base : base.substr(0, dot)) + ".o";
      }
      objects_[out] = std::move(tus);
      return true;
    }

    // Link step: validate libraries, then link.
    for (const auto& lib : inv.link_libs) {
      if (!known_system_lib(lib)) {
        result_.diags.error(DiagCategory::LinkError,
                            "/usr/bin/ld: cannot find -l" + lib, "build");
        return false;
      }
    }
    std::vector<std::shared_ptr<minic::TranslationUnit>> link_inputs;
    std::vector<std::uint64_t> link_keys;
    link_inputs.reserve(tus.size());
    link_keys.reserve(tus.size());
    bool keyed = link_cache_ != nullptr && !tus.empty();
    for (auto& obj : tus) {
      if (obj.key == 0) keyed = false;
      link_keys.push_back(obj.key);
      link_inputs.push_back(std::move(obj.tu));
    }
    std::uint64_t link_key = 0;
    execsim::Executable exe;
    bool linked_warm = false;
    if (keyed) {
      link_key = LinkCache::link_key(link_keys, result_.caps);
      if (auto cached =
              link_cache_->lookup(link_key, link_inputs, result_.caps)) {
        exe = std::move(*cached);
        linked_warm = true;
      }
    }
    if (!linked_warm) {
      exe = execsim::link_tus(std::move(link_inputs), result_.caps);
    }
    // TU diagnostics were already appended above; keep only new link ones.
    DiagBag link_only;
    for (const auto& d : exe.diags.all()) {
      if (d.category == DiagCategory::LinkError) link_only.add(d);
    }
    append(link_only);
    if (link_only.has_errors()) return false;
    if (keyed && !linked_warm) link_cache_->record(link_key, exe);
    result_.exe = std::move(exe);
    return true;
  }

 private:
  /// A compiled TU plus its content key (0 when compiled without the TU
  /// cache) — what a .o name resolves to at link time.
  struct Object {
    std::shared_ptr<minic::TranslationUnit> tu;
    std::uint64_t key = 0;
  };

  void append(const DiagBag& diags) {
    for (const auto& d : diags.all()) {
      result_.diags.add(d);
      result_.log += d.render() + "\n";
    }
  }

  const vfs::Repo& repo_;
  BuildResult& result_;
  TuCompileCache* tu_cache_;
  LinkCache* link_cache_;
  std::vector<std::uint64_t> tu_keys_;
  std::map<std::string, std::vector<Object>> objects_;
};

void build_with_make(const vfs::Repo& repo, const std::string& target,
                     BuildResult& result, TuCompileCache* tu_cache,
                     LinkCache* link_cache,
                     std::vector<std::uint64_t>& tu_keys) {
  result.build_system = "make";
  DiagBag parse_diags;
  const auto mk = parse_makefile(repo.at("Makefile"), "Makefile",
                                 parse_diags);
  for (const auto& d : parse_diags.all()) {
    result.diags.add(d);
    result.log += d.render() + "\n";
  }
  if (!mk) return;

  DiagBag plan_diags;
  const auto plan =
      plan_make(*mk, target, repo.paths(), "Makefile", plan_diags);
  for (const auto& d : plan_diags.all()) {
    result.diags.add(d);
    result.log += d.render() + "\n";
  }
  if (plan_diags.has_errors()) return;
  if (plan.empty()) {
    result.diags.error(DiagCategory::MissingBuildTarget,
                       "make: Nothing to be done (no recipe lines)",
                       "Makefile");
    result.log += "make: Nothing to be done\n";
    return;
  }

  CommandRunner runner(repo, result, tu_cache, link_cache);
  for (const auto& cmd : plan) {
    if (!runner.run(cmd.line)) break;
  }
  tu_keys = runner.take_tu_keys();
}

void build_with_cmake(const vfs::Repo& repo, BuildResult& result,
                      TuCompileCache* tu_cache, LinkCache* link_cache,
                      std::vector<std::uint64_t>& tu_keys) {
  result.build_system = "cmake";
  result.log += "-- Configuring project\n";
  DiagBag cfg_diags;
  const auto proj =
      configure_cmake(repo.at("CMakeLists.txt"), "CMakeLists.txt", cfg_diags);
  for (const auto& d : cfg_diags.all()) {
    result.diags.add(d);
    result.log += d.render() + "\n";
  }
  if (!proj) {
    result.log += "-- Configuring incomplete, errors occurred!\n";
    return;
  }
  result.log += "-- Configuring done\n-- Generating done\n";

  CommandRunner runner(repo, result, tu_cache, link_cache);
  bool stopped = false;
  for (const auto& target : proj->targets) {
    DiagBag gen_diags;
    const auto cmds = generate_commands(*proj, target, gen_diags);
    for (const auto& d : gen_diags.all()) {
      result.diags.add(d);
      result.log += d.render() + "\n";
    }
    if (gen_diags.has_errors()) break;
    for (const auto& cmd : cmds) {
      if (!runner.run(cmd)) {
        stopped = true;
        break;
      }
    }
    if (stopped) break;
  }
  tu_keys = runner.take_tu_keys();
}

}  // namespace

std::optional<minic::DiagCategory> BuildResult::sole_error_category() const {
  std::optional<minic::DiagCategory> category;
  for (const auto& d : diags.all()) {
    if (d.severity != minic::Severity::Error) continue;
    if (!category.has_value()) {
      category = d.category;
    } else if (*category != d.category) {
      return std::nullopt;  // mixed: more than one failure class
    }
  }
  return category;
}

BuildResult build_repo(const vfs::Repo& repo, const std::string& make_target,
                       TuCompileCache* tu_cache, LinkCache* link_cache) {
  BuildResult result;
  std::uint64_t plan_key = 0;
  if (tu_cache != nullptr) {
    // A persisted failed plan reconstructs the whole BuildResult (failed
    // builds carry no executable) — the entire build is skipped.
    plan_key = build_plan_key(repo, make_target);
    if (tu_cache->lookup_failed_plan(plan_key, &result)) return result;
  }
  std::vector<std::uint64_t> tu_keys;
  if (repo.exists("CMakeLists.txt")) {
    build_with_cmake(repo, result, tu_cache, link_cache, tu_keys);
  } else if (repo.exists("Makefile")) {
    build_with_make(repo, make_target, result, tu_cache, link_cache, tu_keys);
  } else {
    result.diags.error(DiagCategory::MissingBuildTarget,
                       "no Makefile or CMakeLists.txt found in repository",
                       "");
    result.log += "error: no build system found\n";
    if (tu_cache != nullptr) {
      tu_cache->record_plan(plan_key, result, {});
    }
    return result;
  }
  result.ok = !result.diags.has_errors() && result.exe.has_value() &&
              result.exe->ok();
  if (result.ok) {
    result.log += "build succeeded\n";
  }
  if (tu_cache != nullptr) {
    tu_cache->record_plan(plan_key, result, std::move(tu_keys));
  }
  return result;
}

}  // namespace pareval::buildsim
