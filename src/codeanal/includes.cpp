#include "codeanal/includes.hpp"

#include <algorithm>
#include <set>

#include "codeanal/analysis.hpp"

namespace pareval::codeanal {

namespace {

bool is_source_path(const std::string& path) {
  const std::string ext = vfs::extension(path);
  return ext == ".c" || ext == ".cpp" || ext == ".cu" || ext == ".h" ||
         ext == ".hpp" || ext == ".cuh";
}

}  // namespace

const std::vector<IncludeRef>& scan_includes(std::string_view source) {
  return analyse(source).includes;
}

IncludeGraph build_include_graph(const vfs::Repo& repo) {
  IncludeGraph g;
  repo.for_each_file([&](const std::string& path, const std::string& content) {
    if (!is_source_path(path)) return;
    g.edges[path];  // ensure the node exists
    for (const IncludeRef& inc : scan_includes(content)) {
      if (inc.angled) {
        g.system_includes[path].push_back(inc.target);
        continue;
      }
      // Quoted include: resolve relative to the including file first,
      // then relative to the repo root (matching our simulated compilers).
      std::string resolved;
      const std::string sibling = vfs::join_path(vfs::dirname(path), inc.target);
      if (repo.exists(sibling)) {
        resolved = sibling;
      } else {
        const std::string rooted = vfs::normalize_path(inc.target);
        if (repo.exists(rooted)) resolved = rooted;
      }
      if (resolved.empty()) {
        g.unresolved[path].push_back(inc.target);
      } else {
        g.edges[path].push_back(resolved);
      }
    }
  });
  return g;
}

std::vector<std::string> translation_order(const vfs::Repo& repo) {
  const IncludeGraph g = build_include_graph(repo);

  // Kahn's algorithm over source files; dependencies (included files) first.
  std::map<std::string, int> pending;  // file -> #unprocessed dependencies
  for (const auto& [file, deps] : g.edges) {
    pending[file] = static_cast<int>(deps.size());
  }
  std::map<std::string, std::vector<std::string>> dependents;
  for (const auto& [file, deps] : g.edges) {
    for (const auto& d : deps) dependents[d].push_back(file);
  }

  std::vector<std::string> order;
  std::set<std::string> ready;
  for (const auto& [file, n] : pending) {
    if (n == 0) ready.insert(file);
  }
  while (!ready.empty()) {
    const std::string file = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(file);
    for (const auto& dep : dependents[file]) {
      if (--pending[dep] == 0) ready.insert(dep);
    }
  }
  // Cycle remnants (shouldn't happen): append deterministically.
  for (const auto& [file, n] : pending) {
    if (n > 0) order.push_back(file);
  }
  // Non-source files (build system, docs) last.
  for (const auto& path : repo.paths()) {
    if (!is_source_path(path)) order.push_back(path);
  }
  return order;
}

}  // namespace pareval::codeanal
