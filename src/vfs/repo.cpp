#include "vfs/repo.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pareval::vfs {

namespace {

std::atomic<std::uint64_t> g_blob_bytes{0};

/// normalize_path(path) == path: every component is non-empty and is
/// neither "." nor "..".
bool is_normal(std::string_view path) {
  for (std::size_t start = 0, end = 0; end < path.size(); start = end + 1) {
    end = std::min(path.find('/', start), path.size());
    const std::string_view part = path.substr(start, end - start);
    if (part.empty() || part == "." || part == "..") return false;
  }
  return !path.empty();
}

/// Look `path` up, building its normal form only when it is not normal.
template <class Files>
auto find_normal(Files& files, std::string_view path) {
  return is_normal(path) ? files.find(path)
                         : files.find(normalize_path(path));
}

}  // namespace

std::uint64_t blob_bytes() { return g_blob_bytes.load(); }

std::string normalize_path(std::string_view path) {
  if (is_normal(path)) return std::string(path);
  std::vector<std::string> out;
  for (const auto& part : support::split(path, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      if (out.empty()) {
        throw std::invalid_argument("path escapes repository root: " +
                                    std::string(path));
      }
      out.pop_back();
    } else {
      out.push_back(part);
    }
  }
  return support::join(out, "/");
}

std::string dirname(std::string_view path) {
  const auto pos = path.rfind('/');
  return pos == std::string_view::npos ? std::string()
                                       : std::string(path.substr(0, pos));
}

std::string basename(std::string_view path) {
  const auto pos = path.rfind('/');
  return std::string(pos == std::string_view::npos ? path
                                                   : path.substr(pos + 1));
}

std::string extension(std::string_view path) {
  const std::string base = basename(path);
  const auto pos = base.rfind('.');
  if (pos == std::string::npos || pos == 0) return "";
  return base.substr(pos);
}

std::string join_path(std::string_view a, std::string_view b) {
  if (a.empty()) return normalize_path(b);
  return normalize_path(std::string(a) + "/" + std::string(b));
}

Repo::Repo(std::vector<File> files) {
  for (auto& f : files) write(f.path, std::move(f.content));
}

void Repo::write(std::string_view path, std::string content) {
  auto it = find_normal(files_, path);
  if (it == files_.end()) it = files_.try_emplace(normalize_path(path)).first;
  g_blob_bytes.fetch_add(content.size(), std::memory_order_relaxed);
  // Braced initializers run in order: the hash is taken before the move.
  it->second = std::make_shared<const Blob>(
      Blob{support::stable_hash(content), std::move(content)});
}

void Repo::merge(const Repo& other) {
  for (const auto& [path, blob] : other.files_) files_[path] = blob;
}

bool Repo::remove(std::string_view path) {
  const auto it = find_normal(files_, path);
  if (it == files_.end()) return false;
  files_.erase(it);
  return true;
}

bool Repo::exists(std::string_view path) const {
  return find_normal(files_, path) != files_.end();
}

std::optional<std::string> Repo::read(std::string_view path) const {
  const auto it = find_normal(files_, path);
  if (it == files_.end()) return std::nullopt;
  return it->second->content;
}

const Repo::Blob& Repo::blob(std::string_view path) const {
  const auto it = find_normal(files_, path);
  if (it == files_.end()) {
    throw std::out_of_range("no such file in repo: " + std::string(path));
  }
  return *it->second;
}

const std::string& Repo::at(std::string_view path) const {
  return blob(path).content;
}

std::uint64_t Repo::content_hash(std::string_view path) const {
  return blob(path).hash;
}

std::vector<std::string> Repo::paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [p, _] : files_) out.push_back(p);
  return out;
}

std::vector<File> Repo::files() const {
  std::vector<File> out;
  out.reserve(files_.size());
  for (const auto& [p, b] : files_) out.push_back({p, b->content});
  return out;
}

bool Repo::operator==(const Repo& other) const {
  return std::equal(files_.begin(), files_.end(), other.files_.begin(),
                    other.files_.end(), [](const auto& a, const auto& b) {
                      return a.first == b.first && *a.second == *b.second;
                    });
}

namespace {

// A lightweight directory tree assembled from the sorted path list.
struct TreeNode {
  std::map<std::string, TreeNode> dirs;
  std::set<std::string> files;
};

void render_node(const TreeNode& node, const std::string& indent,
                 std::string& out) {
  // Files first, then subdirectories, matching the paper's sample tree
  // (Makefile and README.md before src/).
  std::size_t remaining = node.files.size() + node.dirs.size();
  for (const auto& f : node.files) {
    --remaining;
    out += indent + (remaining == 0 ? "+-- " : "|-- ") + f + "\n";
  }
  for (const auto& [name, child] : node.dirs) {
    --remaining;
    out += indent + (remaining == 0 ? "+-- " : "|-- ") + name + "/\n";
    render_node(child, indent + (remaining == 0 ? "    " : "|   "), out);
  }
}

}  // namespace

std::string Repo::render_tree() const {
  TreeNode root;
  for (const auto& [path, _] : files_) {
    TreeNode* cur = &root;
    const auto parts = support::split(path, '/');
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
      cur = &cur->dirs[parts[i]];
    }
    cur->files.insert(parts.back());
  }
  std::string out;
  render_node(root, "", out);
  return out;
}

}  // namespace pareval::vfs
