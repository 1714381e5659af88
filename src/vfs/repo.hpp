#pragma once
// In-memory source repositories. Every benchmark application, every
// translation output, and every build is expressed as a `Repo`: an ordered
// map from repository-relative path to an immutable, shared file blob that
// carries its content hash. Nothing in the evaluation pipeline touches the
// real filesystem.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pareval::vfs {

/// One file inside a virtual repository.
struct File {
  std::string path;     ///< repo-relative, '/'-separated, normalised
  std::string content;  ///< full text
};

/// Normalise a repo-relative path: collapse "./", resolve "a/../", drop
/// leading "/". Throws std::invalid_argument if the path escapes the root.
std::string normalize_path(std::string_view path);

/// Directory part of a path ("src/a.cpp" -> "src", "a.cpp" -> "").
std::string dirname(std::string_view path);
/// Final component ("src/a.cpp" -> "a.cpp").
std::string basename(std::string_view path);
/// Extension including the dot ("a.cpp" -> ".cpp", "Makefile" -> "").
std::string extension(std::string_view path);
/// Join two path fragments and normalise.
std::string join_path(std::string_view a, std::string_view b);

/// Content bytes of every file blob created so far in this process.
std::uint64_t blob_bytes();

/// An in-memory repository of text files. Each file is a shared immutable
/// blob hashed once when written, so copying a Repo copies no content.
class Repo {
 public:
  Repo() = default;
  explicit Repo(std::vector<File> files);

  /// Insert or overwrite.
  void write(std::string_view path, std::string content);
  /// Remove a file; returns false if absent.
  bool remove(std::string_view path);
  bool exists(std::string_view path) const;
  /// nullopt when the file is absent.
  std::optional<std::string> read(std::string_view path) const;
  /// Throws std::out_of_range when absent.
  const std::string& at(std::string_view path) const;
  /// support::stable_hash of the file's content, computed when it was
  /// written. Throws std::out_of_range when absent.
  std::uint64_t content_hash(std::string_view path) const;
  /// Insert or overwrite every file of `other`, sharing its blobs.
  void merge(const Repo& other);

  std::size_t file_count() const { return files_.size(); }
  bool empty() const { return files_.empty(); }

  /// Paths in lexicographic order.
  std::vector<std::string> paths() const;
  /// Files in lexicographic path order.
  std::vector<File> files() const;

  /// Visit (path, content) in lexicographic path order without copying —
  /// the hot-path alternative to files() for hashing and scanning.
  template <class Fn>
  void for_each_file(Fn&& fn) const {
    for (const auto& [path, blob] : files_) fn(path, blob->content);
  }

  /// Render the "|--"/"+--" file tree used in translation prompts
  /// (Listing 1 of the paper).
  std::string render_tree() const;

  /// Content-based: same paths with the same bytes, however stored.
  bool operator==(const Repo& other) const;

 private:
  struct Blob {
    std::uint64_t hash;  // first, so == rejects on it before the bytes
    std::string content;
    bool operator==(const Blob&) const = default;
  };
  const Blob& blob(std::string_view path) const;

  std::map<std::string, std::shared_ptr<const Blob>, std::less<>> files_;
};

}  // namespace pareval::vfs
