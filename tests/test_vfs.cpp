#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/app.hpp"
#include "buildsim/tucache.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "translate/mutate.hpp"
#include "vfs/repo.hpp"

namespace pv = pareval::vfs;
namespace ps = pareval::support;

namespace {

// normalize_path as a plain split/join: the reference its fast path for
// already-normal paths must agree with, results and throws alike.
std::string split_join_normalize(std::string_view path) {
  std::vector<std::string> out;
  for (const auto& part : ps::split(path, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      if (out.empty()) throw std::invalid_argument("escapes");
      out.pop_back();
    } else {
      out.push_back(part);
    }
  }
  return ps::join(out, "/");
}

// repo_content_hash hashing every byte of every file: the reference the
// blob-carried content hashes must reproduce bit for bit.
std::uint64_t per_byte_repo_hash(const pv::Repo& repo) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto fold = [&h](std::uint64_t v) { h = ps::SplitMix64(h ^ v).next(); };
  for (const pv::File& f : repo.files()) {
    fold(ps::stable_hash(f.path));
    fold(ps::stable_hash(f.content));
  }
  return h;
}

}  // namespace

TEST(Paths, Normalize) {
  EXPECT_EQ(pv::normalize_path("./src/../src/main.cpp"), "src/main.cpp");
  EXPECT_EQ(pv::normalize_path("/a/b"), "a/b");
  EXPECT_EQ(pv::normalize_path("a//b"), "a/b");
  EXPECT_THROW(pv::normalize_path("../x"), std::invalid_argument);
}

TEST(Paths, NormalizeMatchesSplitJoinOracle) {
  const std::vector<std::string> cases = {
      "",      ".",     "a/",        "//a",    "a/./b",   "a/..",
      "../x",  "a/../../b", "a",     "a/b/c",  "/",       "./",
      "a//",   "..",    "a/b/..",    "...",    ".a/b.",   "a/.../b"};
  for (const std::string& path : cases) {
    std::string want;
    bool want_throw = false;
    try {
      want = split_join_normalize(path);
    } catch (const std::invalid_argument&) {
      want_throw = true;
    }
    if (want_throw) {
      EXPECT_THROW(pv::normalize_path(path), std::invalid_argument) << path;
      pv::Repo r;
      EXPECT_THROW(r.exists(path), std::invalid_argument) << path;
      EXPECT_THROW(r.write(path, "x"), std::invalid_argument) << path;
      continue;
    }
    EXPECT_EQ(pv::normalize_path(path), want) << "'" << path << "'";
    pv::Repo r;
    r.write(want, "content");
    EXPECT_TRUE(r.exists(path)) << path;
    EXPECT_EQ(r.at(path), "content") << path;
    EXPECT_EQ(*r.read(path), "content") << path;
    EXPECT_TRUE(r.remove(path)) << path;
    EXPECT_FALSE(r.exists(want)) << path;
  }
}

TEST(Paths, Components) {
  EXPECT_EQ(pv::dirname("src/a.cpp"), "src");
  EXPECT_EQ(pv::dirname("a.cpp"), "");
  EXPECT_EQ(pv::basename("src/a.cpp"), "a.cpp");
  EXPECT_EQ(pv::extension("src/a.cpp"), ".cpp");
  EXPECT_EQ(pv::extension("Makefile"), "");
  EXPECT_EQ(pv::extension(".gitignore"), "");
}

TEST(Paths, Join) {
  EXPECT_EQ(pv::join_path("src", "main.cpp"), "src/main.cpp");
  EXPECT_EQ(pv::join_path("", "main.cpp"), "main.cpp");
  EXPECT_EQ(pv::join_path("src/sub", "../main.cpp"), "src/main.cpp");
}

TEST(Repo, WriteReadRemove) {
  pv::Repo r;
  r.write("src/main.cpp", "int main() {}");
  EXPECT_TRUE(r.exists("src/main.cpp"));
  EXPECT_TRUE(r.exists("./src/main.cpp"));
  EXPECT_EQ(*r.read("src/main.cpp"), "int main() {}");
  EXPECT_FALSE(r.read("nope").has_value());
  EXPECT_THROW(r.at("nope"), std::out_of_range);
  EXPECT_TRUE(r.remove("src/main.cpp"));
  EXPECT_FALSE(r.remove("src/main.cpp"));
}

TEST(Repo, PathsSorted) {
  pv::Repo r;
  r.write("b.cpp", "");
  r.write("a.cpp", "");
  const auto p = r.paths();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], "a.cpp");
  EXPECT_EQ(p[1], "b.cpp");
}

TEST(Repo, TreeMatchesPaperFormat) {
  // The paper's Listing 1 shows:
  //   |-- Makefile
  //   |-- README.md
  //   +-- src/
  //       +-- main.cpp
  pv::Repo r;
  r.write("Makefile", "");
  r.write("README.md", "");
  r.write("src/main.cpp", "");
  const std::string tree = r.render_tree();
  EXPECT_EQ(tree,
            "|-- Makefile\n"
            "|-- README.md\n"
            "+-- src/\n"
            "    +-- main.cpp\n");
}

TEST(Repo, EqualityIsContentBased) {
  pv::Repo a, b;
  a.write("x", "1");
  b.write("x", "1");
  EXPECT_EQ(a, b);
  b.write("x", "2");
  EXPECT_NE(a, b);
}

TEST(Repo, EqualContentWrittenSeparatelyIsEqual) {
  pv::Repo a, b;
  a.write("src/a.cpp", std::string(1000, 'x'));
  a.write("b", "2");
  b.write("b", "2");
  b.write("./src//a.cpp", std::string(1000, 'x'));
  EXPECT_EQ(a, b);  // separate blobs, same bytes
  b.write("src/a.cpp", std::string(999, 'x') + "y");
  EXPECT_NE(a, b);
  pv::Repo c = a;
  c.remove("b");
  EXPECT_NE(a, c);
  c.write("c", "2");
  EXPECT_NE(a, c);  // same contents under another path
}

TEST(Repo, CopySharesStorage) {
  pv::Repo orig;
  orig.write("src/main.cpp", "int main() {}");
  const pv::Repo copy = orig;
  EXPECT_EQ(&copy.at("src/main.cpp"), &orig.at("src/main.cpp"));
  EXPECT_EQ(copy, orig);
}

TEST(Repo, WriteToCopyLeavesOriginal) {
  pv::Repo orig;
  orig.write("a", "one");
  orig.write("b", "two");
  pv::Repo copy = orig;
  copy.write("a", "changed");
  copy.remove("b");
  EXPECT_EQ(orig.at("a"), "one");
  EXPECT_EQ(orig.at("b"), "two");
  EXPECT_EQ(orig.content_hash("a"), ps::stable_hash(std::string("one")));
  EXPECT_EQ(copy.at("a"), "changed");
  EXPECT_EQ(copy.content_hash("a"), ps::stable_hash(std::string("changed")));
  EXPECT_FALSE(copy.exists("b"));
}

TEST(Repo, MergeSharesBlobsAndOverwrites) {
  pv::Repo base, extra;
  base.write("Makefile", "old");
  base.write("main.cpp", "int main() {}");
  extra.write("Makefile", "new");
  base.merge(extra);
  EXPECT_EQ(&base.at("Makefile"), &extra.at("Makefile"));
  EXPECT_EQ(base.at("main.cpp"), "int main() {}");
  EXPECT_EQ(base.file_count(), 2u);
}

TEST(Repo, ContentHashThrowsWhenAbsent) {
  pv::Repo r;
  EXPECT_THROW(r.content_hash("nope"), std::out_of_range);
}

TEST(Repo, ContentHashMatchesPerByteOracle) {
  for (const pareval::apps::AppSpec* app : pareval::apps::all_apps()) {
    for (const auto* repos : {&app->repos, &app->ground_truth_builds}) {
      for (const auto& [model, repo] : *repos) {
        EXPECT_EQ(pareval::buildsim::repo_content_hash(repo),
                  per_byte_repo_hash(repo))
            << app->name << " " << pareval::apps::model_key(model);
      }
    }
  }
  // A defect-injected repo: the injectors rewrite files through write().
  pv::Repo repo = pareval::apps::nanoxor_app().repos.at(
      pareval::apps::Model::OmpThreads);
  const std::uint64_t before = pareval::buildsim::repo_content_hash(repo);
  ps::Rng rng(7);
  int applied = 0;
  for (const auto kind : pareval::xlate::all_defect_kinds()) {
    applied += pareval::xlate::inject_defect(repo, kind, rng).applied;
  }
  ASSERT_GT(applied, 0);
  EXPECT_NE(pareval::buildsim::repo_content_hash(repo), before);
  EXPECT_EQ(pareval::buildsim::repo_content_hash(repo),
            per_byte_repo_hash(repo));
}
