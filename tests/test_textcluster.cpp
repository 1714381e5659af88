// Tests for the text/embedding and clustering substrates (§6.3).

#include <gtest/gtest.h>

#include <deque>

#include "cluster/dbscan.hpp"
#include "support/rng.hpp"
#include "text/tokens.hpp"
#include "text/word2vec.hpp"

namespace pt = pareval::text;
namespace pc = pareval::cluster;

TEST(Tokens, ApproxTokensScalesWithLength) {
  EXPECT_EQ(pt::approx_tokens(""), 0);
  EXPECT_EQ(pt::approx_tokens("int"), 1);
  EXPECT_EQ(pt::approx_tokens("x = y;"), 4);  // x, =, y, ;
  EXPECT_GT(pt::approx_tokens("cudaMemcpyHostToDevice"),
            pt::approx_tokens("int"));
  const std::string code = "for (int i = 0; i < n; i++) { a[i] = b[i]; }";
  EXPECT_GT(pt::approx_tokens(code), 15);
  EXPECT_LT(pt::approx_tokens(code), 40);
}

TEST(Tokens, WordTokensLowercasesAndSplits) {
  const auto words = pt::word_tokens("Error: use of UNDECLARED identifier");
  ASSERT_EQ(words.size(), 5u);
  EXPECT_EQ(words[0], "error");
  EXPECT_EQ(words[2], "of");
  EXPECT_EQ(words[3], "undeclared");
}

TEST(Word2Vec, SimilarContextsYieldSimilarVectors) {
  // "paris"/"london" share contexts; "banana" does not.
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 60; ++i) {
    docs.push_back({"the", "city", "of", i % 2 ? "paris" : "london", "is",
                    "big"});
    docs.push_back({"eat", "a", "ripe", "banana", "now"});
  }
  pt::Word2Vec w2v;
  pt::Word2VecConfig cfg;
  cfg.epochs = 20;
  w2v.train(docs, cfg);
  EXPECT_GT(w2v.cosine("paris", "london"), w2v.cosine("paris", "banana"));
}

TEST(Word2Vec, DocumentEmbeddingIsMeanOfWords) {
  std::vector<std::vector<std::string>> docs = {{"aa", "bb"}, {"bb", "cc"}};
  pt::Word2Vec w2v;
  w2v.train(docs);
  const auto va = w2v.embed_word("aa");
  const auto vb = w2v.embed_word("bb");
  const auto doc = w2v.embed_document({"aa", "bb"});
  for (std::size_t k = 0; k < doc.size(); ++k) {
    EXPECT_NEAR(doc[k], (va[k] + vb[k]) / 2.0, 1e-12);
  }
}

TEST(Word2Vec, OovIsZeroVector) {
  pt::Word2Vec w2v;
  w2v.train({{"x", "y"}});
  for (const double v : w2v.embed_word("zzz")) EXPECT_EQ(v, 0.0);
}

TEST(Word2Vec, DeterministicForFixedSeed) {
  std::vector<std::vector<std::string>> docs = {
      {"a", "b", "c"}, {"b", "c", "d"}, {"c", "d", "a"}};
  pt::Word2Vec w1, w2;
  w1.train(docs);
  w2.train(docs);
  EXPECT_EQ(w1.embed_word("a"), w2.embed_word("a"));
}

TEST(Word2Vec, EmbeddingsPinnedAtClassifierConfig) {
  // classify_failures' configuration on a log-like corpus with repeated
  // documents. Any reordering of the SGD arithmetic or of the RNG draws
  // moves this hash.
  const char* words[] = {
      "error",  "undeclared", "identifier", "main.cpp",  "expected",
      ";",      "makefile",   "missing",    "separator", "link",
      "undefined", "reference", "to",       "omp",       "target",
      "map",    "validation", "failed",     "output",    "mismatch",
      "line",   "3",          "17",         "42",        "warning",
      "kernel", "cuda",       "kokkos",     "parallel_for", "header"};
  constexpr std::size_t kWords = sizeof(words) / sizeof(words[0]);
  pareval::support::Rng rng(11);
  std::vector<std::vector<std::string>> docs;
  for (int d = 0; d < 48; ++d) {
    std::vector<std::string> doc;
    const std::size_t len = 4 + rng.next_below(14);
    for (std::size_t i = 0; i < len; ++i) {
      doc.push_back(words[rng.next_below(kWords)]);
    }
    docs.push_back(std::move(doc));
    if (d % 3 == 0) {
      std::vector<std::string> repeat = docs[docs.size() / 2];
      docs.push_back(std::move(repeat));
    }
  }
  pt::Word2Vec w2v;
  pt::Word2VecConfig cfg;
  cfg.dim = 12;
  cfg.epochs = 6;
  w2v.train(docs, cfg);
  std::vector<double> bits;
  for (const char* w : words) {
    for (const double x : w2v.embed_word(w)) bits.push_back(x);
  }
  for (const auto& doc : docs) {
    for (const double x : w2v.embed_document(doc)) bits.push_back(x);
  }
  const std::uint64_t h = pareval::support::stable_hash(std::span<const char>(
      reinterpret_cast<const char*>(bits.data()),
      bits.size() * sizeof(double)));
  EXPECT_EQ(h, 0xd5eee71b397df5bfULL);
}

namespace {

// The textbook O(n^2) DBSCAN scan: every region query compares the point
// with all n points. dbscan() must reproduce its labels exactly.
double oracle_dist2(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double s = 0;
  for (std::size_t k = 0; k < a.size() && k < b.size(); ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return s;
}

std::vector<int> oracle_neighbours(const std::vector<std::vector<double>>& pts,
                                   std::size_t i, double eps2) {
  std::vector<int> out;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (oracle_dist2(pts[i], pts[j]) <= eps2) {
      out.push_back(static_cast<int>(j));
    }
  }
  return out;
}

std::vector<int> oracle_dbscan(const std::vector<std::vector<double>>& points,
                               const pc::DbscanConfig& config) {
  const double eps2 = config.eps * config.eps;
  constexpr int kUnvisited = -2;
  std::vector<int> labels(points.size(), kUnvisited);
  int next_cluster = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (labels[i] != kUnvisited) continue;
    auto seeds = oracle_neighbours(points, i, eps2);
    if (static_cast<int>(seeds.size()) < config.min_pts) {
      labels[i] = -1;
      continue;
    }
    const int cluster = next_cluster++;
    labels[i] = cluster;
    std::deque<int> queue(seeds.begin(), seeds.end());
    while (!queue.empty()) {
      const int j = queue.front();
      queue.pop_front();
      if (labels[j] == -1) labels[j] = cluster;
      if (labels[j] != kUnvisited) continue;
      labels[j] = cluster;
      auto jn = oracle_neighbours(points, static_cast<std::size_t>(j), eps2);
      if (static_cast<int>(jn.size()) >= config.min_pts) {
        for (const int n : jn) queue.push_back(n);
      }
    }
  }
  for (auto& l : labels) {
    if (l == kUnvisited) l = -1;
  }
  return labels;
}

/// `distinct` points in a few blobs of dimension `dim`, then `n` draws from
/// them (each distinct point appears at least once when n >= distinct).
std::vector<std::vector<double>> duplicated_points(std::size_t n,
                                                   std::size_t distinct,
                                                   std::size_t dim,
                                                   std::uint64_t seed) {
  pareval::support::Rng rng(seed);
  std::vector<std::vector<double>> centres(5, std::vector<double>(dim));
  for (auto& c : centres) {
    for (double& x : c) x = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> uniq;
  for (std::size_t i = 0; i < distinct; ++i) {
    std::vector<double> p = centres[rng.next_below(centres.size())];
    for (double& x : p) x += rng.uniform(-0.12, 0.12);
    uniq.push_back(std::move(p));
  }
  std::vector<std::vector<double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(i < distinct ? uniq[i] : uniq[rng.next_below(distinct)]);
  }
  // Shuffle so duplicates are interleaved, as in a real log corpus.
  for (std::size_t i = pts.size(); i > 1; --i) {
    std::swap(pts[i - 1], pts[rng.next_below(i)]);
  }
  return pts;
}

const pc::DbscanConfig kDiffConfigs[] = {
    {0.35, 1}, {0.35, 2}, {0.35, 5}, {0.2, 2}, {0.6, 3}, {1.5, 12}};

}  // namespace

TEST(DbscanDifferential, HeavyDuplicationMatchesOracle) {
  // ~7% distinct, like the paper's failure-log corpus.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto pts = duplicated_points(600, 42, 12, seed);
    for (const auto& cfg : kDiffConfigs) {
      EXPECT_EQ(pc::dbscan(pts, cfg), oracle_dbscan(pts, cfg))
          << "seed " << seed << " eps " << cfg.eps << " min_pts "
          << cfg.min_pts;
    }
  }
}

TEST(DbscanDifferential, NoDuplicatesMatchesOracle) {
  for (std::uint64_t seed : {4u, 5u}) {
    const auto pts = duplicated_points(250, 250, 6, seed);
    for (const auto& cfg : kDiffConfigs) {
      EXPECT_EQ(pc::dbscan(pts, cfg), oracle_dbscan(pts, cfg))
          << "seed " << seed << " eps " << cfg.eps << " min_pts "
          << cfg.min_pts;
    }
  }
}

TEST(DbscanDifferential, AllPointsIdenticalMatchesOracle) {
  const std::vector<std::vector<double>> pts(40, {0.25, -1.5, 3.0});
  for (const int min_pts : {0, 1, 2, 40, 41}) {
    const pc::DbscanConfig cfg{0.35, min_pts};
    const auto labels = pc::dbscan(pts, cfg);
    EXPECT_EQ(labels, oracle_dbscan(pts, cfg)) << "min_pts " << min_pts;
    EXPECT_EQ(pc::cluster_count(labels), min_pts <= 40 ? 1 : 0);
  }
}

TEST(DbscanDifferential, BorderPointReachableFromTwoClusters) {
  // Two dense blobs whose edges are both within eps of one sparse point:
  // the cluster expanded first claims it. Permute where the border sits
  // in the input so each expansion order is exercised.
  // Each blob is a dense column plus two points on the edge facing the
  // other blob; only those edge points are within eps of the border.
  std::vector<std::vector<double>> a, b;
  for (int i = 0; i < 16; ++i) {
    const double x = i < 14 ? 0.0 : 0.1;
    a.push_back({x, 0.01 * i});
    b.push_back({1.1 - x, 0.01 * i});
  }
  const std::vector<double> border = {0.55, 0.145};
  const pc::DbscanConfig cfg{0.5, 6};
  for (int where = 0; where < 3; ++where) {
    std::vector<std::vector<double>> pts;
    if (where == 0) pts.push_back(border);
    pts.insert(pts.end(), b.begin(), b.end());
    if (where == 1) pts.push_back(border);
    pts.insert(pts.end(), a.begin(), a.end());
    if (where == 2) pts.push_back(border);
    const auto labels = pc::dbscan(pts, cfg);
    EXPECT_EQ(labels, oracle_dbscan(pts, cfg)) << "border at " << where;
    EXPECT_EQ(pc::cluster_count(labels), 2);
    const std::size_t bi = where == 0 ? 0 : where == 1 ? 16 : 32;
    EXPECT_EQ(labels[bi], 0) << "the first-expanded cluster claims it";
  }
}

TEST(Dbscan, SeparatesWellSpacedBlobs) {
  pareval::support::Rng rng(3);
  std::vector<std::vector<double>> pts;
  for (int blob = 0; blob < 3; ++blob) {
    for (int i = 0; i < 20; ++i) {
      pts.push_back({blob * 10.0 + rng.uniform(-0.2, 0.2),
                     blob * 10.0 + rng.uniform(-0.2, 0.2)});
    }
  }
  const auto labels = pc::dbscan(pts, {1.0, 3});
  EXPECT_EQ(pc::cluster_count(labels), 3);
  // All points in the same blob share a label.
  for (int blob = 0; blob < 3; ++blob) {
    for (int i = 1; i < 20; ++i) {
      EXPECT_EQ(labels[blob * 20], labels[blob * 20 + i]);
    }
  }
}

TEST(Dbscan, IsolatedPointsAreNoise) {
  std::vector<std::vector<double>> pts = {
      {0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},  // dense blob
      {50, 50},                                 // loner
  };
  const auto labels = pc::dbscan(pts, {0.5, 3});
  EXPECT_EQ(pc::cluster_count(labels), 1);
  EXPECT_EQ(labels[4], -1);
}

TEST(Dbscan, EpsControlsMerging) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({i * 1.0});
  // Chain of points 1 apart: big eps -> one cluster, tiny eps -> noise.
  EXPECT_EQ(pc::cluster_count(pc::dbscan(pts, {1.5, 3})), 1);
  EXPECT_EQ(pc::cluster_count(pc::dbscan(pts, {0.1, 3})), 0);
}

TEST(Dbscan, EmptyInput) {
  EXPECT_TRUE(pc::dbscan({}, {1.0, 3}).empty());
}
