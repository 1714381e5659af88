// Tests for the text/embedding and clustering substrates (§6.3).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <map>

#include "cluster/dbscan.hpp"
#include "eval/classify.hpp"
#include "eval/harness.hpp"
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

namespace {

const char* const kLogWords[] = {
    "error",  "undeclared", "identifier", "main.cpp",  "expected",
    ";",      "makefile",   "missing",    "separator", "link",
    "undefined", "reference", "to",       "omp",       "target",
    "map",    "validation", "failed",     "output",    "mismatch",
    "line",   "3",          "17",         "42",        "warning",
    "kernel", "cuda",       "kokkos",     "parallel_for", "header"};

/// A log-like corpus: 48 documents of 4-17 words from kLogWords, every
/// third followed by a repeat of an earlier one.
std::vector<std::vector<std::string>> log_like_corpus() {
  constexpr std::size_t kWords = std::size(kLogWords);
  pareval::support::Rng rng(11);
  std::vector<std::vector<std::string>> docs;
  for (int d = 0; d < 48; ++d) {
    std::vector<std::string> doc;
    const std::size_t len = 4 + rng.next_below(14);
    for (std::size_t i = 0; i < len; ++i) {
      doc.push_back(kLogWords[rng.next_below(kWords)]);
    }
    docs.push_back(std::move(doc));
    if (d % 3 == 0) {
      std::vector<std::string> repeat = docs[docs.size() / 2];
      docs.push_back(std::move(repeat));
    }
  }
  return docs;
}

pt::Word2VecConfig classifier_config() {
  pt::Word2VecConfig cfg;
  cfg.dim = 12;
  cfg.epochs = 6;
  return cfg;
}

}  // namespace

TEST(Word2Vec, EmbeddingsPinnedAtClassifierConfig) {
  // classify_failures' configuration on a log-like corpus with repeated
  // documents. Any reordering of the SGD arithmetic or of the RNG draws
  // moves this hash.
  const auto docs = log_like_corpus();
  pt::Word2Vec w2v;
  w2v.train(docs, classifier_config());
  std::vector<double> bits;
  for (const char* w : kLogWords) {
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

// The one-target-at-a-time skip-gram SGD loop Word2Vec::train ran before
// its batched kernel, kept verbatim as the oracle: train() must reproduce
// its embeddings bit for bit.
struct OracleWord2Vec {
  pt::Word2VecConfig config_;
  std::map<std::string, int> vocab_;
  std::vector<double> in_;
  std::vector<double> out_;
  std::vector<int> unigram_;

  static double sigmoid(double x) {
    if (x > 8) return 1.0;
    if (x < -8) return 0.0;
    return 1.0 / (1.0 + std::exp(-x));
  }

  void train(const std::vector<std::vector<std::string>>& docs,
             const pt::Word2VecConfig& config) {
    config_ = config;
    vocab_.clear();

    // Vocabulary with counts.
    std::map<std::string, int> counts;
    for (const auto& doc : docs) {
      for (const auto& w : doc) counts[w]++;
    }
    for (const auto& [w, n] : counts) {
      if (n >= config.min_count) {
        vocab_.emplace(w, static_cast<int>(vocab_.size()));
      }
    }
    const std::size_t v = vocab_.size();
    const std::size_t d = static_cast<std::size_t>(config.dim);
    pareval::support::Rng rng(config.seed);
    in_.assign(v * d, 0.0);
    out_.assign(v * d, 0.0);
    for (auto& x : in_) x = (rng.next_double() - 0.5) / config.dim;

    // Unigram^(3/4) table for negative sampling.
    unigram_.clear();
    for (const auto& [w, n] : counts) {
      const auto it = vocab_.find(w);
      if (it == vocab_.end()) continue;
      const int reps = std::max(1, static_cast<int>(std::pow(n, 0.75)));
      for (int r = 0; r < reps; ++r) unigram_.push_back(it->second);
    }
    if (unigram_.empty()) return;

    // Index the corpus once.
    std::vector<std::vector<int>> indexed;
    for (const auto& doc : docs) {
      std::vector<int> ids;
      for (const auto& w : doc) {
        const auto it = vocab_.find(w);
        if (it != vocab_.end()) ids.push_back(it->second);
      }
      if (ids.size() > 1) indexed.push_back(std::move(ids));
    }

    std::vector<double> grad_buf(d);
    double* const __restrict grad = grad_buf.data();
    double* const in = in_.data();
    double* const out = out_.data();
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      const double lr = config.lr * (1.0 - static_cast<double>(epoch) /
                                               config.epochs) + 1e-4;
      for (const auto& ids : indexed) {
        for (std::size_t center = 0; center < ids.size(); ++center) {
          const std::size_t lo =
              center >= static_cast<std::size_t>(config.window)
                  ? center - config.window
                  : 0;
          const std::size_t hi =
              std::min(ids.size() - 1, center + config.window);
          double* const __restrict word =
              in + static_cast<std::size_t>(ids[center]) * d;
          for (std::size_t ctx = lo; ctx <= hi; ++ctx) {
            if (ctx == center) continue;
            std::fill(grad, grad + d, 0.0);
            // Positive + negative samples.
            for (int n = 0; n <= config.negatives; ++n) {
              std::size_t target;
              double label;
              if (n == 0) {
                target = static_cast<std::size_t>(ids[ctx]);
                label = 1.0;
              } else {
                target = static_cast<std::size_t>(
                    unigram_[rng.next_below(unigram_.size())]);
                if (target == static_cast<std::size_t>(ids[ctx])) continue;
                label = 0.0;
              }
              double* const __restrict row = out + target * d;
              double dot = 0.0;
              for (std::size_t k = 0; k < d; ++k) dot += word[k] * row[k];
              const double g = (sigmoid(dot) - label) * lr;
              for (std::size_t k = 0; k < d; ++k) {
                grad[k] += g * row[k];
                row[k] -= g * word[k];
              }
            }
            for (std::size_t k = 0; k < d; ++k) word[k] -= grad[k];
          }
        }
      }
    }
  }

  std::vector<double> embed_word(const std::string& word) const {
    std::vector<double> out(static_cast<std::size_t>(config_.dim), 0.0);
    const auto it = vocab_.find(word);
    if (it == vocab_.end()) return out;
    const std::size_t base =
        static_cast<std::size_t>(it->second) * config_.dim;
    for (int k = 0; k < config_.dim; ++k) out[k] = in_[base + k];
    return out;
  }

  std::vector<double> embed_document(
      const std::vector<std::string>& words) const {
    std::vector<double> out(static_cast<std::size_t>(config_.dim), 0.0);
    int hits = 0;
    for (const auto& w : words) {
      const auto it = vocab_.find(w);
      if (it == vocab_.end()) continue;
      const std::size_t base =
          static_cast<std::size_t>(it->second) * config_.dim;
      for (int k = 0; k < config_.dim; ++k) out[k] += in_[base + k];
      ++hits;
    }
    if (hits > 0) {
      for (auto& x : out) x /= hits;
    }
    return out;
  }
};

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  if (!v.empty()) std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

/// Trains both models and compares, bit for bit, the embedding of every
/// word the oracle kept and of every document. Returns the pairs train()
/// sent down its one-target-at-a-time path.
std::uint64_t expect_matches_oracle(
    const std::vector<std::vector<std::string>>& docs,
    const pt::Word2VecConfig& config, const std::string& what) {
  OracleWord2Vec oracle;
  oracle.train(docs, config);
  pt::Word2Vec w2v;
  const std::uint64_t sequential_before = pt::word2vec_sequential_pairs();
  w2v.train(docs, config);
  const std::uint64_t sequential =
      pt::word2vec_sequential_pairs() - sequential_before;
  EXPECT_EQ(w2v.vocabulary_size(), oracle.vocab_.size()) << what;
  int mismatches = 0;
  for (const auto& [word, id] : oracle.vocab_) {
    if (bit_patterns(w2v.embed_word(word)) !=
        bit_patterns(oracle.embed_word(word))) {
      ADD_FAILURE() << what << ": embed_word(\"" << word << "\") differs";
      if (++mismatches == 3) return sequential;
    }
  }
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (bit_patterns(w2v.embed_document(docs[i])) !=
        bit_patterns(oracle.embed_document(docs[i]))) {
      ADD_FAILURE() << what << ": embed_document(docs[" << i << "]) differs";
      if (++mismatches == 3) return sequential;
    }
  }
  return sequential;
}

}  // namespace

TEST(Word2VecDifferential, ClassifierShapedCorpusMatchesOracle) {
  const auto docs = log_like_corpus();
  const std::uint64_t pairs_before = pt::word2vec_pairs();
  const std::uint64_t sequential =
      expect_matches_oracle(docs, classifier_config(), "pinned corpus");
  const std::uint64_t pairs = pt::word2vec_pairs() - pairs_before;
  // Both kernel paths run: most pairs batch, a few repeat a target.
  EXPECT_GT(sequential, 0u);
  EXPECT_LT(sequential, pairs / 2);
}

TEST(Word2VecDifferential, RepeatedTargetsMatchOracle) {
  // Three words and four negatives: nearly every pair draws some negative
  // twice, so the one-target-at-a-time path does most of the training.
  pareval::support::Rng rng(5);
  const char* const words[] = {"a", "b", "c"};
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::string> doc;
    for (std::size_t n = 3 + rng.next_below(6); n > 0; --n) {
      doc.push_back(words[rng.next_below(3)]);
    }
    docs.push_back(std::move(doc));
  }
  const std::uint64_t pairs_before = pt::word2vec_pairs();
  const std::uint64_t sequential =
      expect_matches_oracle(docs, classifier_config(), "3-word corpus");
  EXPECT_GT(sequential, (pt::word2vec_pairs() - pairs_before) / 2);
}

TEST(Word2VecDifferential, RealSweepFailureLogsMatchOracle) {
  // classify_failures' own corpus: the failure logs of the paper spec at
  // N=2, tokenised as the classifier tokenises them.
  pareval::eval::SweepSpec spec = pareval::eval::SweepSpec::paper();
  spec.samples_per_task = 2;
  pareval::eval::HarnessConfig config;
  config.use_score_cache = false;
  const auto tasks =
      pareval::eval::run_sweep(pareval::eval::Suite::paper(), spec, config);
  const auto classified = pareval::eval::classify_failures(tasks);
  ASSERT_GT(classified.logs.size(), 50u);
  std::vector<std::vector<std::string>> docs;
  for (const auto& cl : classified.logs) {
    docs.push_back(pt::word_tokens(cl.log));
  }
  expect_matches_oracle(docs, classifier_config(), "paper spec N=2");
}

TEST(Word2VecDifferential, EdgeShapesMatchOracle) {
  const auto base = log_like_corpus();
  // Documents of length 0, 1 and 2 mixed into the corpus.
  auto short_docs = base;
  short_docs.insert(short_docs.begin() + 3, std::vector<std::string>{});
  short_docs.insert(short_docs.begin() + 7,
                    std::vector<std::string>{"error"});
  short_docs.insert(short_docs.begin() + 11,
                    std::vector<std::string>{"link", "error"});
  short_docs.push_back({"kernel"});
  short_docs.push_back({});
  expect_matches_oracle(short_docs, classifier_config(), "short documents");
  expect_matches_oracle({{}, {"x"}, {"x", "y"}}, classifier_config(),
                        "only short documents");

  struct Case {
    const char* what;
    void (*tweak)(pt::Word2VecConfig&);
  };
  const Case cases[] = {
      {"window 17 (>= every document)", [](auto& c) { c.window = 17; }},
      {"window 0", [](auto& c) { c.window = 0; }},
      {"window 1", [](auto& c) { c.window = 1; }},
      {"negatives 0", [](auto& c) { c.negatives = 0; }},
      {"negatives 1", [](auto& c) { c.negatives = 1; }},
      {"negatives 9", [](auto& c) { c.negatives = 9; }},
      {"dim 1", [](auto& c) { c.dim = 1; }},
      {"dim 13", [](auto& c) { c.dim = 13; }},
      {"epochs 0", [](auto& c) { c.epochs = 0; }},
      {"epochs 1", [](auto& c) { c.epochs = 1; }},
      {"min_count 2", [](auto& c) { c.min_count = 2; }},
      {"default config", [](auto& c) { c = pt::Word2VecConfig{}; }},
  };
  for (const Case& c : cases) {
    pt::Word2VecConfig cfg = classifier_config();
    c.tweak(cfg);
    expect_matches_oracle(base, cfg, c.what);
    expect_matches_oracle(short_docs, cfg,
                          std::string(c.what) + ", short documents");
  }

  // With min_count 2 the once-seen words leave the index, so pairs form
  // over the surviving words only.
  pt::Word2VecConfig cfg = classifier_config();
  cfg.min_count = 2;
  expect_matches_oracle({{"a", "rare1", "b", "rare2", "c"},
                         {"a", "b", "rare3"},
                         {"c", "a", "b", "c"},
                         {"rare4", "a"}},
                        cfg, "min_count 2, rare words");
}

namespace {

/// A config field out of range leaves an empty, untrained model: no
/// vocabulary, all-zero embeddings of length max(dim, 0), nothing thrown.
void expect_empty_model(const pt::Word2VecConfig& cfg) {
  const std::vector<std::vector<std::string>> docs = {
      {"a", "b", "c", "a"}, {"b", "c", "d"}};
  pt::Word2Vec w2v;
  const std::uint64_t pairs_before = pt::word2vec_pairs();
  ASSERT_NO_THROW(w2v.train(docs, cfg));
  EXPECT_EQ(pt::word2vec_pairs(), pairs_before);
  EXPECT_EQ(w2v.vocabulary_size(), 0u);
  const std::vector<double> zeros(
      static_cast<std::size_t>(std::max(cfg.dim, 0)), 0.0);
  EXPECT_EQ(w2v.embed_word("a"), zeros);
  EXPECT_EQ(w2v.embed_document(docs[0]), zeros);
  EXPECT_EQ(w2v.cosine("a", "b"), 0.0);
}

}  // namespace

TEST(Word2VecInvalidConfig, DimBelowOneLeavesEmptyModel) {
  for (const int dim : {0, -1, -12}) {
    pt::Word2VecConfig cfg;
    cfg.dim = dim;
    expect_empty_model(cfg);
  }
}

TEST(Word2VecInvalidConfig, NegativeWindowLeavesEmptyModel) {
  pt::Word2VecConfig cfg;
  cfg.window = -1;
  expect_empty_model(cfg);
}

TEST(Word2VecInvalidConfig, NegativeNegativesLeavesEmptyModel) {
  pt::Word2VecConfig cfg;
  cfg.negatives = -1;
  expect_empty_model(cfg);
}

TEST(Word2VecInvalidConfig, NegativeEpochsLeavesEmptyModel) {
  pt::Word2VecConfig cfg;
  cfg.epochs = -1;
  expect_empty_model(cfg);
}

TEST(Word2VecInvalidConfig, RetrainWithInvalidConfigForgetsOldModel) {
  pt::Word2Vec w2v;
  w2v.train({{"a", "b", "c"}});
  ASSERT_EQ(w2v.vocabulary_size(), 3u);
  pt::Word2VecConfig cfg;
  cfg.window = -2;
  w2v.train({{"a", "b", "c"}}, cfg);
  EXPECT_EQ(w2v.vocabulary_size(), 0u);
  EXPECT_EQ(w2v.embed_word("a"), std::vector<double>(16, 0.0));
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
