#include "text/word2vec.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "support/rng.hpp"

namespace pareval::text {

namespace {

std::atomic<std::uint64_t> g_pairs{0};
std::atomic<std::uint64_t> g_sequential_pairs{0};

double sigmoid(double x) {
  if (x > 8) return 1.0;
  if (x < -8) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

// One target's dot product with the centre row, summed in index order.
double dot(const double* __restrict word, const double* __restrict row,
           std::size_t d) {
  double sum = 0.0;
  for (std::size_t k = 0; k < d; ++k) sum += word[k] * row[k];
  return sum;
}

// One target's SGD step: accumulate its gradient for the centre row, then
// move the target row.
void update(double* __restrict grad, double* __restrict row,
            const double* __restrict word, double g, std::size_t d) {
  for (std::size_t k = 0; k < d; ++k) {
    grad[k] += g * row[k];
    row[k] -= g * word[k];
  }
}

}  // namespace

std::uint64_t word2vec_pairs() { return g_pairs.load(); }
std::uint64_t word2vec_sequential_pairs() {
  return g_sequential_pairs.load();
}

void Word2Vec::train(const std::vector<std::vector<std::string>>& docs,
                     const Word2VecConfig& config) {
  config_ = config;
  vocab_.clear();
  in_.clear();
  out_.clear();
  unigram_.clear();
  if (config.dim < 1 || config.window < 0 || config.negatives < 0 ||
      config.epochs < 0) {
    return;  // an empty, untrained model
  }

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
  support::Rng rng(config.seed);
  in_.assign(v * d, 0.0);
  out_.assign(v * d, 0.0);
  for (auto& x : in_) x = (rng.next_double() - 0.5) / config.dim;

  // Unigram^(3/4) table for negative sampling.
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

  // Skip-gram SGD. Classification labels depend on these embeddings bit
  // for bit, so the RNG stream, std::exp in sigmoid and the operation
  // order inside every dot product and update are fixed.
  // - Negative draws never depend on the weights, so each document's are
  //   drawn up front in the order its pairs consume them; the 64-bit
  //   modulo stays out of the float loop.
  // - The centre row only changes after a pair's last target, so when the
  //   targets are distinct every dot product reads what it would read one
  //   target at a time: the pair computes all dots, then all sigmoids
  //   (nothing vector-shaped lives across the libm call), then applies the
  //   updates in target order.
  // - A pair whose targets repeat must see the first update before the
  //   second dot product, so it runs one target at a time.
  const std::size_t window = static_cast<std::size_t>(config.window);
  const std::size_t negatives = static_cast<std::size_t>(config.negatives);
  std::vector<int> draws;
  std::vector<std::size_t> targets(negatives + 1);
  std::vector<double> gs(negatives + 1);  // dots, then step sizes
  std::vector<double> grad_buf(d);
  double* const __restrict grad = grad_buf.data();
  double* const in = in_.data();
  double* const out = out_.data();
  std::uint64_t pairs = 0;
  std::uint64_t sequential = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const double lr = config.lr * (1.0 - static_cast<double>(epoch) /
                                             config.epochs) + 1e-4;
    for (const auto& ids : indexed) {
      const std::size_t last = ids.size() - 1;
      std::size_t doc_pairs = 0;
      for (std::size_t center = 0; center <= last; ++center) {
        doc_pairs += std::min(last, center + window) -
                     (center >= window ? center - window : 0);
      }
      draws.resize(doc_pairs * negatives);
      for (int& t : draws) t = unigram_[rng.next_below(unigram_.size())];
      const int* draw = draws.data();
      pairs += doc_pairs;

      for (std::size_t center = 0; center <= last; ++center) {
        const std::size_t lo = center >= window ? center - window : 0;
        const std::size_t hi = std::min(last, center + window);
        double* const __restrict word =
            in + static_cast<std::size_t>(ids[center]) * d;
        for (std::size_t ctx = lo; ctx <= hi; ++ctx) {
          if (ctx == center) continue;
          // Targets: the positive, then every draw that is not it.
          const std::size_t positive = static_cast<std::size_t>(ids[ctx]);
          targets[0] = positive;
          std::size_t m = 1;
          bool distinct = true;
          for (std::size_t n = 0; n < negatives; ++n) {
            const std::size_t t = static_cast<std::size_t>(draw[n]);
            if (t == positive) continue;
            for (std::size_t j = 1; j < m; ++j) distinct &= targets[j] != t;
            targets[m++] = t;
          }
          draw += negatives;
          std::fill(grad, grad + d, 0.0);
          if (distinct) {
            for (std::size_t j = 0; j < m; ++j) {
              gs[j] = dot(word, out + targets[j] * d, d);
            }
            for (std::size_t j = 0; j < m; ++j) {
              gs[j] = (sigmoid(gs[j]) - (j == 0 ? 1.0 : 0.0)) * lr;
            }
            for (std::size_t j = 0; j < m; ++j) {
              update(grad, out + targets[j] * d, word, gs[j], d);
            }
          } else {
            ++sequential;
            for (std::size_t j = 0; j < m; ++j) {
              double* const row = out + targets[j] * d;
              const double g =
                  (sigmoid(dot(word, row, d)) - (j == 0 ? 1.0 : 0.0)) * lr;
              update(grad, row, word, g, d);
            }
          }
          for (std::size_t k = 0; k < d; ++k) word[k] -= grad[k];
        }
      }
    }
  }
  g_pairs += pairs;
  g_sequential_pairs += sequential;
}

std::vector<double> Word2Vec::embed_word(const std::string& word) const {
  std::vector<double> out(static_cast<std::size_t>(std::max(config_.dim, 0)),
                          0.0);
  const auto it = vocab_.find(word);
  if (it == vocab_.end()) return out;
  const std::size_t base =
      static_cast<std::size_t>(it->second) * config_.dim;
  for (int k = 0; k < config_.dim; ++k) out[k] = in_[base + k];
  return out;
}

std::vector<double> Word2Vec::embed_document(
    const std::vector<std::string>& words) const {
  std::vector<double> out(static_cast<std::size_t>(std::max(config_.dim, 0)),
                          0.0);
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

double Word2Vec::cosine(const std::string& a, const std::string& b) const {
  const auto va = embed_word(a);
  const auto vb = embed_word(b);
  double dot = 0, na = 0, nb = 0;
  for (int k = 0; k < config_.dim; ++k) {
    dot += va[k] * vb[k];
    na += va[k] * va[k];
    nb += vb[k] * vb[k];
  }
  if (na == 0 || nb == 0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace pareval::text
