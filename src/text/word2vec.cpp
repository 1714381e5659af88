#include "text/word2vec.hpp"

#include <cmath>

#include "support/rng.hpp"

namespace pareval::text {

namespace {

double sigmoid(double x) {
  if (x > 8) return 1.0;
  if (x < -8) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

}  // namespace

void Word2Vec::train(const std::vector<std::vector<std::string>>& docs,
                     const Word2VecConfig& config) {
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
  support::Rng rng(config.seed);
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

  // One SGD loop over raw rows: the centre word's input row, each sampled
  // target's output row and the gradient buffer never alias, which lets
  // the compiler keep them in registers. The operation order, std::exp in
  // sigmoid and the next_below draws must stay as they are: classification
  // labels depend on these embeddings bit for bit.
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

std::vector<double> Word2Vec::embed_word(const std::string& word) const {
  std::vector<double> out(static_cast<std::size_t>(config_.dim), 0.0);
  const auto it = vocab_.find(word);
  if (it == vocab_.end()) return out;
  const std::size_t base =
      static_cast<std::size_t>(it->second) * config_.dim;
  for (int k = 0; k < config_.dim; ++k) out[k] = in_[base + k];
  return out;
}

std::vector<double> Word2Vec::embed_document(
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
