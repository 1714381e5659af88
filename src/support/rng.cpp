#include "support/rng.hpp"

#include <atomic>
#include <string>

namespace pareval::support {

std::size_t Rng::weighted_index(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return weights.size();
  double r = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;  // numeric slop lands on the last bucket
}

namespace {
std::atomic<std::uint64_t> g_hashed_bytes{0};
}  // namespace

std::uint64_t hashed_bytes() noexcept { return g_hashed_bytes.load(); }

std::uint64_t stable_hash(std::span<const char> bytes) noexcept {
  g_hashed_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t stable_hash(const std::string& s) noexcept {
  return stable_hash(std::span<const char>(s.data(), s.size()));
}

}  // namespace pareval::support
