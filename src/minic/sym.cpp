#include "minic/sym.hpp"

#include <functional>
#include <iterator>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

namespace pareval::minic {

namespace {

// Indexed by the reserved enum in sym.hpp.
constexpr std::string_view kReservedNames[] = {
    "",  // kNoSym: never looked up
    "threadIdx",
    "blockIdx",
    "blockDim",
    "gridDim",
    "cudaMemcpyHostToHost",
    "cudaMemcpyHostToDevice",
    "cudaMemcpyDeviceToHost",
    "cudaMemcpyDeviceToDevice",
    "cudaSuccess",
    "RAND_MAX",
    "INT_MAX",
    "DBL_MAX",
    "FLT_MAX",
    "M_PI",
    "stderr",
    "stdout",
    "EXIT_SUCCESS",
    "EXIT_FAILURE",
    "NULL",
};
static_assert(std::size(kReservedNames) == kNumReservedSyms);

struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct Interner {
  std::shared_mutex mu;
  std::unordered_map<std::string, Sym, NameHash, std::equal_to<>> ids;

  Interner() {
    for (Sym s = kNoSym + 1; s < kNumReservedSyms; ++s) {
      ids.emplace(kReservedNames[s], s);
    }
  }
};

Interner& interner() {
  static Interner instance;
  return instance;
}

}  // namespace

Sym intern(std::string_view name) {
  Interner& in = interner();
  {
    std::shared_lock lock(in.mu);
    const auto it = in.ids.find(name);
    if (it != in.ids.end()) return it->second;
  }
  std::unique_lock lock(in.mu);
  // kNoSym is not in the map, so the next id is its size plus one.
  const Sym next = static_cast<Sym>(in.ids.size() + 1);
  return in.ids.try_emplace(std::string(name), next).first->second;
}

std::size_t interned_symbols() {
  Interner& in = interner();
  std::shared_lock lock(in.mu);
  return in.ids.size();
}

}  // namespace pareval::minic
