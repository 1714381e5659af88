#include "codeanal/analysis.hpp"

#include <atomic>
#include <forward_list>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "support/strings.hpp"

namespace pareval::codeanal {

namespace {

std::atomic<std::uint64_t> g_analysis_runs{0};

std::vector<IncludeRef> include_refs(const std::vector<Token>& toks) {
  std::vector<IncludeRef> out;
  for (const Token& t : toks) {
    if (t.kind != TokKind::PpDirective) continue;
    std::string_view body = support::trim(t.text);
    if (!body.starts_with("#")) continue;
    body.remove_prefix(1);
    body = support::trim(body);
    if (!body.starts_with("include")) continue;
    body.remove_prefix(7);
    body = support::trim(body);
    if (body.size() >= 2 && body.front() == '"') {
      const auto close = body.find('"', 1);
      if (close != std::string_view::npos) {
        out.push_back({std::string(body.substr(1, close - 1)), false, t.line});
      }
    } else if (body.size() >= 2 && body.front() == '<') {
      const auto close = body.find('>', 1);
      if (close != std::string_view::npos) {
        out.push_back({std::string(body.substr(1, close - 1)), true, t.line});
      }
    }
  }
  return out;
}

/// One memo entry; it owns a copy of its content, which is the key.
struct Slot {
  explicit Slot(std::string_view text) : content(text) {}
  const std::string content;
  std::once_flag computed;
  Analysis analysis;
};

}  // namespace

const Analysis& analyse(std::string_view source) {
  static std::mutex mu;
  static std::unordered_map<std::size_t, std::forward_list<Slot>> memo;
  const std::size_t hash = std::hash<std::string_view>{}(source);
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto& bucket = memo[hash];
    for (Slot& s : bucket) {
      if (s.content == source) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) slot = &bucket.emplace_front(source);
  }
  // Computed outside the lock: racing callers of one content wait here,
  // callers of other contents do not.
  std::call_once(slot->computed, [&] {
    ++g_analysis_runs;
    const LexResult lexed = lex(source);
    slot->analysis.functions = find_functions(lexed.tokens);
    slot->analysis.includes = include_refs(lexed.tokens);
  });
  return slot->analysis;
}

std::uint64_t analysis_runs() { return g_analysis_runs.load(); }

}  // namespace pareval::codeanal
