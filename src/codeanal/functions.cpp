#include "codeanal/functions.hpp"

#include "codeanal/analysis.hpp"
#include "support/strings.hpp"

namespace pareval::codeanal {

std::vector<FunctionSpan> find_functions(const std::vector<Token>& toks) {
  std::vector<FunctionSpan> out;
  int depth = 0;          // brace depth
  int paren_depth = 0;    // parenthesis depth
  std::size_t stmt_start = 0;  // token index where the current declaration began
  bool in_struct_head = false;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::EndOfFile) break;
    if (t.kind == TokKind::PpDirective) {
      if (depth == 0 && paren_depth == 0) stmt_start = i + 1;
      continue;
    }
    if (depth == 0 && t.kind == TokKind::Identifier &&
        (t.text == "struct" || t.text == "enum" || t.text == "union" ||
         t.text == "typedef" || t.text == "class")) {
      in_struct_head = true;
    }
    if (t.kind == TokKind::Punct) {
      if (t.text == "(") ++paren_depth;
      if (t.text == ")") --paren_depth;
      if (t.text == ";" && depth == 0 && paren_depth == 0) {
        stmt_start = i + 1;
        in_struct_head = false;
      }
      if (t.text == "{") {
        if (depth == 0 && paren_depth == 0 && !in_struct_head) {
          // Candidate function body: look back for `name ( ... )`.
          // Walk backwards over the parameter list.
          std::size_t j = i;
          while (j > stmt_start && !toks[j - 1].is_punct(")")) --j;
          if (j > stmt_start && toks[j - 1].is_punct(")")) {
            int pd = 0;
            std::size_t k = j;  // toks[k-1] == ')'
            do {
              --k;
              if (toks[k].is_punct(")")) ++pd;
              if (toks[k].is_punct("(")) --pd;
            } while (k > stmt_start && pd != 0);
            if (pd == 0 && k > stmt_start &&
                toks[k - 1].kind == TokKind::Identifier) {
              FunctionSpan fn;
              fn.name = toks[k - 1].text;
              fn.start_line = toks[stmt_start].line;
              fn.head_begin = stmt_start;
              fn.body_begin = i + 1;
              // Find matching close brace.
              int bd = 1;
              std::size_t m = i + 1;
              for (; m < toks.size() && bd > 0; ++m) {
                if (toks[m].is_punct("{")) ++bd;
                if (toks[m].is_punct("}")) --bd;
              }
              fn.body_end = m > 0 ? m - 1 : m;
              fn.end_line = toks[fn.body_end].line;
              out.push_back(fn);
              i = fn.body_end;  // loop ++i moves past '}'
              stmt_start = i + 1;
              continue;
            }
          }
          ++depth;
        } else {
          ++depth;
        }
      }
      if (t.text == "}") {
        if (depth > 0) --depth;
        if (depth == 0) {
          in_struct_head = false;
          // struct bodies end with `};` handled at ';'
        }
      }
    }
  }
  return out;
}

std::vector<Chunk> split_into_chunks(std::string_view source,
                                     std::size_t max_chunk_bytes) {
  const auto& fns = analyse(source).functions;
  const auto lines = support::split_lines(source);

  auto slice_lines = [&](int from_line, int to_line) {  // 1-based inclusive
    std::string out;
    for (int ln = from_line; ln <= to_line && ln <= static_cast<int>(lines.size());
         ++ln) {
      out += lines[ln - 1];
      out += '\n';
    }
    return out;
  };

  std::vector<Chunk> chunks;
  int cursor = 1;  // next unemitted line
  for (const auto& fn : fns) {
    if (fn.start_line > cursor) {
      Chunk pre;
      pre.text = slice_lines(cursor, fn.start_line - 1);
      if (!support::trim(pre.text).empty()) chunks.push_back(std::move(pre));
    }
    Chunk body;
    body.is_function = true;
    body.function_name = fn.name;
    body.text = slice_lines(fn.start_line, fn.end_line);
    chunks.push_back(std::move(body));
    cursor = fn.end_line + 1;
  }
  if (cursor <= static_cast<int>(lines.size())) {
    Chunk tail;
    tail.text = slice_lines(cursor, static_cast<int>(lines.size()));
    if (!support::trim(tail.text).empty()) chunks.push_back(std::move(tail));
  }
  if (chunks.empty() && !support::trim(source).empty()) {
    chunks.push_back(Chunk{std::string(source), false, ""});
  }

  // Greedily merge adjacent chunks while staying under the budget, so a
  // small file stays a single chunk (the paper splits only when needed).
  std::vector<Chunk> merged;
  for (auto& c : chunks) {
    if (!merged.empty() &&
        merged.back().text.size() + c.text.size() <= max_chunk_bytes) {
      merged.back().text += c.text;
      if (c.is_function && !merged.back().is_function) {
        merged.back().is_function = true;
        merged.back().function_name = c.function_name;
      }
    } else {
      merged.push_back(std::move(c));
    }
  }
  return merged;
}

}  // namespace pareval::codeanal
