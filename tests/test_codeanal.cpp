#include <gtest/gtest.h>

#include <array>
#include <cctype>

#include "apps/app.hpp"
#include "codeanal/analysis.hpp"
#include "codeanal/functions.hpp"
#include "codeanal/includes.hpp"
#include "codeanal/lexer.hpp"
#include "codeanal/metrics.hpp"
#include "llm/calibration.hpp"
#include "support/par.hpp"
#include "support/rng.hpp"
#include "translate/transpile.hpp"

namespace ca = pareval::codeanal;

TEST(Lexer, BasicTokens) {
  const auto r = ca::lex("int x = 42 + y;");
  ASSERT_TRUE(r.errors.empty());
  ASSERT_GE(r.tokens.size(), 8u);
  EXPECT_TRUE(r.tokens[0].is_ident("int"));
  EXPECT_TRUE(r.tokens[1].is_ident("x"));
  EXPECT_TRUE(r.tokens[2].is_punct("="));
  EXPECT_EQ(r.tokens[3].kind, ca::TokKind::IntLit);
  EXPECT_EQ(r.tokens.back().kind, ca::TokKind::EndOfFile);
}

TEST(Lexer, FloatForms) {
  const auto r = ca::lex("1.5 3e-2 2.0f 7u 0x1F .25");
  EXPECT_EQ(r.tokens[0].kind, ca::TokKind::FloatLit);
  EXPECT_EQ(r.tokens[1].kind, ca::TokKind::FloatLit);
  EXPECT_EQ(r.tokens[2].kind, ca::TokKind::FloatLit);
  EXPECT_EQ(r.tokens[3].kind, ca::TokKind::IntLit);
  EXPECT_EQ(r.tokens[4].kind, ca::TokKind::IntLit);
  EXPECT_EQ(r.tokens[5].kind, ca::TokKind::FloatLit);
}

TEST(Lexer, CudaLaunchTokens) {
  const auto r = ca::lex("kernel<<<grid, block>>>(a, b);");
  bool open = false, close = false;
  for (const auto& t : r.tokens) {
    if (t.is_punct("<<<")) open = true;
    if (t.is_punct(">>>")) close = true;
  }
  EXPECT_TRUE(open);
  EXPECT_TRUE(close);
}

TEST(Lexer, StringEscapes) {
  const auto r = ca::lex(R"(printf("a\n\"b\"");)");
  ASSERT_EQ(r.tokens[2].kind, ca::TokKind::StringLit);
  EXPECT_EQ(r.tokens[2].text, "a\n\"b\"");
}

TEST(Lexer, PpDirectiveCapturesWholeLine) {
  const auto r = ca::lex("#include <stdio.h>\nint x;");
  ASSERT_EQ(r.tokens[0].kind, ca::TokKind::PpDirective);
  EXPECT_EQ(r.tokens[0].text, "#include <stdio.h>");
  EXPECT_TRUE(r.tokens[1].is_ident("int"));
}

TEST(Lexer, PragmaWithContinuation) {
  const auto r = ca::lex("#pragma omp target \\\n  map(to: x)\nint y;");
  ASSERT_EQ(r.tokens[0].kind, ca::TokKind::PpDirective);
  EXPECT_NE(r.tokens[0].text.find("map(to: x)"), std::string::npos);
}

TEST(Lexer, CommentsSkippedLinesTracked) {
  const auto r = ca::lex("// c1\n/* c2\nc3 */ int x;");
  EXPECT_TRUE(r.tokens[0].is_ident("int"));
  EXPECT_EQ(r.tokens[0].line, 3);
}

TEST(Lexer, HashMidLineIsNotDirective) {
  const auto r = ca::lex("int x; #bad");
  // '#' not at line start: lexed as error (no '#' operator) not directive.
  EXPECT_FALSE(r.errors.empty());
}

TEST(Lexer, UnterminatedString) {
  const auto r = ca::lex("char* s = \"abc;\n");
  EXPECT_FALSE(r.errors.empty());
}

TEST(Lexer, StripComments) {
  EXPECT_EQ(ca::strip_comments("a /* x */ b // y\nc"), "a  b \nc");
  // Comment markers inside strings are preserved.
  EXPECT_EQ(ca::strip_comments("\"//not\""), "\"//not\"");
}

TEST(Metrics, SlocCountsNonBlankNonComment) {
  const char* src = R"(
// comment only
int main() {
  /* block
     comment */
  return 0;
}

)";
  EXPECT_EQ(ca::sloc(src), 3);  // "int main() {", "return 0;", "}"
}

TEST(Metrics, CyclomaticStraightLineIsOne) {
  const auto fns = ca::function_complexity("int f() { return 1; }");
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "f");
  EXPECT_EQ(fns[0].complexity, 1);
}

TEST(Metrics, CyclomaticCountsBranchesAndLogicalOps) {
  const char* src = R"(
int f(int x) {
  if (x > 0 && x < 10) { return 1; }
  for (int i = 0; i < x; i++) {
    while (x > 2) { x--; }
  }
  return x > 5 ? 1 : 0;
}
)";
  const auto fns = ca::function_complexity(src);
  ASSERT_EQ(fns.size(), 1u);
  // 1 + if + && + for + while + ternary = 6
  EXPECT_EQ(fns[0].complexity, 6);
}

TEST(Metrics, MultipleFunctions) {
  const char* src = R"(
int a() { return 0; }
int b(int x) { if (x) return 1; return 0; }
)";
  const auto fns = ca::function_complexity(src);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "a");
  EXPECT_EQ(fns[1].name, "b");
  EXPECT_EQ(ca::file_complexity(src), 3);
}

TEST(Metrics, RepoMetricsExcludesDocs) {
  pareval::vfs::Repo repo;
  repo.write("main.cpp", "int main() { return 0; }\n");
  repo.write("README.md", "docs\nmore docs\n");
  repo.write("Makefile", "all:\n\techo hi\n");
  const auto m = ca::repo_metrics(repo);
  EXPECT_EQ(m.files, 2);  // main.cpp + Makefile
  EXPECT_EQ(m.sloc, 3);   // 1 (cpp) + 2 (make)
}

TEST(Functions, FindFunctionsSkipsStructsAndProtos) {
  const char* src = R"(
struct Point { int x; int y; };
int declared_only(int a);
int real_fn(int a) { return a + 1; }
)";
  const auto lexed = ca::lex(src);
  const auto fns = ca::find_functions(lexed.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "real_fn");
}

TEST(Functions, CudaKernelDetected) {
  const char* src =
      "__global__ void k(int* p, size_t n) { if (n) p[0] = 1; }";
  const auto lexed = ca::lex(src);
  const auto fns = ca::find_functions(lexed.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "k");
}

TEST(Functions, ChunkerKeepsSmallFileWhole) {
  const char* src = "int a() { return 0; }\nint b() { return 1; }\n";
  const auto chunks = ca::split_into_chunks(src, 4096);
  ASSERT_EQ(chunks.size(), 1u);
}

TEST(Functions, ChunkerSplitsAtFunctionBoundaries) {
  std::string src;
  for (int i = 0; i < 6; ++i) {
    src += "int fn" + std::to_string(i) +
           "(int x) { int y = x * 2; return y + " + std::to_string(i) +
           "; }\n";
  }
  const auto chunks = ca::split_into_chunks(src, 120);
  EXPECT_GT(chunks.size(), 1u);
  std::string merged;
  for (const auto& c : chunks) merged += c.text;
  EXPECT_EQ(merged, src);  // lossless split
}

TEST(Includes, ScanFindsQuotedAndAngled) {
  const char* src =
      "#include <stdio.h>\n#include \"kernel.h\"\nint main() {}\n";
  const auto incs = ca::scan_includes(src);
  ASSERT_EQ(incs.size(), 2u);
  EXPECT_TRUE(incs[0].angled);
  EXPECT_EQ(incs[0].target, "stdio.h");
  EXPECT_FALSE(incs[1].angled);
  EXPECT_EQ(incs[1].target, "kernel.h");
}

TEST(Includes, GraphResolvesSiblingAndRoot) {
  pareval::vfs::Repo repo;
  repo.write("src/main.cpp", "#include \"kernel.h\"\n");
  repo.write("src/kernel.h", "int k();\n");
  repo.write("other.cpp", "#include \"src/kernel.h\"\n");
  const auto g = ca::build_include_graph(repo);
  ASSERT_EQ(g.edges.at("src/main.cpp").size(), 1u);
  EXPECT_EQ(g.edges.at("src/main.cpp")[0], "src/kernel.h");
  EXPECT_EQ(g.edges.at("other.cpp")[0], "src/kernel.h");
  EXPECT_TRUE(g.unresolved.empty());
}

TEST(Includes, UnresolvedRecorded) {
  pareval::vfs::Repo repo;
  repo.write("main.cpp", "#include \"missing.h\"\n");
  const auto g = ca::build_include_graph(repo);
  ASSERT_EQ(g.unresolved.at("main.cpp").size(), 1u);
}

TEST(Includes, TranslationOrderDependenciesFirst) {
  pareval::vfs::Repo repo;
  repo.write("main.cpp", "#include \"a.h\"\n#include \"b.h\"\n");
  repo.write("a.h", "#include \"b.h\"\n");
  repo.write("b.h", "int b();\n");
  repo.write("Makefile", "all:\n");
  const auto order = ca::translation_order(repo);
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](const std::string& p) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == p) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos("b.h"), pos("a.h"));
  EXPECT_LT(pos("a.h"), pos("main.cpp"));
  EXPECT_EQ(order.back(), "Makefile");  // non-source last
}

// ------------------------------------------------- lexer differential ---
//
// The per-character lexer codeanal::lex replaced, kept verbatim as the
// oracle: the kernel must reproduce every token field and every error.

namespace {

namespace oracle {

using ca::LexResult;
using ca::Token;
using ca::TokKind;

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators; the lexer picks the longest match.
constexpr std::array<std::string_view, 28> kMultiPuncts = {
    "<<<", ">>>", "<<=", ">>=", "...", "->*",
    "::",  "->",  "++",  "--",  "<<",  ">>",  "<=", ">=", "==", "!=",
    "&&",  "||",  "+=",  "-=",  "*=",  "/=",  "%=", "&=", "|=", "^=",
    "##",  ".*"};

LexResult lex(std::string_view src) {
  LexResult result;
  int line = 1, col = 1;
  std::size_t i = 0;

  auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto push = [&](TokKind kind, std::string text, int tl, int tc) {
    result.tokens.push_back(Token{kind, std::move(text), tl, tc, {}});
  };

  bool at_line_start = true;
  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      at_line_start = true;
      advance();
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      advance();
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') advance();
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      const int start_line = line;
      advance(2);
      bool closed = false;
      while (i < src.size()) {
        if (src[i] == '*' && i + 1 < src.size() && src[i + 1] == '/') {
          advance(2);
          closed = true;
          break;
        }
        advance();
      }
      if (!closed) {
        result.errors.push_back({"unterminated block comment", start_line});
      }
      continue;
    }
    // Preprocessor lines (only when '#' is the first non-space on the line).
    if (c == '#' && at_line_start) {
      const int tl = line, tc = col;
      std::string text;
      while (i < src.size()) {
        if (src[i] == '\\' && i + 1 < src.size() && src[i + 1] == '\n') {
          text += ' ';
          advance(2);
          continue;
        }
        if (src[i] == '\n') break;
        text += src[i];
        advance();
      }
      push(TokKind::PpDirective, text, tl, tc);
      continue;
    }
    at_line_start = false;
    // Identifiers / keywords.
    if (ident_start(c)) {
      const int tl = line, tc = col;
      std::string text;
      while (i < src.size() && ident_char(src[i])) {
        text += src[i];
        advance();
      }
      push(TokKind::Identifier, std::move(text), tl, tc);
      continue;
    }
    // Numbers (also handles ".5" floats).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < src.size() &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      const int tl = line, tc = col;
      std::string text;
      bool is_float = false;
      if (c == '0' && i + 1 < src.size() &&
          (src[i + 1] == 'x' || src[i + 1] == 'X')) {
        text += src[i];
        advance();
        text += src[i];
        advance();
        while (i < src.size() &&
               std::isxdigit(static_cast<unsigned char>(src[i]))) {
          text += src[i];
          advance();
        }
      } else {
        while (i < src.size() &&
               std::isdigit(static_cast<unsigned char>(src[i]))) {
          text += src[i];
          advance();
        }
        if (i < src.size() && src[i] == '.') {
          is_float = true;
          text += src[i];
          advance();
          while (i < src.size() &&
                 std::isdigit(static_cast<unsigned char>(src[i]))) {
            text += src[i];
            advance();
          }
        }
        if (i < src.size() && (src[i] == 'e' || src[i] == 'E')) {
          is_float = true;
          text += src[i];
          advance();
          if (i < src.size() && (src[i] == '+' || src[i] == '-')) {
            text += src[i];
            advance();
          }
          while (i < src.size() &&
                 std::isdigit(static_cast<unsigned char>(src[i]))) {
            text += src[i];
            advance();
          }
        }
      }
      // Suffixes: u, l, f (any order/case). 'f' forces float.
      while (i < src.size() && (src[i] == 'u' || src[i] == 'U' ||
                                src[i] == 'l' || src[i] == 'L' ||
                                src[i] == 'f' || src[i] == 'F')) {
        if (src[i] == 'f' || src[i] == 'F') is_float = true;
        text += src[i];
        advance();
      }
      push(is_float ? TokKind::FloatLit : TokKind::IntLit, std::move(text), tl,
           tc);
      continue;
    }
    // Strings and chars.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int tl = line, tc = col;
      advance();
      std::string value;
      bool closed = false;
      while (i < src.size()) {
        if (src[i] == quote) {
          advance();
          closed = true;
          break;
        }
        if (src[i] == '\n') break;
        if (src[i] == '\\' && i + 1 < src.size()) {
          advance();
          switch (src[i]) {
            case 'n': value += '\n'; break;
            case 't': value += '\t'; break;
            case 'r': value += '\r'; break;
            case '0': value += '\0'; break;
            case '\\': value += '\\'; break;
            case '"': value += '"'; break;
            case '\'': value += '\''; break;
            default: value += src[i]; break;
          }
          advance();
          continue;
        }
        value += src[i];
        advance();
      }
      if (!closed) {
        result.errors.push_back(
            {quote == '"' ? "unterminated string literal"
                          : "unterminated character literal",
             tl});
      }
      push(quote == '"' ? TokKind::StringLit : TokKind::CharLit,
           std::move(value), tl, tc);
      continue;
    }
    // Punctuators, longest first.
    {
      const int tl = line, tc = col;
      std::string_view rest = src.substr(i);
      std::string matched;
      for (std::string_view p : kMultiPuncts) {
        if (p.size() <= rest.size() && rest.substr(0, p.size()) == p) {
          if (p.size() > matched.size()) matched = std::string(p);
        }
      }
      if (!matched.empty()) {
        advance(matched.size());
        push(TokKind::Punct, std::move(matched), tl, tc);
        continue;
      }
      static constexpr std::string_view kSingles = "+-*/%<>=!&|^~?:;,.(){}[]";
      if (kSingles.find(c) != std::string_view::npos) {
        advance();
        push(TokKind::Punct, std::string(1, c), tl, tc);
        continue;
      }
      result.errors.push_back(
          {std::string("unexpected character '") + c + "'", line});
      advance();
    }
  }
  result.tokens.push_back(Token{TokKind::EndOfFile, "", line, col, {}});
  return result;
}

}  // namespace oracle

/// Empty when lex(src) equals the oracle field by field; otherwise the
/// first difference.
std::string lex_mismatch(std::string_view src) {
  const ca::LexResult got = ca::lex(src);
  const ca::LexResult want = oracle::lex(src);
  if (got.tokens.size() != want.tokens.size()) {
    return "token count " + std::to_string(got.tokens.size()) + " vs " +
           std::to_string(want.tokens.size());
  }
  for (std::size_t k = 0; k < got.tokens.size(); ++k) {
    const ca::Token& a = got.tokens[k];
    const ca::Token& b = want.tokens[k];
    if (a.kind != b.kind || a.text != b.text || a.line != b.line ||
        a.col != b.col || a.file != b.file) {
      return "token " + std::to_string(k) + ": '" + a.text + "' " +
             std::to_string(a.line) + ":" + std::to_string(a.col) +
             " kind " + std::to_string(static_cast<int>(a.kind)) +
             " vs '" + b.text + "' " + std::to_string(b.line) + ":" +
             std::to_string(b.col) + " kind " +
             std::to_string(static_cast<int>(b.kind));
    }
  }
  if (got.errors.size() != want.errors.size()) {
    return "error count " + std::to_string(got.errors.size()) + " vs " +
           std::to_string(want.errors.size());
  }
  for (std::size_t k = 0; k < got.errors.size(); ++k) {
    if (got.errors[k].message != want.errors[k].message ||
        got.errors[k].line != want.errors[k].line) {
      return "error " + std::to_string(k) + ": " + got.errors[k].message +
             " vs " + want.errors[k].message;
    }
  }
  return "";
}

/// Every file of every shipped app implementation and ground-truth build.
std::vector<std::string> shipped_files() {
  std::vector<std::string> out;
  auto add = [&](const pareval::vfs::Repo& repo) {
    repo.for_each_file([&](const std::string&, const std::string& content) {
      out.push_back(content);
    });
  };
  for (const auto* app : pareval::apps::all_apps()) {
    for (const auto& [model, repo] : app->repos) add(repo);
    for (const auto& [model, repo] : app->ground_truth_builds) add(repo);
  }
  return out;
}

// Fragments the mutation corpus splices in: unterminated literals and
// comments, continuations, a backslash that may land at EOF, CRLF, number
// forms, and punctuators whose longest match is easy to get wrong.
constexpr std::array<std::string_view, 22> kSplices = {
    "\"abc", "'x",   "/*",  "\\\n", "\\",   "\r\n", "0x",  "1e+",
    ".5f",   "1.2.3", "<<<=", ">>>", "->*", ".*",  "##",  "...",
    "\n#",   "\n  # define X \\\n 1", "\"a\\\nb\"", "*/", "0X1fUl", "'\\''"};

std::string mutate(const std::string& base, pareval::support::Rng& rng) {
  std::string s = base;
  const std::size_t edits = 1 + rng.next_below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.next_below(s.size() + 1);
    switch (rng.next_below(4)) {
      case 0:  // prefix truncation
        s.resize(at);
        break;
      case 1:  // byte flip, any byte value including >= 0x80
        if (at < s.size()) s[at] = static_cast<char>(rng.next_below(256));
        break;
      case 2:  // a flipped byte from the lexer's interesting set
        if (at < s.size()) {
          static constexpr std::string_view kBytes = "\\\"'\n\r#/*.<>-:x0e";
          s[at] = kBytes[rng.next_below(kBytes.size())];
        }
        break;
      default:  // splice
        s.insert(at, kSplices[rng.next_below(kSplices.size())]);
        break;
    }
  }
  return s;
}

}  // namespace

TEST(LexerDifferential, EveryShippedFileMatchesOracle) {
  const auto files = shipped_files();
  ASSERT_GT(files.size(), 20u);
  for (std::size_t k = 0; k < files.size(); ++k) {
    EXPECT_EQ(lex_mismatch(files[k]), "") << "shipped file " << k;
  }
}

TEST(LexerDifferential, EveryReferenceTranslationMatchesOracle) {
  std::size_t checked = 0;
  for (const auto* app : pareval::apps::all_apps()) {
    for (const auto& pair : pareval::llm::all_pairs()) {
      if (!app->repos.contains(pair.from)) continue;
      pareval::xlate::TranspileLog log;
      const auto repo =
          pareval::xlate::transpile_repo(*app, pair.from, pair.to, log);
      repo.for_each_file([&](const std::string& path,
                             const std::string& content) {
        EXPECT_EQ(lex_mismatch(content), "") << app->name << " " << path;
        ++checked;
      });
    }
  }
  EXPECT_GT(checked, 40u);
}

TEST(LexerDifferential, EdgeCasesMatchOracle) {
  const std::vector<std::string> cases = {
      "", "\n", "#", "#\\", "#\\\n", "# a \\\n b \\\\\n c", "#a\\\r\nb",
      "x #y", "/* a \n b */ #include <x>\n#y", "x /* \n */ #z",
      "\"abc", "'x", "\"a\\", "\"a\\\nb\" c", "'\\0' '\\q'", "/*", "/*/",
      "/**/", "/* * / *", "// x", "a // b\n#c", "\\", "x\\", "a\r\nb\r\n",
      "0x", "0X", "0xg", "0x1.5", "0x1fULL", "1e+", "1E-x", ".5f", "1.2.3",
      "1..2", "1.e5", "7uLf", "09", ".", "..", "...", "....", "<<<=",
      "<<<<", ">>>=", ">>>>", "->*", "->", "-->", ".*", "..*", "##", "###",
      "#define A ##", "a ## b", "::", ":::", "&&=", "||=", "^^", "!==",
      "$", "@", "`", "\v\f", std::string("a\0b", 3), "\x80\xff", "caf\xc3\xa9",
      "_x1 x_ __", "a\tb  c\r", "\"\\\"\"", "'\\\\'",
  };
  for (const auto& c : cases) {
    EXPECT_EQ(lex_mismatch(c), "") << "input: " << c;
  }
  // Every prefix of a dense mix of the above.
  const std::string dense =
      "#include \"a.h\" \\\n /* c */\nint main(){ x<<<=1; a->*b; s=\"q\\\"\";"
      " c='\\n'; f=.5f+1e+3-0x1F; p...; }\r\n  # pragma omp x \\\n y\n/* e";
  for (std::size_t n = 0; n <= dense.size(); ++n) {
    EXPECT_EQ(lex_mismatch(std::string_view(dense).substr(0, n)), "")
        << "prefix " << n;
  }
}

TEST(LexerDifferential, EveryShortPunctuatorRunMatchesOracle) {
  // Longest match, exhaustively: every run of up to three punctuator
  // characters, and up to four over the ones that start a multi-character
  // punctuator.
  auto all_runs = [](std::string_view alphabet, std::size_t max_len) {
    std::vector<std::string> runs = {""};
    for (std::size_t from = 0, len = 0; len < max_len; ++len) {
      const std::size_t to = runs.size();
      for (std::size_t r = from; r < to; ++r) {
        for (const char c : alphabet) runs.push_back(runs[r] + c);
      }
      from = to;
    }
    return runs;
  };
  for (const auto& run : all_runs("+-*/%<>=!&|^~?:;,.(){}[]#", 3)) {
    EXPECT_EQ(lex_mismatch(" " + run), "") << "input: " << run;
  }
  for (const auto& run : all_runs("<>=.-*:#&|+", 4)) {
    EXPECT_EQ(lex_mismatch(" " + run), "") << "input: " << run;
  }
}

TEST(LexerDifferential, SeededMutationCorpusMatchesOracle) {
  // Bases: windows of the shipped files (every lexer state shows up in
  // them), mutated by truncation, byte flips and splices.
  const auto files = shipped_files();
  pareval::support::Rng rng(13);
  std::size_t mismatches = 0;
  for (int k = 0; k < 6000; ++k) {
    const std::string& file = files[rng.next_below(files.size())];
    const std::size_t len = 1 + rng.next_below(600);
    const std::size_t from =
        file.size() > len ? rng.next_below(file.size() - len) : 0;
    const std::string mutant = mutate(file.substr(from, len), rng);
    const std::string diff = lex_mismatch(mutant);
    if (!diff.empty() && ++mismatches <= 5) {
      ADD_FAILURE() << diff << "\ninput: " << mutant;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(LexerDifferential, LexCallsCounted) {
  const auto before = ca::lex_calls();
  ca::lex("int x;");
  ca::lex("int y;");
  EXPECT_EQ(ca::lex_calls() - before, 2u);
}

// ------------------------------------------------------ analysis memo ---

TEST(AnalysisMemo, EqualContentInDistinctBuffersComputedOnce) {
  const std::string a =
      "#include \"memo_once.h\"\nint memo_once(int x) { return x; }\n";
  const std::string b(a.data(), a.size());  // a second buffer
  ASSERT_NE(static_cast<const void*>(a.data()),
            static_cast<const void*>(b.data()));
  const auto runs = ca::analysis_runs();
  const ca::Analysis& first = ca::analyse(a);
  const ca::Analysis& second = ca::analyse(b);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(ca::analysis_runs() - runs, 1u);
  ASSERT_EQ(first.functions.size(), 1u);
  EXPECT_EQ(first.functions[0].name, "memo_once");
  ASSERT_EQ(first.includes.size(), 1u);
  EXPECT_EQ(first.includes[0].target, "memo_once.h");
  // The memoised callers read the same entry.
  ca::split_into_chunks(b, 4096);
  ca::scan_includes(a);
  EXPECT_EQ(ca::analysis_runs() - runs, 1u);
}

TEST(AnalysisMemo, DistinctContentGetsDistinctEntries) {
  const auto runs = ca::analysis_runs();
  const ca::Analysis& f = ca::analyse("int memo_f() { return 1; }\n");
  const ca::Analysis& g = ca::analyse("int memo_g() { return 2; }\n");
  EXPECT_NE(&f, &g);
  EXPECT_EQ(ca::analysis_runs() - runs, 2u);
  ASSERT_EQ(f.functions.size(), 1u);
  ASSERT_EQ(g.functions.size(), 1u);
  EXPECT_EQ(f.functions[0].name, "memo_f");
  EXPECT_EQ(g.functions[0].name, "memo_g");
  // Same length, one byte apart: still two entries.
  const ca::Analysis& h = ca::analyse("int memo_h() { return 2; }\n");
  EXPECT_NE(&g, &h);
  EXPECT_EQ(h.functions[0].name, "memo_h");
  EXPECT_EQ(ca::analysis_runs() - runs, 3u);
}

TEST(AnalysisMemo, PoolThreadsRacingOnOneContentComputeItOnce) {
  // A fresh content, so every pool thread misses on it together.
  std::string src;
  for (int k = 0; k < 200; ++k) {
    src += "int memo_race_" + std::to_string(k) + "(int x) { return x; }\n";
  }
  const auto runs = ca::analysis_runs();
  constexpr std::size_t kCallers = 32;
  std::vector<const ca::Analysis*> seen(kCallers);
  pareval::support::parallel_for(0, kCallers, [&](std::size_t i) {
    const std::string copy = src;  // each caller brings its own buffer
    seen[i] = &ca::analyse(copy);
  });
  EXPECT_EQ(ca::analysis_runs() - runs, 1u);
  for (const auto* a : seen) EXPECT_EQ(a, seen[0]);
  EXPECT_EQ(seen[0]->functions.size(), 200u);
}
