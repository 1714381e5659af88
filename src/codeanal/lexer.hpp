#pragma once
// Lexer for the C-with-extensions dialect used by every benchmark
// application (C99-style C++, CUDA qualifiers and launch syntax, OpenMP
// pragmas, restricted Kokkos C++). Shared by the code-analysis tools, the
// MiniC parser, the build simulator and the translation engines.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pareval::codeanal {

enum class TokKind {
  Identifier,   // names and keywords (parser distinguishes)
  IntLit,       // 42, 0x1f, 7UL
  FloatLit,     // 1.0, 3e-2, 1.5f
  StringLit,    // "...", text field holds the *unescaped* value
  CharLit,      // 'a', text field holds the unescaped character(s)
  Punct,        // operators and punctuation, text holds the spelling
  PpDirective,  // whole '#...' logical line (continuations folded)
  EndOfFile,
};

struct Token {
  TokKind kind = TokKind::EndOfFile;
  std::string text;  // spelling (see per-kind notes above)
  int line = 0;      // 1-based
  int col = 0;       // 1-based
  std::string file;  // origin file; stamped by the preprocessor

  bool is(TokKind k) const { return kind == k; }
  bool is_punct(std::string_view p) const {
    return kind == TokKind::Punct && text == p;
  }
  bool is_ident(std::string_view name) const {
    return kind == TokKind::Identifier && text == name;
  }
};

/// A lexical problem; the driver maps these to "Code Syntax Error".
struct LexError {
  std::string message;
  int line = 0;
};

struct LexResult {
  std::vector<Token> tokens;  // always ends with EndOfFile
  std::vector<LexError> errors;
};

/// Tokenise a source file. Comments are skipped; '#' lines become single
/// PpDirective tokens with backslash continuations folded in.
LexResult lex(std::string_view source);

/// Process-wide number of lex() calls so far (a counter, for gates that
/// must not scale with samples per cell).
std::uint64_t lex_calls();

/// Strip // and /* */ comments, preserving line structure (used by the
/// SLoC counter and the translation engines).
std::string strip_comments(std::string_view source);

}  // namespace pareval::codeanal
