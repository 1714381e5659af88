#include "codeanal/lexer.hpp"

#include <atomic>
#include <cstring>

namespace pareval::codeanal {

namespace {

std::atomic<std::uint64_t> g_lex_calls{0};

// Character classes in plain ASCII, which is what <cctype> answers in the
// "C" locale (nothing here calls setlocale); bytes >= 0x80 are in none.
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool is_xdigit(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}
constexpr bool is_ident_start(char c) { return is_alpha(c) || c == '_'; }
constexpr bool is_ident_char(char c) {
  return is_ident_start(c) || is_digit(c);
}

/// Length of the longest punctuator starting at p[0] (n >= 1 bytes
/// available), or 0 if p[0] starts none. The multi-character ones are
///   <<< >>> <<= >>= ... ->* :: -> ++ -- << >> <= >= == != && || += -=
///   *= /= %= &= |= ^= ## .*
/// and the singles are + - * / % < > = ! & | ^ ~ ? : ; , . ( ) { } [ ].
std::size_t punct_length(const char* p, std::size_t n) {
  const char c1 = n > 1 ? p[1] : '\0';
  const char c2 = n > 2 ? p[2] : '\0';
  switch (p[0]) {
    case '<':
    case '>':
      if (c1 == p[0]) return c2 == p[0] || c2 == '=' ? 3 : 2;
      return c1 == '=' ? 2 : 1;
    case '.':
      if (c1 == '.' && c2 == '.') return 3;
      return c1 == '*' ? 2 : 1;
    case '-':
      if (c1 == '>') return c2 == '*' ? 3 : 2;
      return c1 == '-' || c1 == '=' ? 2 : 1;
    case '+':
    case '&':
    case '|':
      return c1 == p[0] || c1 == '=' ? 2 : 1;
    case ':':
      return c1 == ':' ? 2 : 1;
    case '=':
    case '!':
    case '*':
    case '/':
    case '%':
    case '^':
      return c1 == '=' ? 2 : 1;
    case '#':
      return c1 == '#' ? 2 : 0;
    case '~':
    case '?':
    case ';':
    case ',':
    case '(':
    case ')':
    case '{':
    case '}':
    case '[':
    case ']':
      return 1;
    default:
      return 0;
  }
}

}  // namespace

std::uint64_t lex_calls() { return g_lex_calls.load(); }

std::string strip_comments(std::string_view src) {
  std::string out;
  out.reserve(src.size());
  std::size_t i = 0;
  while (i < src.size()) {
    const char c = src[i];
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') out += '\n';  // preserve line numbers
        ++i;
      }
      i = i + 2 <= src.size() ? i + 2 : src.size();
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      out += src[i++];
      while (i < src.size() && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < src.size()) {
          out += src[i++];
        }
        if (i < src.size()) out += src[i++];
      }
      if (i < src.size()) out += src[i++];
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

LexResult lex(std::string_view src) {
  ++g_lex_calls;
  LexResult result;
  // Code runs ~4 bytes per token; an eighth of the size skips the small
  // growth steps without over-reserving for comment-heavy files.
  result.tokens.reserve(src.size() / 8);
  const char* const s = src.data();
  const std::size_t n = src.size();
  // Columns count bytes from the start of the current line.
  int line = 1;
  std::size_t line_begin = 0;
  auto col_at = [&](std::size_t pos) {
    return static_cast<int>(pos - line_begin) + 1;
  };
  // Account for the newlines in [from, to).
  auto cross_lines = [&](std::size_t from, std::size_t to) {
    while (const void* nl = std::memchr(s + from, '\n', to - from)) {
      from = static_cast<std::size_t>(static_cast<const char*>(nl) - s) + 1;
      ++line;
      line_begin = from;
    }
  };
  // Appends a token in place and hands back its text for the caller to
  // fill (nothing else is appended while it is held).
  auto emit = [&](TokKind kind, int tl, int tc) -> std::string& {
    Token& t = result.tokens.emplace_back();
    t.kind = kind;
    t.line = tl;
    t.col = tc;
    return t.text;
  };

  bool at_line_start = true;
  std::size_t i = 0;
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      at_line_start = true;
      ++line;
      line_begin = ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      const std::size_t nl = src.find('\n', i);
      i = nl == std::string_view::npos ? n : nl;
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const int start_line = line;
      const std::size_t close = src.find("*/", i + 2);
      const std::size_t end = close == std::string_view::npos ? n : close + 2;
      cross_lines(i + 2, end);
      if (close == std::string_view::npos) {
        result.errors.push_back({"unterminated block comment", start_line});
      }
      i = end;
      continue;
    }
    // Preprocessor lines (only when '#' is the first non-space on the line):
    // up to the first newline not preceded by a backslash, each
    // backslash-newline folded to one space.
    if (c == '#' && at_line_start) {
      std::string& text = emit(TokKind::PpDirective, line, col_at(i));
      std::size_t seg = i;
      for (;;) {
        const std::size_t nl = src.find('\n', seg);
        if (nl == std::string_view::npos) {
          text.append(s + seg, n - seg);
          i = n;
          break;
        }
        if (s[nl - 1] != '\\') {
          text.append(s + seg, nl - seg);
          i = nl;
          break;
        }
        text.append(s + seg, nl - 1 - seg);
        text += ' ';
        ++line;
        line_begin = seg = nl + 1;
      }
      continue;
    }
    at_line_start = false;
    // Identifiers / keywords.
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(s[j])) ++j;
      emit(TokKind::Identifier, line, col_at(i)).assign(s + i, j - i);
      i = j;
      continue;
    }
    // Numbers (also handles ".5" floats).
    if (is_digit(c) || (c == '.' && i + 1 < n && is_digit(s[i + 1]))) {
      std::size_t j = i;
      bool is_float = false;
      auto skip_digits = [&] {
        while (j < n && is_digit(s[j])) ++j;
      };
      if (c == '0' && i + 1 < n && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
        j = i + 2;
        while (j < n && is_xdigit(s[j])) ++j;
      } else {
        skip_digits();
        if (j < n && s[j] == '.') {
          is_float = true;
          ++j;
          skip_digits();
        }
        if (j < n && (s[j] == 'e' || s[j] == 'E')) {
          is_float = true;
          ++j;
          if (j < n && (s[j] == '+' || s[j] == '-')) ++j;
          skip_digits();
        }
      }
      // Suffixes: u, l, f (any order/case). 'f' forces float.
      for (; j < n; ++j) {
        const char x = s[j] | 0x20;
        if (x == 'f') {
          is_float = true;
        } else if (x != 'u' && x != 'l') {
          break;
        }
      }
      emit(is_float ? TokKind::FloatLit : TokKind::IntLit, line, col_at(i))
          .assign(s + i, j - i);
      i = j;
      continue;
    }
    // Strings and chars: escape-free runs are copied whole.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int tl = line;
      std::string& value =
          emit(quote == '"' ? TokKind::StringLit : TokKind::CharLit, line,
               col_at(i));
      bool closed = false;
      std::size_t j = i + 1, run = j;
      while (j < n) {
        const char d = s[j];
        if (d == quote) {
          closed = true;
          break;
        }
        if (d == '\n') break;
        if (d == '\\' && j + 1 < n) {
          value.append(s + run, j - run);
          const char e = s[j + 1];
          switch (e) {
            case 'n': value += '\n'; break;
            case 't': value += '\t'; break;
            case 'r': value += '\r'; break;
            case '0': value += '\0'; break;
            default: value += e; break;
          }
          if (e == '\n') {
            ++line;
            line_begin = j + 2;
          }
          run = j += 2;
          continue;
        }
        ++j;
      }
      value.append(s + run, j - run);
      i = closed ? j + 1 : j;
      if (!closed) {
        result.errors.push_back(
            {quote == '"' ? "unterminated string literal"
                          : "unterminated character literal",
             tl});
      }
      continue;
    }
    // Punctuators, longest first.
    if (const std::size_t len = punct_length(s + i, n - i)) {
      emit(TokKind::Punct, line, col_at(i)).assign(s + i, len);
      i += len;
      continue;
    }
    result.errors.push_back(
        {std::string("unexpected character '") + c + "'", line});
    ++i;
  }
  emit(TokKind::EndOfFile, line, col_at(n));
  return result;
}

}  // namespace pareval::codeanal
