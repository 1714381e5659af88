#pragma once
// Binary object codec for warm-start persistence: a versioned, hash-sealed
// little-endian encoding of a post-sema `TranslationUnit` (the TU compile
// cache's payload for *successful* compiles) plus the shared primitives the
// chunk codec (minic/bytecode.hpp) and the link cache build on.
//
// Contract: decode(encode(tu)) is behaviorally identical to the original —
// every field sema wrote (expression types, parsed OMP directives,
// called_functions, diagnostics) round-trips, so a decoded TU links and
// executes bit-identically to a freshly compiled one without re-running
// the preprocessor, parser, or sema. Interned symbols and decoded
// operators are not persisted: decode_tu recomputes them from the
// spellings (intern_symbols), as decode_chunk does for chunk names. A payload that is truncated,
// bit-flipped, or written by a different codec version fails the embedded
// magic/version/content-hash checks and decodes to nothing — callers
// treat that as a clean cold miss, never a crash or a mis-execution.
//
// `kObjFormatVersion` is folded into the journal stream version
// (obj_stream_version), so a codec bump cold-starts the object streams
// while leaving the textual TU/score streams warm.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "minic/ast.hpp"
#include "minic/value.hpp"

namespace pareval::minic {

/// Bump on ANY change to the binary layout below or in the chunk codec.
/// v2: tagged chunk identity (function vs lambda), lambda-chunk section
/// in link payloads, OMP-region subchunks, VarDecl entries in the
/// NodeTable walk, and the Lambda/HostPar/OmpData/OmpExec/RetSig/LvTree/
/// DeclArr/DeclStruct opcodes.
inline constexpr std::uint32_t kObjFormatVersion = 2;

/// The stream version object payload streams (`obj1`, `lnk1`) are written
/// under: the pipeline version with the codec format version folded in.
std::uint64_t obj_stream_version(std::uint64_t pipeline_version);

// --- primitives -------------------------------------------------------------

/// Little-endian fixed-width appender over a std::string.
class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  const std::string& bytes() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader. Any out-of-range read poisons the
/// reader (ok() goes false) and yields zero values from then on, so
/// decoders can parse straight-line and check ok() once per record.
class BinReader {
 public:
  explicit BinReader(std::string_view buf) : buf_(buf) {}

  bool ok() const noexcept { return ok_; }
  bool at_end() const noexcept { return pos_ == buf_.size(); }
  void fail() noexcept { ok_ = false; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean();
  std::string str();

 private:
  bool take(std::size_t n, const char** out);

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Shared field codecs (used by the chunk codec's type/const pools).
void encode_type(const Type& t, BinWriter& w);
bool decode_type(BinReader& r, Type* out);
/// Only Int/Real/Str values (everything the bytecode compiler ever puts
/// in a const pool). Returns false for any other kind.
bool encode_value(const Value& v, BinWriter& w);
bool decode_value(BinReader& r, Value* out);

// --- translation units ------------------------------------------------------

/// Serialize a post-sema TU. The payload is self-contained: magic, format
/// version, and a content hash over the body.
std::string encode_tu(const TranslationUnit& tu);

/// nullptr when `bytes` is not a valid current-version payload (torn,
/// corrupted, or version-bumped) — the caller's cold-miss path.
std::shared_ptr<TranslationUnit> decode_tu(std::string_view bytes);

// --- node identity ----------------------------------------------------------

/// A deterministic pre-order enumeration of every AST node a compiled
/// Chunk instruction can reference (each TU's function declarations and
/// every statement/expression/variable-declarator of their bodies, in
/// declaration order).
/// Built identically over the original and the decoded program, it turns
/// raw `const void*` instruction payloads into stable indices — the chunk
/// codec's relocation table. The walk order is part of the on-disk
/// format: changing it requires a kObjFormatVersion bump.
class NodeTable {
 public:
  enum class Kind : std::uint8_t { Function, Expr, Stmt, VarDecl };

  static NodeTable build(
      const std::vector<std::shared_ptr<TranslationUnit>>& tus);

  /// -1 when `node` is not enumerated (encoder's skip-persist signal).
  std::int32_t index_of(const void* node) const;
  /// nullptr when out of range or the entry is not of `expected` kind
  /// (decoder-side validation).
  const void* at(std::uint32_t index, Kind expected) const;
  std::size_t size() const noexcept { return nodes_.size(); }

 private:
  void add(const void* node, Kind kind);
  void walk_expr(const Expr* e);
  void walk_stmt(const Stmt* s);
  void walk_var_decl(const VarDecl& d);

  std::vector<std::pair<const void*, Kind>> nodes_;
  std::unordered_map<const void*, std::uint32_t> index_;
};

}  // namespace pareval::minic
