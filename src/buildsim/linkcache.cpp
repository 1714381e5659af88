#include "buildsim/linkcache.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "minic/bytecode.hpp"
#include "minic/objcodec.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pareval::buildsim {

using minic::Capabilities;
using minic::Diag;
using minic::Severity;
using minic::TranslationUnit;
using support::Json;

namespace {

// "PVL1", little-endian, followed by the codec format version and a
// content hash over the body — the same sealing scheme as encode_tu.
constexpr std::uint32_t kLinkMagic = 0x314c5650u;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return support::SplitMix64(h ^ v).next();
}

std::uint64_t caps_bits(const Capabilities& caps) {
  return (caps.cuda ? 1u : 0u) | (caps.openmp ? 2u : 0u) |
         (caps.offload ? 4u : 0u) | (caps.kokkos ? 8u : 0u) |
         (caps.curand ? 16u : 0u);
}

void encode_diag(const Diag& d, minic::BinWriter& w) {
  w.str(minic::diag_category_key(d.category));
  w.u8(d.severity == Severity::Error ? 1 : 0);
  w.str(d.message);
  w.str(d.file);
  w.i32(d.line);
}

// Pre-order lambda-body collection over a function body: the bodies feed
// the link payload's lambda-chunk section in a deterministic order
// (name-ordered functions, source order within each). Mirrors the
// NodeTable walk, so every collected body has a relocation index.
void collect_lambda_bodies(const minic::Expr* e,
                           std::vector<const minic::Stmt*>* out);
void collect_lambda_bodies(const minic::Stmt* s,
                           std::vector<const minic::Stmt*>* out) {
  if (s == nullptr) return;
  for (const auto& child : s->body) collect_lambda_bodies(child.get(), out);
  collect_lambda_bodies(s->expr.get(), out);
  for (const auto& d : s->decls) {
    collect_lambda_bodies(d.init.get(), out);
    for (const auto& a : d.ctor_args) collect_lambda_bodies(a.get(), out);
    collect_lambda_bodies(d.array_size.get(), out);
  }
  collect_lambda_bodies(s->then_branch.get(), out);
  collect_lambda_bodies(s->else_branch.get(), out);
  collect_lambda_bodies(s->for_init.get(), out);
  collect_lambda_bodies(s->for_inc.get(), out);
  collect_lambda_bodies(s->loop_body.get(), out);
  collect_lambda_bodies(s->omp_body.get(), out);
}
void collect_lambda_bodies(const minic::Expr* e,
                           std::vector<const minic::Stmt*>* out) {
  if (e == nullptr) return;
  if (e->kind == minic::ExprKind::LambdaExpr) {
    if (e->lambda_body) out->push_back(e->lambda_body.get());
  }
  for (const auto& kid : e->kids) collect_lambda_bodies(kid.get(), out);
  collect_lambda_bodies(e->launch_grid.get(), out);
  collect_lambda_bodies(e->launch_block.get(), out);
  collect_lambda_bodies(e->lambda_body.get(), out);
}

bool decode_diag(minic::BinReader& r, Diag* out) {
  if (!minic::diag_category_from_key(r.str(), &out->category)) return false;
  const std::uint8_t sev = r.u8();
  if (sev > 1) return false;
  out->severity = sev == 1 ? Severity::Error : Severity::Warning;
  out->message = r.str();
  out->file = r.str();
  out->line = r.i32();
  return r.ok();
}

/// Serialize a recorded link outcome. Every function is compiled to
/// bytecode first (through the executable's shared ChunkPack, so chunks
/// the VM already produced are reused), making a warm hit fully
/// pre-compiled. Empty string when any node fails to relocate — the
/// caller skips the entry.
std::string encode_link(const execsim::Executable& exe) {
  const minic::LinkedProgram& prog = exe.program;
  const minic::NodeTable nodes = minic::NodeTable::build(prog.tus);

  minic::BinWriter w;
  w.u32(static_cast<std::uint32_t>(prog.tus.size()));

  w.u32(static_cast<std::uint32_t>(prog.functions.size()));
  for (const auto& [name, fn] : prog.functions) {
    const std::int32_t idx = nodes.index_of(fn);
    if (idx < 0) return {};
    w.str(name);
    w.u32(static_cast<std::uint32_t>(idx));
  }

  // Structs and globals are not in the NodeTable (no instruction ever
  // references them); they relocate by (tu index, declaration index).
  w.u32(static_cast<std::uint32_t>(prog.structs.size()));
  for (const auto& [name, sd] : prog.structs) {
    bool found = false;
    for (std::size_t i = 0; i < prog.tus.size() && !found; ++i) {
      const auto& structs = prog.tus[i]->structs;
      for (std::size_t j = 0; j < structs.size(); ++j) {
        if (&structs[j] == sd) {
          w.str(name);
          w.u32(static_cast<std::uint32_t>(i));
          w.u32(static_cast<std::uint32_t>(j));
          found = true;
          break;
        }
      }
    }
    if (!found) return {};
  }

  w.u32(static_cast<std::uint32_t>(prog.globals.size()));
  for (const minic::GlobalVarDecl* gv : prog.globals) {
    bool found = false;
    for (std::size_t i = 0; i < prog.tus.size() && !found; ++i) {
      const auto& globals = prog.tus[i]->globals;
      for (std::size_t j = 0; j < globals.size(); ++j) {
        if (&globals[j] == gv) {
          w.u32(static_cast<std::uint32_t>(i));
          w.u32(static_cast<std::uint32_t>(j));
          found = true;
          break;
        }
      }
    }
    if (!found) return {};
  }

  w.u32(static_cast<std::uint32_t>(prog.functions.size()));
  for (const auto& [name, fn] : prog.functions) {
    const minic::Chunk& chunk =
        exe.chunks->get_or_compile(*fn, prog, *exe.builtins);
    if (!minic::encode_chunk(chunk, nodes, w)) return {};
  }

  // Lambda-body chunks, so a warm hit starts with lambdas pre-compiled
  // too (and the tree-walking engine can reuse them). Bodies the
  // NodeTable does not enumerate (lambdas in global initializers) are
  // skipped, not fatal — they just compile again at runtime.
  std::vector<const minic::Stmt*> lambda_bodies;
  for (const auto& [name, fn] : prog.functions) {
    if (fn->body) collect_lambda_bodies(fn->body.get(), &lambda_bodies);
  }
  std::vector<const minic::Stmt*> kept;
  for (const minic::Stmt* body : lambda_bodies) {
    if (nodes.index_of(body) >= 0) kept.push_back(body);
  }
  w.u32(static_cast<std::uint32_t>(kept.size()));
  for (const minic::Stmt* body : kept) {
    const minic::Chunk& chunk =
        exe.chunks->get_or_compile_lambda(*body, prog, *exe.builtins);
    if (!minic::encode_chunk(chunk, nodes, w)) return {};
  }

  // The executable's diagnostics are the TU diagnostics merged in TU
  // order followed by what link_units itself emitted; only that suffix
  // needs persisting (the prefix reconstructs from the live TUs).
  std::size_t tu_diags = 0;
  for (const auto& tu : prog.tus) tu_diags += tu->diags.all().size();
  const auto& all = exe.diags.all();
  if (all.size() < tu_diags) return {};
  w.u32(static_cast<std::uint32_t>(all.size() - tu_diags));
  for (std::size_t i = tu_diags; i < all.size(); ++i) {
    encode_diag(all[i], w);
  }

  std::string body = w.take();
  minic::BinWriter header;
  header.u32(kLinkMagic);
  header.u32(minic::kObjFormatVersion);
  header.u64(support::stable_hash(
      std::span<const char>(body.data(), body.size())));
  std::string out = header.take();
  out += body;
  return out;
}

/// Rebuild the recorded Executable against the live link inputs. nullopt
/// on any malformed field — the caller's cold-link path.
std::optional<execsim::Executable> decode_link(
    std::string_view bytes,
    const std::vector<std::shared_ptr<TranslationUnit>>& tus,
    const Capabilities& caps) {
  {
    minic::BinReader header(bytes.substr(0, std::min<std::size_t>(
                                                bytes.size(), 16)));
    if (header.u32() != kLinkMagic) return std::nullopt;
    if (header.u32() != minic::kObjFormatVersion) return std::nullopt;
    const std::uint64_t hash = header.u64();
    if (!header.ok()) return std::nullopt;
    const std::string_view body = bytes.substr(16);
    if (hash != support::stable_hash(
                    std::span<const char>(body.data(), body.size()))) {
      return std::nullopt;
    }
  }
  minic::BinReader r(bytes.substr(16));

  if (r.u32() != tus.size()) return std::nullopt;
  const minic::NodeTable nodes = minic::NodeTable::build(tus);

  execsim::Executable exe;
  exe.program.tus = tus;
  exe.program.caps = caps;
  exe.builtins = std::make_shared<minic::BuiltinTable>(
      execsim::make_builtin_table(caps));
  exe.chunks = std::make_shared<minic::ChunkPack>();

  const std::uint32_t nfns = r.u32();
  for (std::uint32_t i = 0; i < nfns && r.ok(); ++i) {
    std::string name = r.str();
    const auto* fn = static_cast<const minic::FunctionDecl*>(
        nodes.at(r.u32(), minic::NodeTable::Kind::Function));
    if (fn == nullptr) return std::nullopt;
    exe.program.functions.emplace(std::move(name), fn);
  }

  const std::uint32_t nstructs = r.u32();
  for (std::uint32_t i = 0; i < nstructs && r.ok(); ++i) {
    std::string name = r.str();
    const std::uint32_t tu_idx = r.u32();
    const std::uint32_t idx = r.u32();
    if (tu_idx >= tus.size() || idx >= tus[tu_idx]->structs.size()) {
      return std::nullopt;
    }
    exe.program.structs.emplace(std::move(name),
                                &tus[tu_idx]->structs[idx]);
  }

  const std::uint32_t nglobals = r.u32();
  for (std::uint32_t i = 0; i < nglobals && r.ok(); ++i) {
    const std::uint32_t tu_idx = r.u32();
    const std::uint32_t idx = r.u32();
    if (tu_idx >= tus.size() || idx >= tus[tu_idx]->globals.size()) {
      return std::nullopt;
    }
    exe.program.globals.push_back(&tus[tu_idx]->globals[idx]);
  }

  const std::uint32_t nchunks = r.u32();
  for (std::uint32_t i = 0; i < nchunks && r.ok(); ++i) {
    minic::Chunk chunk;
    if (!minic::decode_chunk(r, nodes, *exe.builtins, &chunk) ||
        chunk.fn == nullptr) {
      return std::nullopt;
    }
    const minic::FunctionDecl* fn = chunk.fn;
    exe.chunks->put(fn, std::make_shared<const minic::Chunk>(
                            std::move(chunk)));
  }

  const std::uint32_t nlambdas = r.u32();
  for (std::uint32_t i = 0; i < nlambdas && r.ok(); ++i) {
    minic::Chunk chunk;
    if (!minic::decode_chunk(r, nodes, *exe.builtins, &chunk) ||
        chunk.lambda_body == nullptr) {
      return std::nullopt;
    }
    const minic::Stmt* body = chunk.lambda_body;
    exe.chunks->put_lambda(body, std::make_shared<const minic::Chunk>(
                                     std::move(chunk)));
  }

  for (const auto& tu : tus) exe.diags.merge(tu->diags);
  const std::uint32_t ndiags = r.u32();
  for (std::uint32_t i = 0; i < ndiags && r.ok(); ++i) {
    Diag d;
    if (!decode_diag(r, &d)) return std::nullopt;
    exe.diags.add(std::move(d));
  }

  if (!r.ok() || !r.at_end()) return std::nullopt;
  return exe;
}

}  // namespace

struct LinkCache::Codec {
  static constexpr const char* kStream = LinkCache::kStream;

  /// A replayed payload forwards verbatim; a live link serializes here.
  static std::optional<Json> encode(std::uint64_t key, const Link& link) {
    const std::string payload =
        link.payload.empty() && link.exe.has_value() ? encode_link(*link.exe)
                                                     : link.payload;
    if (payload.empty()) return std::nullopt;
    Json j = Json::object();
    j.set("key", support::u64_to_hex(key));
    j.set("payload", support::base64_encode(payload));
    return j;
  }

  static bool decode(const Json& j, std::uint64_t* key, Link* out) {
    return support::u64_from_hex(j["key"].as_string(), key) &&
           j["payload"].is_string() &&
           support::base64_decode(j["payload"].as_string(), &out->payload);
  }
};

std::uint64_t LinkCache::link_key(const std::vector<std::uint64_t>& tu_keys,
                                  const Capabilities& caps) {
  std::uint64_t h =
      support::stable_hash(std::string("pareval-link-key-v1"));
  h = fold(h, caps_bits(caps));
  h = fold(h, tu_keys.size());
  for (const std::uint64_t k : tu_keys) h = fold(h, k);
  return h;
}

std::optional<execsim::Executable> LinkCache::lookup(
    std::uint64_t key,
    const std::vector<std::shared_ptr<TranslationUnit>>& tus,
    const Capabilities& caps) {
  std::optional<execsim::Executable> live;
  std::string payload;
  const bool found = links_.find(key, [&](const Link& link) {
    if (link.exe.has_value()) {
      live = link.exe;
    } else {
      payload = link.payload;
    }
  });
  if (live.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return live;
  }

  // Decode outside the lock (chunk decoding is the expensive part).
  auto exe = payload.empty() ? std::nullopt
                             : decode_link(payload, tus, caps);
  if (found) {
    links_.find(
        key,
        [&exe](Link& link) {
          if (link.exe.has_value()) return;
          if (exe.has_value()) {
            link.exe = *exe;  // upgrade: later lookups are in-memory hits
          } else {
            // Corrupt/stale payload: drop it so later lookups miss cheaply.
            link.payload.clear();
          }
        },
        /*touch=*/false);
  }
  if (!exe.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  persisted_hits_.fetch_add(1, std::memory_order_relaxed);
  return exe;
}

void LinkCache::record(std::uint64_t key, const execsim::Executable& exe) {
  if (!exe.ok()) return;  // failed links re-run through the real linker
  // Links are pure: the first recorded copy wins.
  links_.insert(key, Link{exe, {}}, [&exe](Link& link) {
    if (!link.exe.has_value()) link.exe = exe;
  });
}

void LinkCache::clear() {
  links_.clear();
  hits_.store(0);
  persisted_hits_.store(0);
  misses_.store(0);
}

bool LinkCache::attach(cache::Store& store, std::uint64_t version) {
  return links_.attach(store, minic::obj_stream_version(version));
}

bool LinkCache::import_store(cache::Store& store, std::uint64_t version) {
  return links_.import_store(store, minic::obj_stream_version(version));
}

std::size_t LinkCache::flush() { return links_.flush(); }

Json LinkCache::stats() const {
  Json j = Json::object();
  j.set("hits", static_cast<long long>(hits()));
  j.set("persisted_hits", static_cast<long long>(persisted_hits()));
  j.set("misses", static_cast<long long>(misses()));
  j.set("lookups", static_cast<long long>(lookups()));
  j.set("entries", static_cast<long long>(size()));
  return j;
}

}  // namespace pareval::buildsim
