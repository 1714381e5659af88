#pragma once
// Content-addressed link cache: the warm-object layer's top tier. A link
// outcome is keyed by the *content* keys of its translation units (primary
// TU key folded with the dependency-manifest digest — see
// TuCompileCache::compile's obj_key_out) plus the build's capability bits,
// so a hit certifies that every input of the original link is
// byte-identical. The hit hands back a ready Executable: the link tables
// (functions/structs/globals) are reconstructed from persisted
// (tu_index, item_index) references into the live TUs — link_units never
// runs — and every function body arrives as a pre-compiled bytecode Chunk
// in the executable's shared ChunkPack, so a fully-warm start performs no
// builds, no TU compiles, no parses, and no links.
//
// The key folds the TU keys in *command order*, not as a sorted set: the
// order of LinkedProgram::globals (and therefore global initialization) is
// the TU order of the link line, so two links of the same TUs in different
// orders are different programs.
//
// Only successful links are recorded — failed links re-run so their
// diagnostics come from the real linker path. Payloads are serialized
// lazily at flush() (magic "PVL1" + format version + content hash; chunk
// bodies via minic's chunk codec) into the journaled store's "lnk1"
// stream, written under minic::obj_stream_version so a codec bump
// cold-starts it together with "obj1".

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "execsim/driver.hpp"
#include "support/cachestore.hpp"
#include "support/json.hpp"

namespace pareval::buildsim {

/// A one-lock, LRU-bounded cache::Layer of link outcomes.
class LinkCache {
 public:
  /// The link key: capability bits + the ordered TU content keys,
  /// length-delimited. Callers must only use it when every TU of the link
  /// carried a nonzero content key.
  static std::uint64_t link_key(const std::vector<std::uint64_t>& tu_keys,
                                const minic::Capabilities& caps);

  /// Warm lookup. `tus` are the link's inputs in command order (already
  /// compiled — the TU layer sits below this one) and `caps` the build's
  /// capability union; both must be the ones folded into `key`. Returns a
  /// ready Executable on a hit: an in-memory hit shares the recorded
  /// program outright, a persisted hit decodes the payload against `tus`
  /// and upgrades the entry. nullopt — including on a corrupt or
  /// version-bumped payload — is a clean miss; the caller links cold.
  std::optional<execsim::Executable> lookup(
      std::uint64_t key,
      const std::vector<std::shared_ptr<minic::TranslationUnit>>& tus,
      const minic::Capabilities& caps);

  /// Record a *successful* fresh link (no-op for executables with
  /// errors). The cache copies the Executable: the copy shares the TUs,
  /// builtin table, and ChunkPack, so chunks the VM compiles while the
  /// program runs are already in the recorded entry when flush()
  /// serializes it.
  void record(std::uint64_t key, const execsim::Executable& exe);

  /// Counters, mirroring the TU layer: hits() in-memory, persisted_hits()
  /// payload decodes, misses() cold links through this cache.
  std::size_t hits() const noexcept { return hits_.load(); }
  std::size_t persisted_hits() const noexcept {
    return persisted_hits_.load();
  }
  std::size_t misses() const noexcept { return misses_.load(); }
  std::size_t lookups() const noexcept {
    return hits() + persisted_hits() + misses();
  }

  std::size_t size() const { return links_.size(); }
  void clear();
  void set_capacity(std::size_t max_entries) {
    links_.set_capacity(max_entries);
  }

  /// Journaled-store stream ("lnk1"), written under
  /// minic::obj_stream_version(version) like the TU layer's "obj1".
  static constexpr const char* kStream = "lnk1";

  /// Bind to a shared store and replay its "lnk1" stream (payloads stay
  /// serialized until a lookup needs them). Same contract as the TU
  /// layer's attach: false iff the stream is absent or stale.
  bool attach(cache::Store& store, std::uint64_t version);
  /// Replay without binding — imported records flush() forward.
  bool import_store(cache::Store& store, std::uint64_t version);
  /// Serialize every recorded link the attached store has not seen (all
  /// function chunks are compiled first, so a warm hit starts fully
  /// compiled) and append them as one locked batch. An entry that cannot
  /// be encoded is skipped, never half-written.
  std::size_t flush();
  /// Pinned-key counters object: hits, persisted_hits, misses, lookups,
  /// entries.
  support::Json stats() const;

 private:
  /// A recorded link: the live outcome (sharing the TUs), or the
  /// serialized payload a replay loaded.
  struct Link {
    std::optional<execsim::Executable> exe;
    std::string payload;
  };
  struct Codec;  // the "lnk1" record codec

  cache::Layer<Link, 1, Codec> links_{1 << 12};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> persisted_hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace pareval::buildsim
