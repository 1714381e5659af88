#include "buildsim/tucache.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "execsim/driver.hpp"
#include "minic/objcodec.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pareval::buildsim {

using minic::Capabilities;
using minic::Diag;
using minic::DiagBag;
using minic::Severity;
using minic::TranslationUnit;
using support::Json;

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return support::SplitMix64(h ^ v).next();
}

long long caps_to_bits(const Capabilities& caps) {
  return (caps.cuda ? 1 : 0) | (caps.openmp ? 2 : 0) |
         (caps.offload ? 4 : 0) | (caps.kokkos ? 8 : 0) |
         (caps.curand ? 16 : 0);
}

Capabilities caps_from_bits(long long bits) {
  Capabilities caps;
  caps.cuda = (bits & 1) != 0;
  caps.openmp = (bits & 2) != 0;
  caps.offload = (bits & 4) != 0;
  caps.kokkos = (bits & 8) != 0;
  caps.curand = (bits & 16) != 0;
  return caps;
}

Json diags_to_json(const DiagBag& bag) {
  Json arr = Json::array();
  for (const Diag& d : bag.all()) {
    Json j = Json::object();
    j.set("category", minic::diag_category_key(d.category));
    j.set("severity", d.severity == Severity::Error ? "error" : "warning");
    j.set("message", d.message);
    if (!d.file.empty()) j.set("file", d.file);
    if (d.line != 0) j.set("line", d.line);
    arr.push_back(std::move(j));
  }
  return arr;
}

bool diags_from_json(const Json& arr, DiagBag* out) {
  if (!arr.is_array()) return false;
  for (const Json& j : arr.items()) {
    Diag d;
    if (!j.is_object() ||
        !minic::diag_category_from_key(j["category"].as_string(),
                                       &d.category)) {
      return false;
    }
    const std::string& sev = j["severity"].as_string();
    if (sev == "error") {
      d.severity = Severity::Error;
    } else if (sev == "warning") {
      d.severity = Severity::Warning;
    } else {
      return false;
    }
    if (!j["message"].is_string()) return false;
    d.message = j["message"].as_string();
    d.file = j["file"].as_string();
    d.line = static_cast<int>(j["line"].as_int());
    out->add(std::move(d));
  }
  return true;
}

}  // namespace

std::uint64_t repo_content_hash(const vfs::Repo& repo) {
  // Fold each file's (path, content) hash pair through SplitMix64 so that
  // "ab"+"c" vs "a"+"bc" and file-boundary shuffles cannot collide
  // structurally. (64-bit accidental collisions are ~1e-13 at 1e6 repos.)
  // The exact algorithm is pinned by the golden scoring-pipeline-hash test
  // (eval::repo_content_hash forwards here).
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi, for an asymmetric start
  // Each file's content hash was taken once, when the file was written.
  repo.for_each_file([&](const std::string& path, const std::string&) {
    h = fold(h, support::stable_hash(path));
    h = fold(h, repo.content_hash(path));
  });
  return h;
}

std::uint64_t tu_primary_key(const std::string& source,
                             std::uint64_t source_hash,
                             const Capabilities& caps,
                             const TuDefines& defines,
                             std::string_view toolchain_id) {
  std::uint64_t h = support::stable_hash(std::string("pareval-tu-key-v1"));
  h = fold(h, support::stable_hash(source));
  h = fold(h, source_hash);
  h = fold(h, static_cast<std::uint64_t>(caps_to_bits(caps)));
  // Length-delimit the define list so (A,B)+(C) cannot alias (A)+(B,C).
  h = fold(h, static_cast<std::uint64_t>(defines.size()));
  for (const auto& [name, value] : defines) {
    h = fold(h, support::stable_hash(name));
    h = fold(h, support::stable_hash(value));
  }
  h = fold(h, support::stable_hash(
                  std::span<const char>(toolchain_id.data(),
                                        toolchain_id.size())));
  return h;
}

std::uint64_t build_plan_key(const vfs::Repo& repo,
                             const std::string& make_target) {
  std::uint64_t h =
      fold(support::stable_hash(std::string("pareval-tu-plan-v1")),
           repo_content_hash(repo));
  return fold(h, support::stable_hash(make_target));
}

// --- Impl -------------------------------------------------------------------

struct TuCompileCache::Impl {
  static constexpr std::size_t kShards = 16;

  struct Dep {
    std::string path;
    std::uint64_t hash = 0;

    bool operator==(const Dep&) const = default;
  };

  /// The repo input set one cached compile depends on. Immutable once
  /// built and shared by pointer, so lookups can snapshot candidates
  /// under the shard lock and validate them (content hashing) outside it.
  struct Manifest {
    std::vector<Dep> deps;             // resolved repo files, include order
    std::vector<std::string> missing;  // probed-but-absent repo paths

    bool operator==(const Manifest&) const = default;
  };

  struct Entry {
    std::shared_ptr<const Manifest> manifest;
    /// The live value. nullptr for an outcome-only entry replayed from a
    /// store: its diags/system_headers below are the payload, and
    /// a failed one reconstructs a TU on demand (a successful one cannot —
    /// the AST is not persisted — so its compile re-runs and upgrades it).
    std::shared_ptr<TranslationUnit> tu;
    bool ok = true;
    DiagBag diags;
    std::vector<std::string> system_headers;
    /// Serialized post-sema TU (minic::encode_tu) for a successful
    /// compile — empty until flush() encodes the live TU, or filled by
    /// replaying an "obj1" record.
    std::string obj;
    std::uint64_t last_used = 0;
    bool published = false;  // already in the attached store's journal
    bool obj_published = false;  // obj payload already in the "obj1" stream
  };

  /// Names one entry across a flush: its key, its manifest's serialized
  /// identity (the order entries sharing a key are appended in), and the
  /// manifest itself, by which the entry is found again to be marked.
  struct EntryRef {
    std::uint64_t key = 0;
    std::string order;
    const Manifest* manifest = nullptr;

    bool operator<(const EntryRef& o) const {
      return key != o.key ? key < o.key : order < o.order;
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Entry>> groups;
    std::size_t count = 0;  // entries across all groups
  };

  struct Plan {
    bool ok = false;
    std::string build_system;
    Capabilities caps;
    std::string log;
    DiagBag diags;
    std::vector<std::uint64_t> tus;  // compile-plan digest, command order
  };

  /// The "tuplan" record codec.
  struct PlanCodec {
    static constexpr const char* kStream = kPlanStream;

    static std::optional<Json> encode(std::uint64_t key, const Plan& plan) {
      Json j = Json::object();
      j.set("key", support::u64_to_hex(key));
      j.set("ok", plan.ok);
      j.set("build_system", plan.build_system);
      j.set("caps", caps_to_bits(plan.caps));
      j.set("log", plan.log);
      Json keys = Json::array();
      for (const std::uint64_t k : plan.tus) {
        keys.push_back(support::u64_to_hex(k));
      }
      j.set("tus", std::move(keys));
      j.set("diags", diags_to_json(plan.diags));
      return j;
    }

    static bool decode(const Json& j, std::uint64_t* key, Plan* out) {
      if (!support::u64_from_hex(j["key"].as_string(), key)) return false;
      if (!j["ok"].is_bool() || !j["build_system"].is_string() ||
          !j["caps"].is_number() || !j["log"].is_string()) {
        return false;
      }
      out->ok = j["ok"].as_bool();
      out->build_system = j["build_system"].as_string();
      out->caps = caps_from_bits(j["caps"].as_int());
      out->log = j["log"].as_string();
      for (const Json& k : j["tus"].items()) {
        std::uint64_t tu_key = 0;
        if (!support::u64_from_hex(k.as_string(), &tu_key)) return false;
        out->tus.push_back(tu_key);
      }
      return diags_from_json(j["diags"], &out->diags);
    }
  };

  std::size_t shard_capacity() const noexcept {
    const std::size_t cap = capacity.load(std::memory_order_relaxed);
    return std::max<std::size_t>(1, cap / kShards);
  }

  std::uint64_t tick() noexcept {
    return clock.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Does `manifest` describe this repo's exact input set? Runs OUTSIDE
  /// the shard lock (manifests are immutable and pointer-shared); each
  /// dependency's content hash is the one its blob carries.
  static bool manifest_valid(const vfs::Repo& repo,
                             const Manifest& manifest) {
    for (const Dep& dep : manifest.deps) {
      if (!repo.exists(dep.path) || repo.content_hash(dep.path) != dep.hash) {
        return false;
      }
    }
    for (const std::string& path : manifest.missing) {
      if (repo.exists(path)) return false;
    }
    return true;
  }

  /// Exactly the `order` string entry_json emits — the manifest's
  /// serialized identity (and sort tiebreaker for entries sharing a key).
  static std::string manifest_order(const Manifest& manifest) {
    std::string order;
    for (const Dep& dep : manifest.deps) {
      order += dep.path + "\x01" + support::u64_to_hex(dep.hash) + "\x01";
    }
    for (const std::string& m : manifest.missing) order += "\x02" + m;
    return order;
  }

  /// The manifest's identity hash in the persisted format, so "obj1"
  /// records can name the (key, manifest) entry their payload extends
  /// without repeating the dependency list.
  static std::uint64_t manifest_digest(const Manifest& manifest) {
    return support::stable_hash(manifest_order(manifest));
  }

  /// The TU layer's "tu" record codec.
  static Json entry_json(std::uint64_t key, const Entry& entry) {
    Json j = Json::object();
    j.set("key", support::u64_to_hex(key));
    const bool ok =
        entry.tu != nullptr ? !entry.tu->diags.has_errors() : entry.ok;
    j.set("ok", ok);
    Json deps = Json::array();
    for (const Dep& dep : entry.manifest->deps) {
      Json d = Json::object();
      d.set("path", dep.path);
      d.set("hash", support::u64_to_hex(dep.hash));
      deps.push_back(std::move(d));
    }
    j.set("deps", std::move(deps));
    Json missing = Json::array();
    for (const std::string& m : entry.manifest->missing) missing.push_back(m);
    j.set("missing", std::move(missing));
    Json headers = Json::array();
    const auto& system_headers = entry.tu != nullptr
                                     ? entry.tu->system_headers
                                     : entry.system_headers;
    for (const std::string& h : system_headers) headers.push_back(h);
    j.set("system_headers", std::move(headers));
    j.set("diags", diags_to_json(entry.tu != nullptr ? entry.tu->diags
                                                     : entry.diags));
    return j;
  }

  /// Parse one TU record into an outcome-only entry (tu == nullptr).
  /// false on any malformed field: the record is skipped whole.
  static bool parse_entry(const Json& j, std::uint64_t* key, Entry* out) {
    if (!support::u64_from_hex(j["key"].as_string(), key)) return false;
    if (!j["ok"].is_bool()) return false;
    Entry entry;
    entry.ok = j["ok"].as_bool();
    auto manifest = std::make_shared<Manifest>();
    for (const Json& d : j["deps"].items()) {
      std::uint64_t hash = 0;
      if (!d["path"].is_string() ||
          !support::u64_from_hex(d["hash"].as_string(), &hash)) {
        return false;
      }
      manifest->deps.push_back({d["path"].as_string(), hash});
    }
    for (const Json& m : j["missing"].items()) {
      if (!m.is_string()) return false;
      manifest->missing.push_back(m.as_string());
    }
    for (const Json& h : j["system_headers"].items()) {
      if (!h.is_string()) return false;
      entry.system_headers.push_back(h.as_string());
    }
    if (!diags_from_json(j["diags"], &entry.diags)) return false;
    entry.manifest = std::move(manifest);
    *out = std::move(entry);
    return true;
  }

  /// Insert a deserialized outcome-only entry; an entry already present
  /// for the same (key, manifest) wins — compiles are pure, so it holds
  /// the same outcome (and possibly a live TU).
  void insert_loaded_entry(std::uint64_t key, Entry entry, bool published) {
    entry.published = published;
    entry.last_used = tick();
    Shard& shard = shards[key % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto& group = shard.groups[key];
    for (const Entry& existing : group) {
      if (*existing.manifest == *entry.manifest) return;
    }
    group.push_back(std::move(entry));
    ++shard.count;
    evict_locked(shard, shard_capacity());
  }

  static void evict_locked(Shard& shard, std::size_t bound) {
    while (shard.count > bound) {
      auto victim_group = shard.groups.end();
      std::size_t victim_index = 0;
      for (auto it = shard.groups.begin(); it != shard.groups.end(); ++it) {
        for (std::size_t i = 0; i < it->second.size(); ++i) {
          if (victim_group == shard.groups.end() ||
              it->second[i].last_used <
                  victim_group->second[victim_index].last_used) {
            victim_group = it;
            victim_index = i;
          }
        }
      }
      if (victim_group == shard.groups.end()) return;
      victim_group->second.erase(victim_group->second.begin() +
                                 static_cast<std::ptrdiff_t>(victim_index));
      if (victim_group->second.empty()) shard.groups.erase(victim_group);
      --shard.count;
    }
  }

  /// Replay the "tu" stream, then the "obj1" stream whose records attach
  /// warm objects to its entries. Each object record names its entry by
  /// (key, manifest digest); the payload stays serialized until the entry
  /// actually hits — validation against the repo happens through the
  /// manifest exactly as before, and decode failures degrade to a
  /// recompile.
  bool replay_entries(cache::Store& store, std::uint64_t version,
                      bool published) {
    const bool tu_ok = store.replay(kTuStream, version, [&](const Json& j) {
      std::uint64_t key = 0;
      Entry entry;
      if (parse_entry(j, &key, &entry)) {
        insert_loaded_entry(key, std::move(entry), published);
      }
    });
    const bool obj_ok = store.replay(
        kObjStream, minic::obj_stream_version(version), [&](const Json& j) {
          std::uint64_t key = 0;
          std::uint64_t digest = 0;
          std::string payload;
          if (!support::u64_from_hex(j["key"].as_string(), &key) ||
              !support::u64_from_hex(j["mf"].as_string(), &digest) ||
              !j["payload"].is_string() ||
              !support::base64_decode(j["payload"].as_string(), &payload)) {
            return;
          }
          Shard& shard = shards[key % kShards];
          std::lock_guard<std::mutex> lock(shard.mu);
          const auto git = shard.groups.find(key);
          if (git == shard.groups.end()) return;
          for (Entry& entry : git->second) {
            if (manifest_digest(*entry.manifest) != digest) continue;
            entry.obj = std::move(payload);  // journal replay: last wins
            entry.obj_published = published;
            break;
          }
        });
    return tu_ok && obj_ok;
  }

  /// Set `flag` (published or obj_published) on the entry `ref` names, if
  /// it is still cached.
  void mark(const EntryRef& ref, bool Entry::*flag) {
    Shard& shard = shards[ref.key % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto git = shard.groups.find(ref.key);
    if (git == shard.groups.end()) return;
    for (Entry& entry : git->second) {
      if (entry.manifest.get() == ref.manifest) {
        entry.*flag = true;
        return;
      }
    }
  }

  /// Publish the TU outcomes the bound store has not seen to "tu", and
  /// the warm objects it has not seen to "obj1": compiled live here, or
  /// replayed from another store via import_store (their payload forwards
  /// verbatim). Objects serialize outside the shard locks — TUs are
  /// immutable after sema.
  std::size_t flush_entries(cache::Store& store, std::uint64_t version) {
    struct Obj {
      std::string payload;                        // pre-serialized, if any
      std::shared_ptr<const TranslationUnit> tu;  // encode this otherwise
    };
    std::vector<std::pair<EntryRef, Json>> outcomes;
    std::vector<std::pair<EntryRef, Obj>> objs;
    for (Shard& shard : shards) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [key, group] : shard.groups) {
        for (const Entry& entry : group) {
          const bool live_ok =
              entry.tu != nullptr && !entry.tu->diags.has_errors();
          const bool obj_pending =
              !entry.obj_published && (!entry.obj.empty() || live_ok);
          if (entry.published && !obj_pending) continue;
          EntryRef ref{key, manifest_order(*entry.manifest),
                       entry.manifest.get()};
          if (!entry.published) {
            outcomes.emplace_back(ref, entry_json(key, entry));
          }
          if (obj_pending) {
            objs.emplace_back(std::move(ref),
                              Obj{entry.obj, entry.obj.empty() ? entry.tu
                                                               : nullptr});
          }
        }
      }
    }
    const std::size_t n = cache::publish(
        store, kTuStream, version, std::move(outcomes),
        [](const EntryRef&, Json& j) {
          return std::optional<Json>(std::move(j));
        },
        [this](const EntryRef& ref) { mark(ref, &Entry::published); });
    return n + cache::publish(
                   store, kObjStream, minic::obj_stream_version(version),
                   std::move(objs),
                   [](const EntryRef& ref, Obj& obj) {
                     if (obj.payload.empty()) {
                       obj.payload = minic::encode_tu(*obj.tu);
                     }
                     Json j = Json::object();
                     j.set("key", support::u64_to_hex(ref.key));
                     j.set("mf", support::u64_to_hex(
                                     support::stable_hash(ref.order)));
                     j.set("payload", support::base64_encode(obj.payload));
                     return std::optional<Json>(std::move(j));
                   },
                   [this](const EntryRef& ref) {
                     mark(ref, &Entry::obj_published);
                   });
  }

  std::array<Shard, kShards> shards;
  /// Whole-build plans: one lock, bounded like the TU entries.
  cache::Layer<Plan, 1, PlanCodec> plans{1 << 14};
  /// The store the TU and object streams are bound to.
  cache::Binding binding;
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> persisted_hits{0};
  std::atomic<std::size_t> obj_hits{0};
  std::atomic<std::size_t> misses{0};
  std::atomic<std::size_t> plan_hits{0};
  std::atomic<bool> object_layer{true};
  std::atomic<std::uint64_t> clock{0};
  std::atomic<std::size_t> capacity{1 << 14};
};

TuCompileCache::TuCompileCache() : impl_(new Impl) {}
TuCompileCache::~TuCompileCache() = default;

std::shared_ptr<TranslationUnit> TuCompileCache::compile(
    const vfs::Repo& repo, const std::string& source,
    const Capabilities& caps, const TuDefines& defines,
    std::string_view toolchain_id, std::uint64_t* key_out,
    std::uint64_t* obj_key_out) {
  if (!repo.exists(source)) {
    // The builder checks existence before compiling; keep the degenerate
    // path uncached rather than keying on an absent file.
    if (key_out != nullptr) *key_out = 0;
    if (obj_key_out != nullptr) *obj_key_out = 0;
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return execsim::compile_tu(repo, source, caps, defines);
  }
  const std::uint64_t key =
      tu_primary_key(source, repo.content_hash(source), caps, defines,
                     toolchain_id);
  if (key_out != nullptr) *key_out = key;
  Impl::Shard& shard = impl_->shards[key % Impl::kShards];

  // Phase 1: snapshot the candidate manifests under the lock (cheap
  // pointer copies — manifests are immutable and shared).
  std::vector<std::shared_ptr<const Impl::Manifest>> candidates;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto git = shard.groups.find(key);
    if (git != shard.groups.end()) {
      candidates.reserve(git->second.size());
      for (const Impl::Entry& entry : git->second) {
        candidates.push_back(entry.manifest);
      }
    }
  }

  // Phase 2: validate outside the lock, so lookups of concurrent builds
  // do not serialize behind a shard mutex.
  std::shared_ptr<const Impl::Manifest> valid;
  for (const auto& manifest : candidates) {
    if (Impl::manifest_valid(repo, *manifest)) {
      valid = manifest;
      break;
    }
  }

  // Phase 3: resolve the validated entry (it may have been evicted while
  // unlocked — then it is simply a miss).
  if (valid != nullptr) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto git = shard.groups.find(key);
    Impl::Entry* entry = nullptr;
    if (git != shard.groups.end()) {
      for (Impl::Entry& e : git->second) {
        if (e.manifest == valid) {
          entry = &e;
          break;
        }
      }
    }
    if (entry != nullptr) {
      if (obj_key_out != nullptr) {
        *obj_key_out = fold(key, Impl::manifest_digest(*entry->manifest));
      }
      if (entry->tu != nullptr) {
        entry->last_used = impl_->tick();
        impl_->hits.fetch_add(1, std::memory_order_relaxed);
        return entry->tu;
      }
      if (!entry->ok) {
        // A persisted *failed* compile: the build stops on its
        // diagnostics before ever linking, so a TU carrying exactly the
        // persisted diagnostics is bit-identical downstream — no
        // recompile needed.
        auto tu = std::make_shared<TranslationUnit>();
        tu->path = source;
        tu->diags = entry->diags;
        tu->system_headers = entry->system_headers;
        tu->resolved_files.reserve(entry->manifest->deps.size());
        for (const Impl::Dep& dep : entry->manifest->deps) {
          tu->resolved_files.push_back(dep.path);
        }
        tu->missing_probes = entry->manifest->missing;
        entry->tu = tu;  // upgrade: later lookups are plain hits
        entry->last_used = impl_->tick();
        impl_->persisted_hits.fetch_add(1, std::memory_order_relaxed);
        return tu;
      }
      // A persisted *successful* compile: deserialize its warm object if
      // the store replayed one — the decoded TU is the full post-sema
      // AST, so nothing re-runs. A corrupt, truncated, or version-bumped
      // payload decodes to nullptr and falls through to a plain
      // recompile (which upgrades the entry in place), as does an entry
      // persisted before the object layer existed.
      if (impl_->object_layer.load(std::memory_order_relaxed) &&
          !entry->obj.empty()) {
        if (auto tu = minic::decode_tu(entry->obj)) {
          entry->tu = tu;
          entry->last_used = impl_->tick();
          impl_->persisted_hits.fetch_add(1, std::memory_order_relaxed);
          impl_->obj_hits.fetch_add(1, std::memory_order_relaxed);
          return tu;
        }
      }
    }
  }

  // Compile outside the lock: two threads racing on one key just perform
  // the same pure compile twice; the second insert below collapses them.
  auto tu = execsim::compile_tu(repo, source, caps, defines);
  impl_->misses.fetch_add(1, std::memory_order_relaxed);

  auto manifest = std::make_shared<Impl::Manifest>();
  manifest->deps.reserve(tu->resolved_files.size());
  for (const std::string& path : tu->resolved_files) {
    // Every resolved file was just read by the preprocessor, so it exists.
    manifest->deps.push_back({path, repo.content_hash(path)});
  }
  manifest->missing = tu->missing_probes;
  if (obj_key_out != nullptr) {
    *obj_key_out = fold(key, Impl::manifest_digest(*manifest));
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  auto& group = shard.groups[key];
  for (Impl::Entry& existing : group) {
    if (*existing.manifest == *manifest) {
      // Same manifest (racing compile, or the upgrade of an outcome-only
      // entry): install the live TU, keep the entry's published flag — a
      // replayed entry's outcome is already in the store.
      existing.tu = tu;
      existing.last_used = impl_->tick();
      return tu;
    }
  }
  Impl::Entry entry;
  entry.manifest = std::move(manifest);
  entry.tu = tu;
  entry.last_used = impl_->tick();
  group.push_back(std::move(entry));
  ++shard.count;
  Impl::evict_locked(shard, impl_->shard_capacity());
  return tu;
}

bool TuCompileCache::lookup_failed_plan(std::uint64_t plan_key,
                                        BuildResult* out) {
  bool failed = false;
  impl_->plans.find(plan_key, [&](const Impl::Plan& plan) {
    if (plan.ok) return;  // live executable required: rebuild
    BuildResult result;
    result.ok = false;
    result.diags = plan.diags;
    result.log = plan.log;
    result.caps = plan.caps;
    result.build_system = plan.build_system;
    *out = std::move(result);
    failed = true;
  });
  if (failed) impl_->plan_hits.fetch_add(1, std::memory_order_relaxed);
  return failed;
}

void TuCompileCache::record_plan(std::uint64_t plan_key,
                                 const BuildResult& result,
                                 std::vector<std::uint64_t> tu_keys) {
  if (!result.ok && result.exe.has_value()) {
    // A multi-target build can fail *after* linking an earlier target's
    // executable. Reconstructing it from a plan would drop that live
    // executable and break build_repo's cold/warm bit-identity, so such
    // builds are never recorded — they just rebuild (their TU compiles
    // still dedupe).
    return;
  }
  // Builds are pure: a re-recorded plan is identical, so an existing
  // entry (and its published flag) is kept and just refreshed.
  impl_->plans.insert(plan_key,
                      Impl::Plan{result.ok, result.build_system, result.caps,
                                 result.log, result.diags,
                                 std::move(tu_keys)});
}

std::size_t TuCompileCache::hits() const noexcept {
  return impl_->hits.load();
}
std::size_t TuCompileCache::persisted_hits() const noexcept {
  return impl_->persisted_hits.load();
}
std::size_t TuCompileCache::obj_hits() const noexcept {
  return impl_->obj_hits.load();
}
std::size_t TuCompileCache::misses() const noexcept {
  return impl_->misses.load();
}
std::size_t TuCompileCache::lookups() const noexcept {
  return hits() + persisted_hits() + misses();
}
std::size_t TuCompileCache::plan_hits() const noexcept {
  return impl_->plan_hits.load();
}

std::size_t TuCompileCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.count;
  }
  return n;
}

std::size_t TuCompileCache::plan_count() const {
  return impl_->plans.size();
}

void TuCompileCache::clear() {
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.groups.clear();
    shard.count = 0;
  }
  impl_->plans.clear();
  impl_->hits.store(0);
  impl_->persisted_hits.store(0);
  impl_->obj_hits.store(0);
  impl_->misses.store(0);
  impl_->plan_hits.store(0);
}

void TuCompileCache::set_capacity(std::size_t max_entries) {
  impl_->capacity.store(std::max(max_entries, Impl::kShards),
                        std::memory_order_relaxed);
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    Impl::evict_locked(shard, impl_->shard_capacity());
  }
  impl_->plans.set_capacity(std::max(max_entries, Impl::kShards));
}

void TuCompileCache::set_object_layer(bool on) noexcept {
  impl_->object_layer.store(on, std::memory_order_relaxed);
}
bool TuCompileCache::object_layer() const noexcept {
  return impl_->object_layer.load(std::memory_order_relaxed);
}

// --- persistence ------------------------------------------------------------

bool TuCompileCache::attach(cache::Store& store, std::uint64_t version) {
  const bool entries = impl_->binding.attach(store, version, [&] {
    return impl_->replay_entries(store, version, /*published=*/true);
  });
  const bool plans = impl_->plans.attach(store, version);
  return entries && plans;
}

bool TuCompileCache::import_store(cache::Store& store,
                                  std::uint64_t version) {
  const bool entries =
      impl_->replay_entries(store, version, /*published=*/false);
  const bool plans = impl_->plans.import_store(store, version);
  return entries && plans;
}

std::size_t TuCompileCache::flush() {
  cache::Store* store = impl_->binding.store();
  if (store == nullptr) return 0;
  return impl_->flush_entries(*store, impl_->binding.version()) +
         impl_->plans.flush();
}

Json TuCompileCache::stats() const {
  Json j = Json::object();
  j.set("hits", static_cast<long long>(hits()));
  j.set("persisted_hits", static_cast<long long>(persisted_hits()));
  j.set("obj_hits", static_cast<long long>(obj_hits()));
  j.set("misses", static_cast<long long>(misses()));
  j.set("lookups", static_cast<long long>(lookups()));
  j.set("plan_hits", static_cast<long long>(plan_hits()));
  j.set("entries", static_cast<long long>(size()));
  j.set("plans", static_cast<long long>(plan_count()));
  return j;
}

}  // namespace pareval::buildsim
