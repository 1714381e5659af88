#pragma once
// cache::Store — one multi-writer persistence API for every cache layer.
//
// A store is a shared cache *directory* of append-only journals, so N
// sweep_worker processes (and sweep_server) can share one warm cache with
// no merge step at all — unlike whole-file rewrite, which is
// last-writer-wins and lets only one publisher own a cache path.
//
// Layout, per typed record stream `<s>` inside the store directory:
//
//   <s>.idx        generation-stamped index: format tag, pipeline version,
//                  current generation G, and the snapshot file name —
//                  published atomically (temp + rename)
//   <s>.<G>.snap   the compacted snapshot of generation G: every record
//                  up to the last compaction, in one framed file
//   <s>.journal    the live tail: records appended since generation G
//   <s>.lock       flock() target serializing appends/compactions among
//                  writers (processes AND threads — see support::FileLock)
//
// Records are single JSON documents framed as
//
//   "PVJ1 " <8-hex payload length> " " <8-hex CRC-32 of payload> "\n"
//   <payload> "\n"
//
// so a reader can always recover from a crashed writer: a torn tail
// record (incomplete header or short payload) is dropped along with
// everything after it, and recovery lands on the snapshot of the last
// good generation plus the intact journal prefix. A complete frame whose
// CRC does not match its payload (bit rot, garbage injection) is skipped
// individually — the length field still delimits it, so later records
// survive. Appends take the stream's file lock and issue one write(), so
// concurrent appenders interleave whole records, never bytes.
//
// Compaction is record-level and codec-free: when the journal exceeds a
// byte threshold, the snapshot and journal are folded into a new snapshot
// (exact byte-duplicate records deduplicated, first occurrence kept, so
// the replayed state is byte-stable), the index is stamped with the next
// generation, and the journal is reset — all under the stream lock, so a
// concurrent appender can never have its records dropped.
//
// Streams are versioned: the index carries the pipeline hash, a replay
// under a different version yields nothing (stale), and an append under a
// different version resets the stream.
//
// The layers sit on top as cache::Layer instances (below), each with its
// own record codec: attach(store) replays a layer's stream into memory and
// flush() appends what it computed since. eval::ScoreCache composes them
// and is the one place that lists which layers persist; this is the only
// way any cache layer persists.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace pareval::cache {

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes` — the record
/// frame checksum.
std::uint32_t crc32(std::string_view bytes);

/// Per-stream observability counters. Replay/append/torn/crc/compaction
/// counts are per-Store-instance (what THIS process observed/did);
/// generation and journal_bytes reflect the shared on-disk state as of
/// the last operation.
struct StreamStats {
  std::uint64_t generation = 0;
  std::size_t records_appended = 0;
  std::size_t records_replayed = 0;
  std::size_t torn_records_dropped = 0;
  std::size_t crc_records_dropped = 0;
  std::size_t compactions = 0;
  std::size_t journal_bytes = 0;
  std::size_t journal_bytes_before_compact = 0;
  std::size_t journal_bytes_after_compact = 0;

  bool operator==(const StreamStats&) const = default;
};

class Store {
 public:
  explicit Store(std::string dir);

  const std::string& dir() const noexcept { return dir_; }

  /// Create the store directory (mkdir -p). Every other operation
  /// assumes it exists; returns false when it cannot be created.
  bool open();

  /// Append one record to `stream` under `version`. Takes the stream
  /// lock, (re)initializes or resets the index as needed, and issues one
  /// framed write. Returns false on I/O failure.
  bool append(const std::string& stream, std::uint64_t version,
              const support::Json& record);

  /// Append many records under ONE lock acquisition and one write() —
  /// what the layers' flush() uses, so a worker's end-of-run publish is
  /// a single atomic batch from any reader's point of view.
  bool append_batch(const std::string& stream, std::uint64_t version,
                    const std::vector<support::Json>& records);

  /// Replay every record of `stream` — snapshot of the current
  /// generation first, then the journal tail — in append order, invoking
  /// `fn` per record. Torn tail records and CRC-rejected frames are
  /// dropped (counted in stats). Returns false when the stream does not
  /// exist or was written under a different `version` (stale: nothing is
  /// yielded), true otherwise.
  bool replay(const std::string& stream, std::uint64_t version,
              const std::function<void(const support::Json&)>& fn);

  /// Fold the journal into a new snapshot (next generation) and reset
  /// the journal. Record-level and codec-free: every intact record
  /// survives (exact byte duplicates collapse to their first
  /// occurrence), so the replayed state is byte-for-byte stable across
  /// compactions. Runs under the stream lock — concurrent appenders
  /// never lose records. Returns false on I/O failure or a version
  /// mismatch (a stale stream is reset by the next append, not here).
  bool compact(const std::string& stream, std::uint64_t version);

  /// compact() iff the journal exceeds the byte threshold. Returns true
  /// when no compaction was needed or it succeeded.
  bool maybe_compact(const std::string& stream, std::uint64_t version);

  /// Journal bytes currently on disk for `stream`.
  std::size_t journal_bytes(const std::string& stream) const;

  /// The compaction threshold maybe_compact applies (default 1 MiB).
  void set_compact_threshold(std::size_t bytes) noexcept {
    compact_threshold_ = bytes;
  }
  std::size_t compact_threshold() const noexcept {
    return compact_threshold_;
  }

  StreamStats stats(const std::string& stream) const;

  /// The stats as a JSON object with a pinned key order (generation,
  /// records_appended, records_replayed, torn_records_dropped,
  /// crc_records_dropped, compactions, journal_bytes,
  /// journal_bytes_before_compact, journal_bytes_after_compact) — the
  /// per-layer journal block CACHE_stats.json embeds.
  support::Json stats_json(const std::string& stream) const;

 private:
  struct Index {
    std::uint64_t generation = 0;
    std::string snapshot;  // file name within dir_; "" for generation 0
  };

  std::string path(const std::string& name) const;
  /// Read `stream`'s index. nullopt: absent/malformed/foreign format or,
  /// when `version` is non-null, a pipeline-version mismatch.
  std::optional<Index> read_index(const std::string& stream,
                                  const std::uint64_t* version) const;
  bool write_index(const std::string& stream, std::uint64_t version,
                   const Index& index) const;
  /// Reset `stream` to an empty generation-0 state under `version`.
  /// Caller holds the stream lock.
  bool reset_stream_locked(const std::string& stream,
                           std::uint64_t version) const;
  /// Scan one framed buffer, invoking `fn` per intact payload.
  void scan_frames(std::string_view buf, bool count_replayed,
                   StreamStats& stats,
                   const std::function<void(std::string_view)>& fn) const;
  bool compact_locked(const std::string& stream, std::uint64_t version,
                      const Index& index);
  StreamStats& stats_locked(const std::string& stream) const;

  std::string dir_;
  std::size_t compact_threshold_ = 1 << 20;
  mutable std::mutex stats_mu_;
  mutable std::map<std::string, StreamStats> stats_;
};

/// One framed record as journal bytes (header + payload + newline) —
/// exposed for tests that need to craft or corrupt frames precisely.
std::string frame_record(std::string_view payload);

/// The store a persisted layer is bound to: where flush() appends, under
/// which version, and what the binding attach answered. Attaching again to
/// the (store, version) already bound replays nothing and returns that
/// first answer, so a caller may attach a layer its enclosing cache has
/// already attached without replaying the stream twice.
class Binding {
 public:
  /// Bind to (store, version); `replay()` runs only on a new binding and
  /// reports whether the stream was warm.
  template <class Replay>
  bool attach(Store& store, std::uint64_t version, Replay&& replay) {
    if (store_ != &store || version_ != version) {
      store_ = &store;
      version_ = version;
      warm_ = replay();
    }
    return warm_;
  }
  Store* store() const noexcept { return store_; }
  std::uint64_t version() const noexcept { return version_; }

 private:
  Store* store_ = nullptr;
  std::uint64_t version_ = 0;
  bool warm_ = false;
};

/// The write half of the store round trip: `pending` pairs each
/// unpublished entry's key with a snapshot of it. They are encoded in key
/// order (`encode(key, snapshot)` returns nullopt for an entry that cannot
/// be encoded: it is skipped, never half-written), appended as one locked
/// batch, marked through `mark(key)`, and the stream is compacted if its
/// journal outgrew the threshold. Key order makes two flushes of the same
/// state write byte-identical batches; an empty batch still seeds the
/// stream under `version`. Returns the records appended.
template <class Key, class Snapshot, class Encode, class Mark>
std::size_t publish(Store& store, const std::string& stream,
                    std::uint64_t version,
                    std::vector<std::pair<Key, Snapshot>> pending,
                    Encode&& encode, Mark&& mark) {
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<support::Json> records;
  std::vector<const Key*> appended;
  records.reserve(pending.size());
  for (auto& [key, snapshot] : pending) {
    std::optional<support::Json> record = encode(key, snapshot);
    if (!record) continue;
    records.push_back(std::move(*record));
    appended.push_back(&key);
  }
  if (!store.append_batch(stream, version, records)) return 0;
  for (const Key* key : appended) mark(*key);
  store.maybe_compact(stream, version);
  return appended.size();
}

/// One cache layer: `Shards` mutex-guarded maps from a 64-bit key to a
/// `Value`, each entry stamped by an LRU clock and carrying a `published`
/// bit (already in the bound store). A shard holds at most
/// capacity/Shards entries and evicts its least-recently-used entry on
/// overflow.
///
/// A persisted layer names its record codec as `Codec`:
///   static constexpr const char* kStream;  // the store stream
///   static std::optional<support::Json> encode(std::uint64_t, const Value&);
///   static bool decode(const support::Json&, std::uint64_t*, Value*);
/// attach() binds and replays the stream (entries published),
/// import_store() replays another store's stream without binding
/// (entries unpublished, so flush() forwards them), and flush() publishes
/// what the bound store has not seen. Replay inserts only absent keys:
/// values are pure, so an entry already here is the same value. A layer
/// that never persists leaves `Codec` void.
template <class Value, std::size_t Shards, class Codec = void>
class Layer {
 public:
  explicit Layer(std::size_t capacity) { set_capacity(capacity); }

  /// Run `fn(value)` on the entry under `key`, under its shard lock,
  /// refreshing its LRU stamp unless `touch` is false. false on a miss.
  template <class Fn>
  bool find(std::uint64_t key, Fn&& fn, bool touch = true) {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return false;
    if (touch) it->second.last_used = tick();
    fn(it->second.value);
    return true;
  }

  /// Insert `value` (unpublished) with a fresh LRU stamp. A present entry
  /// wins — values are pure — and only has its stamp refreshed and
  /// `merge(existing)` applied.
  template <class Merge>
  void insert(std::uint64_t key, Value value, Merge&& merge) {
    const std::uint64_t now = tick();
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] = shard.entries.try_emplace(key);
    it->second.last_used = now;
    if (!inserted) {
      merge(it->second.value);
      return;
    }
    it->second.value = std::move(value);
    evict_locked(shard);
  }
  void insert(std::uint64_t key, Value value) {
    insert(key, std::move(value), [](Value&) {});
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.entries.size();
    }
    return n;
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.entries.clear();
    }
  }

  /// Bound the entry count (at least one entry per shard), evicting
  /// down to the new bound at once.
  void set_capacity(std::size_t max_entries) {
    capacity_.store(std::max(max_entries, Shards), std::memory_order_relaxed);
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      evict_locked(shard);
    }
  }

  /// Bind to `store` and replay the stream (see Binding). false — bound
  /// anyway, nothing loaded — when the stream is absent or was written
  /// under a different `version`.
  bool attach(Store& store, std::uint64_t version) {
    return binding_.attach(store, version, [&] {
      return replay(store, version, /*published=*/true);
    });
  }
  bool import_store(Store& store, std::uint64_t version) {
    return replay(store, version, /*published=*/false);
  }

  /// Append every unpublished entry to the bound store (see publish()).
  /// 0 when unbound.
  std::size_t flush() {
    Store* store = binding_.store();
    if (store == nullptr) return 0;
    std::vector<std::pair<std::uint64_t, Value>> pending;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [key, entry] : shard.entries) {
        if (!entry.published) pending.emplace_back(key, entry.value);
      }
    }
    return publish(
        *store, Codec::kStream, binding_.version(), std::move(pending),
        [](std::uint64_t key, const Value& v) { return Codec::encode(key, v); },
        [this](std::uint64_t key) {
          Shard& shard = shard_of(key);
          std::lock_guard<std::mutex> lock(shard.mu);
          const auto it = shard.entries.find(key);
          if (it != shard.entries.end()) it->second.published = true;
        });
  }

 private:
  struct Entry {
    Value value{};
    std::uint64_t last_used = 0;
    bool published = false;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> entries;
  };

  Shard& shard_of(std::uint64_t key) { return shards_[key % Shards]; }
  std::uint64_t tick() noexcept {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Caller holds the shard lock. The linear victim scan is fine: shard
  /// bounds are small and eviction is rare.
  void evict_locked(Shard& shard) {
    const std::size_t bound = std::max<std::size_t>(
        1, capacity_.load(std::memory_order_relaxed) / Shards);
    while (shard.entries.size() > bound) {
      auto victim = shard.entries.begin();
      for (auto it = std::next(victim); it != shard.entries.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      shard.entries.erase(victim);
    }
  }

  bool replay(Store& store, std::uint64_t version, bool published) {
    return store.replay(
        Codec::kStream, version, [&](const support::Json& record) {
          std::uint64_t key = 0;
          Value value{};
          if (!Codec::decode(record, &key, &value)) return;
          const std::uint64_t now = tick();
          Shard& shard = shard_of(key);
          std::lock_guard<std::mutex> lock(shard.mu);
          const auto [it, inserted] = shard.entries.try_emplace(key);
          if (!inserted) return;
          it->second = Entry{std::move(value), now, published};
          evict_locked(shard);
        });
  }

  std::array<Shard, Shards> shards_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::size_t> capacity_{0};
  Binding binding_;
};

}  // namespace pareval::cache
