// Batch-level result caching: dedupe identical sizing jobs across a batch,
// across a serve loop's lifetime, and (optionally) across processes via an
// on-disk cache directory.
//
// Key semantics (specified in docs/SERVING.md §Cache semantics): a job is
// identified by
//
//   netlist_hash(logic netlist)  ×  canonical(FlowOptions)
//
// where the canonical form covers every option that can change the flow's
// outcome; `FlowOptions::threads`, which the solver ignores, is left out.
// Any other option field invalidates the key.
//
// A cached entry stores the completed job's report JSON (the
// `lrsizer-batch-v1` job object, served back verbatim so cache hits are
// byte-identical to the original run), the final sparse size vector (the
// serve protocol's "want_sizes" payload) and an EcoIndex. The index is what
// seeds *other* jobs: lookup_eco finds the entry sharing the most output
// cones with a request — the same circuit under new bounds, or an edited
// revision — and eco::seed_from_index turns it into a warm start.
//
// Completed entries are bounded by CacheLimits (LRU eviction over entry
// count and accounted bytes, enforced in memory and — when disk-backed —
// on disk by unlinking evicted entries' files). In-flight owner/follower
// registrations are never evicted.
//
// Thread safety: every public method is safe to call concurrently; follower
// callbacks registered through acquire() run on the thread that calls
// publish()/abandon(), while holding no cache-internal locks.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "runtime/json.hpp"

namespace lrsizer::netlist {
class LogicNetlist;
}

namespace lrsizer::runtime {

/// Canonical JSON form of every outcome-affecting FlowOptions field, in a
/// fixed key order with shortest-round-trip numbers — byte-equal canon means
/// flow-equivalent options. The ignored `threads` field is excluded. A
/// `solver_revision` constant rides along and changes whenever sized outputs
/// change for unchanged options.
Json canonical_options_json(const core::FlowOptions& options);

/// The cache key for (netlist, options):
/// "n<netlist-hash>-e<elab-hash>-o<options-hash>" (16 hex digits each), also
/// a valid portable file stem. Clients hold keys as `eco_base` handles, so
/// the format is stable. O(netlist) hashing; no elaboration runs.
std::string cache_key(const netlist::LogicNetlist& netlist,
                      const core::FlowOptions& options);

/// Per-net solution snapshot for ECO re-sizing (docs/ECO.md). Built from a
/// completed run by eco::build_eco_index; consumed by eco::seed_from_index,
/// which matches a *revised* netlist's gates against `nets` by fanin-cone
/// hash (netlist/cone_hash.hpp) and seeds the clean ones' sizes — plus, when
/// the circuit shape is unchanged, the full multiplier state. Plain data so
/// the cache can store it without depending on the eco layer.
struct EcoIndex {
  struct Net {
    /// Fanin-cone hash of the gate driving the net.
    std::uint64_t cone = 0;
    /// Final sizes of the net's circuit nodes (the gate/driver plus its
    /// routing-tree wires), ascending NodeId.
    std::vector<double> sizes;
  };
  /// Indexed by the base netlist's logic gate index.
  std::vector<Net> nets;
  /// Output-cone fingerprint (netlist::output_cone_hashes) — the cache's
  /// ECO near-miss probe: a revision shares most of these with its base.
  std::vector<std::uint64_t> output_cones;
  /// Best-dual multiplier state of the base run (its OgwsResult::warm; the
  /// dense `sizes` member stays empty), reusable verbatim when the revised
  /// circuit has the same node/edge counts (e.g. op-only edits).
  core::OgwsWarmStart multipliers;
  /// Shape of the base run's elaborated circuit, for that validity check.
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;

  bool empty() const { return nets.empty(); }
};

/// One completed job, as the cache stores and serves it.
struct CachedEntry {
  /// The run's `lrsizer-batch-v1` job object (job_json), verbatim.
  Json job;
  /// Final sizes as sparse (circuit NodeId, size) pairs — the "want_sizes"
  /// payload of a serve result.
  std::vector<std::pair<std::int32_t, double>> sizes;
  /// Optional per-net snapshot for ECO warm-starting; empty when the
  /// producer did not build one.
  EcoIndex eco;
};

/// Budget for completed entries (in-flight owner/follower registrations are
/// never evicted — they hold no completed entry and always run to their
/// publish/abandon). 0 for either knob disables completed-entry storage
/// entirely: every store is rejected (counted as an eviction), lookups
/// miss, but in-flight dedupe keeps working.
struct CacheLimits {
  static constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);
  /// Max completed entries held (memory; mirrored on disk when backed).
  std::size_t max_entries = kUnlimited;
  /// Max Σ accounted entry bytes (key + serialized job JSON + 16 bytes per
  /// size pair + the EcoIndex payload — the dominant cost of an entry on
  /// both memory and disk).
  std::size_t max_bytes = kUnlimited;
};

/// Point-in-time cache counters. `hits` counts exact-key answers only: finding a base that seeds another
/// job is not a hit (the serve loop counts applied seeds itself), and a
/// request that misses its exact key but is seeded still counts one
/// `misses`.
struct CacheStats {
  std::size_t entries = 0;    ///< completed entries currently held
  std::size_t bytes = 0;      ///< Σ accounted bytes of those entries
  std::size_t hits = 0;       ///< exact-key hits
  std::size_t misses = 0;
  std::size_t evictions = 0;  ///< entries removed (or rejected) for budget
  std::size_t corrupt = 0;    ///< disk entries quarantined to <key>.corrupt
};

class ResultCache {
 public:
  /// Memory-only cache. With a non-empty `disk_dir`, completed entries are
  /// additionally persisted as `<disk_dir>/<key>.json` (schema
  /// `lrsizer-cache-v1`, carrying an fnv1a checksum over the payload) and
  /// misses fall back to disk, so the cache survives across processes. The
  /// directory is created on first store. A file that fails to parse, lacks
  /// a checksum or whose checksum does not match is quarantined: renamed to
  /// `<disk_dir>/<key>.corrupt` (outside the eviction namespace, so it
  /// survives for post-mortems), counted in stats().corrupt, and served as a
  /// miss.
  ///
  /// `limits` bounds the completed entries this instance holds, LRU-evicted
  /// (least recently stored/looked-up first). When disk-backed, evicting an
  /// entry also unlinks its file — unlink is atomic, so a crash mid-evict
  /// leaves either the old file or no file, never a torn one — and a
  /// restart therefore sees evicted entries as misses. Reads never delete
  /// files: a disk entry promoted into a full memory cache evicts *other*
  /// entries, and one that does not fit the budget at all is served without
  /// being cached.
  explicit ResultCache(std::string disk_dir = "", CacheLimits limits = {});

  /// Completed-entry lookup (memory first, then disk). nullptr on miss.
  std::shared_ptr<const CachedEntry> lookup(const std::string& key);

  /// Store a completed entry (and persist it when disk-backed). Overwrites.
  void store(const std::string& key, CachedEntry entry);

  /// Seed probe: the completed entry (with a non-empty EcoIndex) sharing
  /// the most output cones with `output_cones`, excluding `exclude_key` (the
  /// request's own exact key, which lookup/acquire already covers). The same
  /// circuit under other options shares every cone; an edited revision
  /// shares most. Memory-resident index only; nullptr when no entry shares a
  /// single cone. On success `*base_key` (if non-null) receives the base
  /// entry's full key. Counts nothing.
  std::shared_ptr<const CachedEntry> lookup_eco(
      const std::vector<std::uint64_t>& output_cones,
      const std::string& exclude_key, std::string* base_key = nullptr);

  /// Exact-key lookup for a client-named ECO base (`eco_base` in the serve
  /// protocol): same search as lookup(), but a success is not an exact hit
  /// — the entry seeds a different job. A miss counts one `misses`.
  std::shared_ptr<const CachedEntry> lookup_eco_base(const std::string& key);

  // ---- in-flight dedupe ----------------------------------------------------

  enum class Acquire {
    kHit,       ///< completed entry returned via *hit
    kOwner,     ///< caller runs the job and must publish() or abandon()
    kFollower,  ///< same key in flight; on_done will be called exactly once
  };

  /// Follower completion callback: the published entry, or nullptr when the
  /// owner abandoned (failed/cancelled) — the follower should run the job
  /// itself (re-acquiring first; it may become the new owner).
  using FollowerFn = std::function<void(std::shared_ptr<const CachedEntry>)>;

  /// Atomically: completed entry → kHit; key in flight → register follower;
  /// otherwise the caller becomes the owner.
  Acquire acquire(const std::string& key, std::shared_ptr<const CachedEntry>* hit,
                  FollowerFn on_done);

  /// Owner completed: store the entry and fire every follower with it.
  void publish(const std::string& key, CachedEntry entry);

  /// Owner failed or was cancelled: fire every follower with nullptr (each
  /// re-runs on its own) and release the key.
  void abandon(const std::string& key);

  // ---- stats ---------------------------------------------------------------

  /// True when a disk directory backs this cache (entries survive restarts).
  bool disk_backed() const { return !disk_dir_.empty(); }

  /// Every counter, read under one lock.
  CacheStats stats() const;

 private:
  /// One completed entry plus its LRU bookkeeping.
  struct Slot {
    std::shared_ptr<const CachedEntry> entry;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< position in lru_
  };

  std::shared_ptr<const CachedEntry> lookup_locked(const std::string& key);
  std::shared_ptr<const CachedEntry> load_from_disk(const std::string& key);
  /// Move a corrupt/torn disk file aside to `<key>.corrupt` and count it.
  /// Caller holds mutex_.
  void quarantine_locked(const std::filesystem::path& path,
                         const std::string& key, const char* reason);
  /// Insert/overwrite a completed entry and evict down to the budget;
  /// returns false when the entry alone exceeds it (nothing stored). Disk
  /// files of evicted entries are appended to *unlink for removal after the
  /// lock is released.
  bool insert_locked(const std::string& key,
                     std::shared_ptr<const CachedEntry> entry,
                     std::vector<std::filesystem::path>* unlink);
  void erase_locked(const std::string& key);
  void touch_locked(Slot& slot);
  void persist(const std::string& key, const CachedEntry& entry);
  void unlink_files(const std::vector<std::filesystem::path>& paths);

  mutable std::mutex mutex_;
  std::string disk_dir_;
  CacheLimits limits_;
  std::unordered_map<std::string, Slot> entries_;
  /// Completed keys, most recently used at the front.
  std::list<std::string> lru_;
  /// output cone hash -> full key of the most recently completed entry whose
  /// EcoIndex fingerprint contains it (the lookup_eco vote table).
  std::unordered_map<std::uint64_t, std::string> po_index_;
  std::unordered_map<std::string, std::vector<FollowerFn>> in_flight_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t corrupt_ = 0;
};

}  // namespace lrsizer::runtime
