#include "runtime/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

#include "fault/fault.hpp"
#include "netlist/hash.hpp"
#include "netlist/logic_netlist.hpp"
#include "util/logging.hpp"

namespace lrsizer::runtime {

namespace {

const char* step_rule_name(core::StepRule rule) {
  switch (rule) {
    case core::StepRule::kSubgradient: return "subgradient";
    case core::StepRule::kMultiplicative: return "multiplicative";
  }
  return "?";
}

const char* load_mode_name(timing::CouplingLoadMode mode) {
  switch (mode) {
    case timing::CouplingLoadMode::kLocalOnly: return "local";
    case timing::CouplingLoadMode::kPropagateUpstream: return "propagate";
  }
  return "?";
}

/// tech + elab: everything that determines the elaborated circuit. Kept as
/// its own object because the key's `e` component hashes it alone.
Json elab_canon(const core::FlowOptions& o) {
  Json j = Json::object();
  Json tech = Json::object();
  tech.set("gate_unit_res", o.tech.gate_unit_res);
  tech.set("gate_unit_cap", o.tech.gate_unit_cap);
  tech.set("wire_res_per_um", o.tech.wire_res_per_um);
  tech.set("wire_cap_per_um", o.tech.wire_cap_per_um);
  tech.set("wire_fringe_per_um", o.tech.wire_fringe_per_um);
  tech.set("supply_voltage", o.tech.supply_voltage);
  tech.set("frequency", o.tech.frequency);
  tech.set("min_size", o.tech.min_size);
  tech.set("max_size", o.tech.max_size);
  tech.set("gate_area_per_size", o.tech.gate_area_per_size);
  tech.set("wire_area_per_size", o.tech.wire_area_per_size);
  tech.set("driver_res", o.tech.driver_res);
  tech.set("output_load", o.tech.output_load);
  j.set("tech", tech);
  Json elab = Json::object();
  // Seeds are 64-bit and Json numbers are doubles: serialize them as
  // strings so seeds above 2^53 cannot collide onto one key.
  elab.set("seed", std::to_string(o.elab.seed));
  elab.set("min_wire_length", o.elab.min_wire_length);
  elab.set("max_wire_length", o.elab.max_wire_length);
  elab.set("max_star_fanout", static_cast<std::int64_t>(o.elab.max_star_fanout));
  elab.set("segments_per_wire",
           static_cast<std::int64_t>(o.elab.segments_per_wire));
  elab.set("driver_res", o.elab.driver_res);
  elab.set("output_load", o.elab.output_load);
  elab.set("differentiate_gate_types", o.elab.differentiate_gate_types);
  j.set("elab", elab);
  return j;
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Revision of the solver behind the sized outputs, a constant and not an
/// option. Bump it whenever sized outputs change under unchanged options:
/// every key moves with it, so an entry an older server persisted under
/// --cache-dir misses once and is re-sized instead of replaying an answer
/// this solver would not give. 1: the step0/k^¼ step and the stop on a dual
/// above the box's maximum area (0.14). 2: the one-sweep LRS (0.16). 3: the
/// step scale that follows the dual (0.17).
constexpr std::int64_t kSolverRevision = 3;

}  // namespace

Json canonical_options_json(const core::FlowOptions& o) {
  Json j = elab_canon(o);
  j.set("solver_revision", kSolverRevision);
  Json sim = Json::object();
  sim.set("vector_period", static_cast<std::int64_t>(o.sim.vector_period));
  sim.set("gate_delay", static_cast<std::int64_t>(o.sim.gate_delay));
  j.set("sim", sim);
  j.set("num_vectors", static_cast<std::int64_t>(o.num_vectors));
  j.set("pattern_seed", std::to_string(o.pattern_seed));
  Json channels = Json::object();
  channels.set("max_channel_width",
               static_cast<std::int64_t>(o.channels.max_channel_width));
  channels.set("seed", std::to_string(o.channels.seed));
  j.set("channels", channels);
  Json neighbors = Json::object();
  neighbors.set("pitch_um", o.neighbors.pitch_um);
  neighbors.set("fringe_per_um", o.neighbors.fringe_per_um);
  neighbors.set("fold_miller", o.neighbors.fold_miller);
  j.set("neighbors", neighbors);
  j.set("use_woss", o.use_woss);
  Json bounds = Json::object();
  bounds.set("delay", o.bound_factors.delay);
  bounds.set("power", o.bound_factors.power);
  bounds.set("noise", o.bound_factors.noise);
  bounds.set("per_net_noise", o.bound_factors.per_net_noise);
  j.set("bound_factors", bounds);
  Json ogws = Json::object();
  ogws.set("max_iterations", static_cast<std::int64_t>(o.ogws.max_iterations));
  ogws.set("gap_tol", o.ogws.gap_tol);
  ogws.set("feas_tol", o.ogws.feas_tol);
  ogws.set("step0", o.ogws.step0);
  ogws.set("step_rule", step_rule_name(o.ogws.step_rule));
  Json lrs = Json::object();
  lrs.set("max_passes", static_cast<std::int64_t>(o.ogws.lrs.max_passes));
  lrs.set("tol", o.ogws.lrs.tol);
  lrs.set("warm_start", o.ogws.lrs.warm_start);
  lrs.set("mode", load_mode_name(o.ogws.lrs.mode));
  ogws.set("lrs", lrs);
  ogws.set("record_history", o.ogws.record_history);
  j.set("ogws", ogws);
  j.set("initial_size", o.initial_size);
  // FlowOptions::threads is ignored by the solver, so it stays out.
  return j;
}

std::string cache_key(const netlist::LogicNetlist& nl,
                      const core::FlowOptions& options) {
  const std::uint64_t nh = netlist::netlist_hash(nl);
  const std::uint64_t eh = netlist::fnv1a(elab_canon(options).dump());
  const std::uint64_t oh = netlist::fnv1a(canonical_options_json(options).dump());
  return "n" + hex16(nh) + "-e" + hex16(eh) + "-o" + hex16(oh);
}

namespace {

/// Accounted size of one completed entry: the key (file stem), the
/// serialized job JSON (the dominant cost in memory and on disk), 16 bytes
/// per sparse size pair and the EcoIndex payload (8 bytes per stored
/// double/hash plus 16 per net for its bookkeeping).
std::size_t entry_bytes(const std::string& key, const CachedEntry& entry) {
  const core::OgwsWarmStart& m = entry.eco.multipliers;
  std::size_t eco =
      8 * (entry.eco.output_cones.size() + m.lambda.size() + m.gamma_net.size());
  for (const EcoIndex::Net& net : entry.eco.nets) eco += 16 + 8 * net.sizes.size();
  return key.size() + entry.job.dump().size() + 16 * entry.sizes.size() + eco;
}

/// The "sizes" array of a persisted entry: [[node, size], ...].
Json sizes_json(const CachedEntry& entry) {
  Json sizes = Json::array();
  for (const auto& [node, size] : entry.sizes) {
    Json pair = Json::array();
    pair.push_back(static_cast<std::int64_t>(node));
    pair.push_back(size);
    sizes.push_back(pair);
  }
  return sizes;
}

/// The "eco" object of a persisted entry. Cone hashes are 64-bit and
/// therefore serialized as 16-hex-digit strings.
Json eco_json(const EcoIndex& index) {
  Json eco = Json::object();
  Json nets = Json::array();
  for (const EcoIndex::Net& net : index.nets) {
    Json item = Json::array();
    item.push_back(hex16(net.cone));
    Json net_sizes = Json::array();
    for (const double s : net.sizes) {
      Json value(s);
      net_sizes.push_back(std::move(value));
    }
    item.push_back(net_sizes);
    nets.push_back(item);
  }
  eco.set("nets", nets);
  Json cones = Json::array();
  for (const std::uint64_t c : index.output_cones) cones.push_back(hex16(c));
  eco.set("output_cones", cones);
  Json lambda = Json::array();
  for (const double v : index.multipliers.lambda) lambda.push_back(v);
  eco.set("lambda", lambda);
  eco.set("beta", index.multipliers.beta);
  eco.set("gamma", index.multipliers.gamma);
  Json gamma_net = Json::array();
  for (const double v : index.multipliers.gamma_net) gamma_net.push_back(v);
  eco.set("gamma_net", gamma_net);
  eco.set("num_nodes", index.num_nodes);
  eco.set("num_edges", index.num_edges);
  return eco;
}

/// Integrity checksum of a persisted entry: fnv1a over the key and the
/// canonical serialization of the payload pieces. Json numbers dump with
/// shortest-round-trip formatting, so rebuilding the pieces from a parsed
/// file reproduces the stored bytes exactly — a load-side recompute matches
/// iff the payload survived the disk intact.
std::string entry_checksum(const std::string& key, const CachedEntry& entry) {
  std::uint64_t h = netlist::fnv1a(key);
  h = netlist::fnv1a("\n", h);
  h = netlist::fnv1a(entry.job.dump(), h);
  h = netlist::fnv1a("\n", h);
  h = netlist::fnv1a(sizes_json(entry).dump(), h);
  if (!entry.eco.empty()) {
    h = netlist::fnv1a("\n", h);
    h = netlist::fnv1a(eco_json(entry.eco).dump(), h);
  }
  return hex16(h);
}

}  // namespace

ResultCache::ResultCache(std::string disk_dir, CacheLimits limits)
    : disk_dir_(std::move(disk_dir)), limits_(limits) {}

void ResultCache::touch_locked(Slot& slot) {
  lru_.splice(lru_.begin(), lru_, slot.lru);
}

void ResultCache::erase_locked(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  for (const std::uint64_t cone : it->second.entry->eco.output_cones) {
    const auto po = po_index_.find(cone);
    if (po != po_index_.end() && po->second == key) po_index_.erase(po);
  }
  entries_.erase(it);
}

bool ResultCache::insert_locked(const std::string& key,
                                std::shared_ptr<const CachedEntry> entry,
                                std::vector<std::filesystem::path>* unlink) {
  const std::size_t bytes = entry_bytes(key, *entry);
  if (limits_.max_entries < 1 || bytes > limits_.max_bytes) {
    // The entry alone busts the budget (including the max-entries=0 "cache
    // disabled" case): reject the store, visibly.
    ++evictions_;
    return false;
  }
  erase_locked(key);  // overwrite: drop the old accounting first
  lru_.push_front(key);
  entries_[key] = Slot{std::move(entry), bytes, lru_.begin()};
  bytes_ += bytes;
  for (const std::uint64_t cone : entries_[key].entry->eco.output_cones) {
    po_index_[cone] = key;
  }
  // Evict least-recently-used completed entries until the budget holds
  // again. The entry just inserted is at the LRU front, so it survives
  // (its own fit was checked above). In-flight keys live in in_flight_,
  // not entries_, and are therefore never evicted.
  while (entries_.size() > limits_.max_entries || bytes_ > limits_.max_bytes) {
    const std::string victim = lru_.back();
    erase_locked(victim);
    ++evictions_;
    if (!disk_dir_.empty() && unlink) {
      unlink->push_back(std::filesystem::path(disk_dir_) / (victim + ".json"));
    }
  }
  return true;
}

void ResultCache::unlink_files(const std::vector<std::filesystem::path>& paths) {
  // Outside the lock: unlink(2) is atomic, so a crash between the in-memory
  // evict and this point leaves at worst a stale-but-whole file, never a
  // torn one. (A racing store of the same key could theoretically re-create
  // a file we are about to unlink; the result is a benign disk miss later.)
  for (const auto& path : paths) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

std::shared_ptr<const CachedEntry> ResultCache::lookup_locked(
    const std::string& key) {
  // Callers hold mutex_.
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    touch_locked(it->second);
    return it->second.entry;
  }
  return load_from_disk(key);
}

std::shared_ptr<const CachedEntry> ResultCache::lookup(const std::string& key) {
  std::shared_ptr<const CachedEntry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entry = lookup_locked(key);
    if (entry) {
      ++hits_;
    } else {
      ++misses_;
    }
  }
  return entry;
}

void ResultCache::store(const std::string& key, CachedEntry entry) {
  auto shared = std::make_shared<const CachedEntry>(std::move(entry));
  std::vector<std::filesystem::path> unlink;
  bool stored = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stored = insert_locked(key, shared, &unlink);
  }
  if (stored) persist(key, *shared);
  unlink_files(unlink);
}

std::shared_ptr<const CachedEntry> ResultCache::lookup_eco(
    const std::vector<std::uint64_t>& output_cones,
    const std::string& exclude_key, std::string* base_key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // One po_index_ probe per output cone; candidates collect votes and the
  // most-shared base wins (smallest key on a tie, for determinism).
  std::unordered_map<std::string, std::size_t> votes;
  for (const std::uint64_t cone : output_cones) {
    const auto it = po_index_.find(cone);
    if (it != po_index_.end() && it->second != exclude_key) ++votes[it->second];
  }
  const std::string* best = nullptr;
  std::size_t best_votes = 0;
  for (const auto& [key, count] : votes) {
    if (count > best_votes || (count == best_votes && best && key < *best)) {
      best = &key;
      best_votes = count;
    }
  }
  if (!best) return nullptr;
  const auto entry = entries_.find(*best);
  if (entry == entries_.end()) return nullptr;
  touch_locked(entry->second);
  if (base_key) *base_key = *best;
  return entry->second.entry;
}

std::shared_ptr<const CachedEntry> ResultCache::lookup_eco_base(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto entry = lookup_locked(key);
  if (!entry) ++misses_;
  return entry;
}

ResultCache::Acquire ResultCache::acquire(const std::string& key,
                                          std::shared_ptr<const CachedEntry>* hit,
                                          FollowerFn on_done) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (auto entry = lookup_locked(key)) {
    ++hits_;
    if (hit) *hit = std::move(entry);
    return Acquire::kHit;
  }
  ++misses_;
  const auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    it->second.push_back(std::move(on_done));
    return Acquire::kFollower;
  }
  in_flight_.emplace(key, std::vector<FollowerFn>{});
  return Acquire::kOwner;
}

void ResultCache::publish(const std::string& key, CachedEntry entry) {
  auto shared = std::make_shared<const CachedEntry>(std::move(entry));
  std::vector<FollowerFn> followers;
  std::vector<std::filesystem::path> unlink;
  bool stored = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stored = insert_locked(key, shared, &unlink);
    const auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      followers = std::move(it->second);
      in_flight_.erase(it);
    }
    hits_ += followers.size();
  }
  if (stored) persist(key, *shared);
  unlink_files(unlink);
  // Followers share the owner's result even when the budget rejected the
  // store — in-flight dedupe is never evicted, only completed entries are.
  for (auto& fn : followers) fn(shared);
}

void ResultCache::abandon(const std::string& key) {
  std::vector<FollowerFn> followers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      followers = std::move(it->second);
      in_flight_.erase(it);
    }
  }
  for (auto& fn : followers) fn(nullptr);
}

CacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.corrupt = corrupt_;
  return s;
}

// ---- disk persistence (schema lrsizer-cache-v1) -----------------------------

std::shared_ptr<const CachedEntry> ResultCache::load_from_disk(
    const std::string& key) {
  if (disk_dir_.empty()) return nullptr;
  const auto path = std::filesystem::path(disk_dir_) / (key + ".json");
  std::string text;
  {
    std::ifstream in(path);
    if (!in) return nullptr;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  if (LRSIZER_FAULT_POINT("cache.read")) {
    // Simulated torn read: only the first half of the file comes back.
    text.resize(text.size() / 2);
  }
  try {
    Json doc = Json::parse(text);
    if (doc.at("schema").as_string() != "lrsizer-cache-v1") return nullptr;
    CachedEntry entry;
    entry.job = doc.at("job");
    for (const Json& pair : doc.at("sizes").as_array()) {
      const auto& p = pair.as_array();
      entry.sizes.emplace_back(static_cast<std::int32_t>(p.at(0).as_number()),
                               p.at(1).as_number());
    }
    // Optional (additive to lrsizer-cache-v1): the ECO index. Cone hashes
    // are 64-bit and therefore serialized as 16-hex-digit strings.
    if (const Json* eco = doc.find("eco")) {
      for (const Json& item : eco->at("nets").as_array()) {
        const auto& net_json = item.as_array();
        EcoIndex::Net net;
        net.cone = std::strtoull(net_json.at(0).as_string().c_str(), nullptr, 16);
        for (const Json& s : net_json.at(1).as_array()) {
          net.sizes.push_back(s.as_number());
        }
        entry.eco.nets.push_back(std::move(net));
      }
      for (const Json& cone : eco->at("output_cones").as_array()) {
        entry.eco.output_cones.push_back(
            std::strtoull(cone.as_string().c_str(), nullptr, 16));
      }
      core::OgwsWarmStart& m = entry.eco.multipliers;
      for (const Json& v : eco->at("lambda").as_array()) {
        m.lambda.push_back(v.as_number());
      }
      m.beta = eco->at("beta").as_number();
      m.gamma = eco->at("gamma").as_number();
      for (const Json& v : eco->at("gamma_net").as_array()) {
        m.gamma_net.push_back(v.as_number());
      }
      entry.eco.num_nodes = static_cast<std::int64_t>(eco->at("num_nodes").as_number());
      entry.eco.num_edges = static_cast<std::int64_t>(eco->at("num_edges").as_number());
    }
    // Every entry carries a checksum over its payload; verify before
    // serving. A file without one is corrupt like any other: no key this
    // build computes can name a file written before the checksum existed.
    const Json* checksum = doc.find("checksum");
    if (!checksum) throw std::runtime_error("missing checksum");
    if (checksum->as_string() != entry_checksum(key, entry)) {
      throw std::runtime_error("checksum mismatch");
    }
    auto shared = std::make_shared<const CachedEntry>(std::move(entry));
    // Promote to memory within the budget (mutex_ held by caller). Reads
    // never unlink files: a promotion may evict other *memory* entries, and
    // an entry too big for the budget is served without being cached.
    insert_locked(key, shared, nullptr);
    return shared;
  } catch (const std::exception& e) {
    quarantine_locked(path, key, e.what());
    return nullptr;
  }
}

void ResultCache::quarantine_locked(const std::filesystem::path& path,
                                    const std::string& key,
                                    const char* reason) {
  const auto aside = std::filesystem::path(disk_dir_) / (key + ".corrupt");
  std::error_code ec;
  std::filesystem::rename(path, aside, ec);
  if (ec) {
    // Rename refused (permissions?): unlink instead, so the corrupt file
    // cannot keep being re-read as a miss forever.
    std::filesystem::remove(path, ec);
  }
  ++corrupt_;
  util::log_warn() << "cache file " << path.string() << " corrupt (" << reason
                   << "); quarantined to " << aside.string()
                   << ", treating as a miss";
}

void ResultCache::persist(const std::string& key, const CachedEntry& entry) {
  if (disk_dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(disk_dir_, ec);
  Json doc = Json::object();
  doc.set("schema", "lrsizer-cache-v1");
  // Verified on load, and required there. Placed before the payload it
  // covers; still schema v1 (older readers never looked for it).
  doc.set("checksum", entry_checksum(key, entry));
  doc.set("key", key);
  doc.set("job", entry.job);
  doc.set("sizes", sizes_json(entry));
  if (!entry.eco.empty()) doc.set("eco", eco_json(entry.eco));
  const std::string payload = doc.dump(2) + "\n";
  // Write-then-rename so concurrent processes sharing the cache dir (e.g.
  // sharded sweeps) never observe a torn entry; rename is atomic within a
  // directory. Racing writers produce identical bytes anyway (same key ⇒
  // same deterministic result), so last-rename-wins is harmless.
  const auto path = std::filesystem::path(disk_dir_) / (key + ".json");
  auto tmp = path;
  tmp += ".tmp" + std::to_string(
                      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(tmp);
    if (!out) {
      util::log_warn() << "cannot persist cache entry to " << tmp.string();
      return;
    }
    if (LRSIZER_FAULT_POINT("cache.write")) {
      // Simulated ENOSPC: half the payload lands, then the device fills.
      out << payload.substr(0, payload.size() / 2);
      out.setstate(std::ios::badbit);
    } else {
      out << payload;
    }
    out.flush();
    if (!out) {
      // The write failed mid-stream (disk full?). The torn bytes are only
      // in the tmp file — drop it instead of renaming garbage into place;
      // the job itself succeeded and is served from memory.
      util::log_warn() << "cache write to " << tmp.string()
                       << " failed (disk full?); entry not persisted";
      std::error_code rm;
      std::filesystem::remove(tmp, rm);
      return;
    }
  }
  if (LRSIZER_FAULT_POINT("cache.rename")) {
    // Simulated torn publish: a crash or a non-atomic filesystem leaves a
    // half-written file at the *final* path — exactly the damage the
    // checksum + quarantine path exists to catch.
    {
      std::ofstream torn(path);
      torn << payload.substr(0, payload.size() / 2);
    }
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    return;
  }
  std::error_code rename_ec;
  std::filesystem::rename(tmp, path, rename_ec);
  if (rename_ec) {
    util::log_warn() << "cannot publish cache entry " << path.string() << ": "
                     << rename_ec.message();
    std::filesystem::remove(tmp, rename_ec);
  }
}

}  // namespace lrsizer::runtime
