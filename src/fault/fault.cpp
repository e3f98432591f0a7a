#include "fault/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

namespace lrsizer::fault {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

struct Rule {
  enum class Kind { kAlways, kNth, kEvery, kProb };
  Kind kind = Kind::kAlways;
  std::uint64_t n = 1;       ///< nth / every operand
  double p = 0.0;            ///< probability for kProb
  std::uint64_t rng = 1;     ///< xorshift64 state for kProb
  std::uint64_t hits = 0;
  std::uint64_t injected = 0;
};

std::mutex& rules_mutex() {
  static std::mutex mutex;
  return mutex;
}

// Ordered so armed_points() lists deterministically.
std::map<std::string, Rule>& rules() {
  static std::map<std::string, Rule> map;
  return map;
}

/// xorshift64: deterministic, seedable, good enough for fault dice.
double next_uniform(std::uint64_t& state) {
  std::uint64_t x = state;
  x ^= x << 13U;
  x ^= x >> 7U;
  x ^= x << 17U;
  state = x;
  return static_cast<double>(x >> 11U) * 0x1.0p-53;
}

bool fail_with(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    if (value > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10U) {
      return false;
    }
    value = value * 10U + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool parse_trigger(const std::string& trigger, Rule* rule, std::string* error) {
  if (trigger == "always") {
    rule->kind = Rule::Kind::kAlways;
    return true;
  }
  if (trigger.rfind("nth=", 0) == 0 || trigger.rfind("every=", 0) == 0) {
    const bool nth = trigger[0] == 'n';
    std::uint64_t n = 0;
    if (!parse_u64(trigger.substr(trigger.find('=') + 1), &n) || n == 0) {
      return fail_with(error, "trigger \"" + trigger +
                                  "\" needs a positive integer operand");
    }
    rule->kind = nth ? Rule::Kind::kNth : Rule::Kind::kEvery;
    rule->n = n;
    return true;
  }
  if (trigger.rfind("p=", 0) == 0) {
    std::string prob = trigger.substr(2);
    std::uint64_t seed = 1;
    if (const std::size_t at = prob.find('@'); at != std::string::npos) {
      if (!parse_u64(prob.substr(at + 1), &seed) || seed == 0) {
        return fail_with(error, "trigger \"" + trigger +
                                    "\" needs a positive integer seed");
      }
      prob.resize(at);
    }
    char* end = nullptr;
    const double p = std::strtod(prob.c_str(), &end);
    if (prob.empty() || end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) {
      return fail_with(error, "trigger \"" + trigger +
                                  "\" needs a probability in [0, 1]");
    }
    rule->kind = Rule::Kind::kProb;
    rule->p = p;
    rule->rng = seed;
    return true;
  }
  return fail_with(error,
                   "unknown trigger \"" + trigger +
                       "\" (expected always, nth=N, every=N, or p=P[@SEED])");
}

}  // namespace

const std::vector<std::string>& known_points() {
  static const std::vector<std::string> points = {
      "cache.read",    // runtime::ResultCache::load_from_disk — torn read
      "cache.rename",  // runtime::ResultCache::persist — torn publish
      "cache.write",   // runtime::ResultCache::persist — ENOSPC mid-write
      "json.parse",    // serve::parse_request — post-parse failure
      "session.alloc",  // api::SizingSession::elaborate — bad_alloc
      "socket.write",  // serve write_all_fd — peer reset / EPIPE
  };
  return points;
}

bool should_fail(const char* point) {
  const std::lock_guard<std::mutex> lock(rules_mutex());
  const auto it = rules().find(point);
  if (it == rules().end()) {
    return false;
  }
  Rule& rule = it->second;
  ++rule.hits;
  bool fire = false;
  switch (rule.kind) {
    case Rule::Kind::kAlways:
      fire = true;
      break;
    case Rule::Kind::kNth:
      fire = rule.hits == rule.n;
      break;
    case Rule::Kind::kEvery:
      fire = rule.hits % rule.n == 0;
      break;
    case Rule::Kind::kProb:
      fire = next_uniform(rule.rng) < rule.p;
      break;
  }
  if (fire) {
    ++rule.injected;
  }
  return fire;
}

bool arm(const std::string& spec, std::string* error) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return fail_with(error, "fault spec \"" + spec +
                                "\" must look like point:trigger");
  }
  const std::string point = spec.substr(0, colon);
  const std::vector<std::string>& known = known_points();
  if (std::find(known.begin(), known.end(), point) == known.end()) {
    std::string names;
    for (const std::string& name : known) {
      names += names.empty() ? name : ", " + name;
    }
    return fail_with(error, "unknown fault point \"" + point +
                                "\" (known: " + names + ")");
  }
  Rule rule;
  if (!parse_trigger(spec.substr(colon + 1), &rule, error)) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(rules_mutex());
  rules()[point] = rule;
  detail::g_armed.store(true, std::memory_order_relaxed);
  return true;
}

int arm_from_env(std::string* error) {
  const char* env = std::getenv("LRSIZER_FAULT");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  const std::string specs(env);
  int armed_count = 0;
  std::size_t begin = 0;
  while (begin <= specs.size()) {
    const std::size_t end = std::min(specs.find(',', begin), specs.size());
    const std::string spec = specs.substr(begin, end - begin);
    if (!spec.empty()) {
      if (!arm(spec, error)) {
        return -1;
      }
      ++armed_count;
    }
    begin = end + 1;
  }
  return armed_count;
}

void reset() {
  const std::lock_guard<std::mutex> lock(rules_mutex());
  rules().clear();
  detail::g_armed.store(false, std::memory_order_relaxed);
}

std::vector<std::string> armed_points() {
  const std::lock_guard<std::mutex> lock(rules_mutex());
  std::vector<std::string> points;
  points.reserve(rules().size());
  for (const auto& entry : rules()) {
    points.push_back(entry.first);
  }
  return points;
}

std::uint64_t injected_count(const std::string& point) {
  const std::lock_guard<std::mutex> lock(rules_mutex());
  const auto it = rules().find(point);
  return it == rules().end() ? 0U : it->second.injected;
}

}  // namespace lrsizer::fault
