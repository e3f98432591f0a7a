#include "serve/protocol.hpp"

#include <cmath>
#include <stdexcept>

#include "api/options.hpp"
#include "fault/fault.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"

namespace lrsizer::serve {

namespace {

using api::Status;
using runtime::Json;

Status expect(bool ok, const std::string& message) {
  return ok ? Status::Ok() : Status::InvalidArgument(message);
}

/// Range-checked integer extraction from an untrusted number: the
/// double→integer cast below is only defined inside the target range, so
/// out-of-range (or NaN) values must be rejected *before* casting. Bounds
/// are inclusive.
bool checked_integer(const Json& value, double lo, double hi,
                     std::int64_t* out) {
  const double d = value.as_number();
  if (!(d >= lo && d <= hi)) return false;  // also rejects NaN
  if (d != std::floor(d)) return false;     // 0.5 must not truncate to 0
  *out = static_cast<std::int64_t>(d);
  return true;
}

constexpr double kMaxInt32 = 2147483647.0;
/// Largest integer a double represents exactly — the honest ceiling for
/// 64-bit seeds arriving as JSON numbers.
constexpr double kMaxExactDouble = 9007199254740992.0;  // 2^53

bool known_profile(const std::string& name) {
  if (name == "c17") return true;
  for (const auto& profile : netlist::iscas85_profiles()) {
    if (profile.name == name) return true;
  }
  return false;
}

/// "input": {"profile": name} (synthesized, or the real c17) or
/// {"bench": text} (inline .bench). File paths are deliberately not
/// accepted: a serving process should not read arbitrary paths on behalf
/// of remote clients.
Status parse_input(const Json& input, std::uint64_t seed,
                   runtime::BatchJob* job) {
  if (!input.is_object()) {
    return Status::InvalidArgument("\"input\" must be an object");
  }
  const Json* profile = input.find("profile");
  const Json* bench = input.find("bench");
  if ((profile != nullptr) == (bench != nullptr)) {
    return Status::InvalidArgument(
        "\"input\" needs exactly one of \"profile\" or \"bench\"");
  }
  if (profile) {
    if (!profile->is_string() || !known_profile(profile->as_string())) {
      return Status::InvalidArgument(
          "unknown profile " + profile->dump() +
          " (see `lrsizer profiles` for the built-in names)");
    }
    const std::string& name = profile->as_string();
    if (name == "c17") {
      job->netlist = netlist::parse_bench_string(netlist::kIscas85C17);
    } else {
      job->netlist =
          netlist::generate_circuit(netlist::spec_for_profile(name, seed));
    }
    return Status::Ok();
  }
  if (!bench->is_string()) {
    return Status::InvalidArgument("\"bench\" must be a string of .bench text");
  }
  try {
    job->netlist = netlist::parse_bench_string(bench->as_string());
  } catch (const netlist::BenchParseError& e) {
    return Status::InvalidArgument(std::string("bench input: ") + e.what());
  }
  return Status::Ok();
}

}  // namespace

Status apply_request_options(const Json& overrides, core::FlowOptions* options) {
  if (!overrides.is_object()) {
    return Status::InvalidArgument("\"options\" must be an object");
  }
  for (const auto& [key, value] : overrides.as_object()) {
    const bool is_number = value.is_number();
    const bool is_bool = value.is_bool();
    // Integer knobs go through the range check so semantic validation
    // (validate_options naming the field) sees a defined value; values a
    // 32-bit int cannot hold are rejected here instead.
    std::int64_t integer = 0;
    const bool is_i32 =
        is_number && checked_integer(value, -kMaxInt32 - 1, kMaxInt32, &integer);
    if (key == "vectors" && is_i32) {
      options->num_vectors = static_cast<std::int32_t>(integer);
    } else if (key == "use_woss" && is_bool) {
      options->use_woss = value.as_bool();
    } else if (key == "delay_bound" && is_number) {
      options->bound_factors.delay = value.as_number();
    } else if (key == "power_bound" && is_number) {
      options->bound_factors.power = value.as_number();
    } else if (key == "noise_bound" && is_number) {
      options->bound_factors.noise = value.as_number();
    } else if (key == "per_net_noise_bound" && is_number) {
      options->bound_factors.per_net_noise = value.as_number();
    } else if (key == "initial_size" && is_number) {
      options->initial_size = value.as_number();
    } else if (key == "threads" && is_i32) {
      // Accepted and ignored: jobs size serially. Protocol v3 clients may
      // still send it.
    } else if (key == "max_iterations" && is_i32) {
      options->ogws.max_iterations = static_cast<int>(integer);
    } else if (key == "sweep" && value.is_string()) {
      const auto mode = core::sweep_mode_from_name(value.as_string());
      if (!mode) {
        return Status::InvalidArgument(
            "option \"sweep\" must be \"dense\" or \"worklist\", got \"" +
            value.as_string() + "\"");
      }
      options->ogws.lrs.sweep = *mode;
    } else {
      return Status::InvalidArgument(
          "unknown, mistyped or out-of-range option \"" + key +
          "\": " + value.dump());
    }
  }
  return api::validate_options(*options);
}

Status parse_request(const std::string& line, const core::FlowOptions& base,
                     Request* out, std::string* error_id) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const runtime::JsonParseError& e) {
    return Status::InvalidArgument(e.what());
  }
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  if (error_id) {
    if (const Json* found = doc.find("id"); found && found->is_string()) {
      *error_id = found->as_string();
    }
  }
  if (LRSIZER_FAULT_POINT("json.parse")) {
    // After the id extraction, so the injected rejection still echoes the
    // request id and a chaos client can retry it.
    return Status::InvalidArgument("fault injected: json.parse");
  }
  const Json* type = doc.find("type");
  if (!type || !type->is_string()) {
    return Status::InvalidArgument("request needs a string \"type\"");
  }

  Request request;
  if (type->as_string() == "shutdown") {
    request.kind = Request::Kind::kShutdown;
    *out = std::move(request);
    return Status::Ok();
  }
  if (type->as_string() == "stats") {
    // The id is optional here: stats is a fire-and-forget poll, and a
    // client with nothing else in flight has no correlation to do.
    request.kind = Request::Kind::kStats;
    if (const Json* id = doc.find("id")) {
      if (!id->is_string()) {
        return Status::InvalidArgument("\"id\" must be a string");
      }
      request.stats_id = id->as_string();
    }
    *out = std::move(request);
    return Status::Ok();
  }

  const Json* id = doc.find("id");
  if (const Status st =
          expect(id && id->is_string() && !id->as_string().empty(),
                 "request needs a non-empty string \"id\"");
      !st.ok()) {
    return st;
  }

  if (type->as_string() == "cancel") {
    request.kind = Request::Kind::kCancel;
    request.cancel_id = id->as_string();
    *out = std::move(request);
    return Status::Ok();
  }
  if (type->as_string() != "size") {
    return Status::InvalidArgument("unknown request type " + type->dump());
  }

  request.kind = Request::Kind::kSize;
  request.size.id = id->as_string();
  request.size.job.name = id->as_string();
  request.size.job.options = base;
  // Default seed: the server's (base.elab.seed = the CLI --seed), so a
  // request without "seed" generates AND elaborates exactly like the
  // equivalent `lrsizer run` — never a mixed generation/elaboration pair.
  request.size.job.seed = base.elab.seed;

  if (const Json* seed = doc.find("seed")) {
    std::int64_t value = 0;
    if (!seed->is_number() ||
        !checked_integer(*seed, 0, kMaxExactDouble, &value)) {
      return Status::InvalidArgument(
          "\"seed\" must be an integer in [0, 2^53]");
    }
    request.size.job.seed = static_cast<std::uint64_t>(value);
    request.size.job.options.elab.seed = request.size.job.seed;
  }
  if (const Json* options = doc.find("options")) {
    if (const Status st =
            apply_request_options(*options, &request.size.job.options);
        !st.ok()) {
      return st;
    }
  }
  const Json* input = doc.find("input");
  if (!input) return Status::InvalidArgument("size request needs \"input\"");
  if (const Status st =
          parse_input(*input, request.size.job.seed, &request.size.job);
      !st.ok()) {
    return st;
  }
  if (const Json* progress = doc.find("progress")) {
    std::int64_t value = 0;
    if (!progress->is_number() ||
        !checked_integer(*progress, 0, kMaxInt32, &value)) {
      return Status::InvalidArgument(
          "\"progress\" must be an integer in [0, 2^31)");
    }
    request.size.progress_every = static_cast<int>(value);
  }
  if (const Json* sizes = doc.find("sizes")) {
    if (!sizes->is_bool()) {
      return Status::InvalidArgument("\"sizes\" must be a bool");
    }
    request.size.want_sizes = sizes->as_bool();
  }
  if (const Json* trace = doc.find("trace")) {
    if (!trace->is_bool()) {
      return Status::InvalidArgument("\"trace\" must be a bool");
    }
    request.size.trace = trace->as_bool();
  }
  if (const Json* warm = doc.find("warm_start")) {
    if (!warm->is_array()) {
      return Status::InvalidArgument(
          "\"warm_start\" must be an array of [node, size] pairs");
    }
    for (const Json& pair : warm->as_array()) {
      std::int64_t node = 0;
      if (!pair.is_array() || pair.size() != 2 ||
          !pair.as_array()[0].is_number() ||
          !checked_integer(pair.as_array()[0], 0, kMaxInt32, &node) ||
          !pair.as_array()[1].is_number()) {
        return Status::InvalidArgument(
            "\"warm_start\" entries must be [node, size] pairs with an "
            "integer node id");
      }
      request.size.job.warm.sizes.emplace_back(
          static_cast<std::int32_t>(node), pair.as_array()[1].as_number());
    }
  }
  if (const Json* deadline = doc.find("deadline_ms")) {
    std::int64_t value = 0;
    if (!deadline->is_number() ||
        !checked_integer(*deadline, 0, kMaxExactDouble, &value)) {
      return Status::InvalidArgument(
          "\"deadline_ms\" must be an integer in [0, 2^53] (0 = unlimited)");
    }
    request.size.deadline_ms = value;
  }
  if (const Json* eco = doc.find("eco_base")) {
    if (!eco->is_string() || eco->as_string().empty()) {
      return Status::InvalidArgument(
          "\"eco_base\" must be a non-empty cache-key string");
    }
    if (!request.size.job.warm.empty()) {
      return Status::InvalidArgument(
          "\"eco_base\" and \"warm_start\" are mutually exclusive — an ECO "
          "seed is a warm start");
    }
    request.size.eco_base = eco->as_string();
  }
  *out = std::move(request);
  return Status::Ok();
}

// ---- response builders ------------------------------------------------------

Json hello_json(const std::string& version, int jobs,
                const std::string& cache_mode) {
  Json j = Json::object();
  j.set("schema", "lrsizer-serve-v3");
  j.set("type", "hello");
  j.set("version", version);
  j.set("jobs", static_cast<std::int64_t>(jobs));
  j.set("cache", cache_mode);
  return j;
}

Json accepted_json(const std::string& id, const std::string& key) {
  Json j = Json::object();
  j.set("type", "accepted");
  j.set("id", id);
  j.set("key", key);
  return j;
}

Json progress_json(const std::string& id, const core::OgwsIterate& iterate) {
  Json j = Json::object();
  j.set("type", "progress");
  j.set("id", id);
  j.set("k", static_cast<std::int64_t>(iterate.k));
  j.set("area", iterate.area);
  j.set("dual", iterate.dual);
  j.set("rel_gap", iterate.rel_gap);
  j.set("max_violation", iterate.max_violation);
  return j;
}

Json result_json(const std::string& id, bool cache_hit, const Json& job,
                 const std::vector<std::pair<std::int32_t, double>>* sizes,
                 const Json* trace, bool timeout) {
  Json j = Json::object();
  j.set("type", "result");
  j.set("id", id);
  j.set("cache_hit", cache_hit);
  // Key absent on normal results (not `false`): cache-hit payloads must
  // stay byte-identical to pre-deadline builds.
  if (timeout) j.set("timeout", true);
  j.set("job", job);
  if (sizes) {
    Json array = Json::array();
    for (const auto& [node, size] : *sizes) {
      Json pair = Json::array();
      pair.push_back(static_cast<std::int64_t>(node));
      pair.push_back(size);
      array.push_back(pair);
    }
    j.set("sizes", array);
  }
  if (trace) j.set("trace", *trace);
  return j;
}

Json cancelled_json(const std::string& id, const Json* partial_job) {
  Json j = Json::object();
  j.set("type", "cancelled");
  j.set("id", id);
  if (partial_job) j.set("job", *partial_job);
  return j;
}

Json stats_json(const std::string& id, const StatsSnapshot& s) {
  const auto count = [](std::size_t n) {
    return static_cast<std::int64_t>(n);
  };
  Json jobs = Json::object();
  jobs.set("accepted", count(s.accepted));
  jobs.set("completed", count(s.completed));
  jobs.set("cache_hits", count(s.cache_hits));
  jobs.set("cancelled", count(s.cancelled));
  jobs.set("timeouts", count(s.timeouts));
  jobs.set("errors", count(s.errors));
  jobs.set("shed", count(s.shed));
  jobs.set("eco", count(s.eco_jobs));
  jobs.set("queue_depth", count(s.queue_depth));

  Json clients = Json::object();
  clients.set("active", count(s.active_clients));

  Json cache = Json::object();
  cache.set("entries", count(s.cache_entries));
  cache.set("bytes", count(s.cache_bytes));
  cache.set("hits", count(s.cache_lookup_hits));
  cache.set("misses", count(s.cache_lookup_misses));
  cache.set("warm_hits", count(s.cache_warm_hits));
  cache.set("eco_hits", count(s.cache_eco_hits));
  cache.set("hit_rate", cache_hit_rate(s));
  cache.set("evictions", count(s.cache_evictions));
  cache.set("corrupt", count(s.cache_corrupt));
  cache.set("mode", s.cache_disk ? "disk" : "memory");

  Json latency = Json::object();
  latency.set("count", count(s.latency_count));
  latency.set("p50_ms", s.latency_p50_s * 1e3);
  latency.set("p99_ms", s.latency_p99_s * 1e3);

  Json server = Json::object();
  server.set("version", s.version);
  server.set("state", s.state);
  server.set("start_time_unix_s", s.start_time_unix_s);
  server.set("uptime_s", s.uptime_s);

  Json j = Json::object();
  j.set("type", "stats");
  if (!id.empty()) j.set("id", id);
  j.set("server", server);
  j.set("jobs", jobs);
  j.set("clients", clients);
  j.set("cache", cache);
  j.set("latency", latency);
  return j;
}

Json error_json(const std::string& id, const std::string& code,
                const std::string& message, std::int64_t retry_after_ms) {
  Json j = Json::object();
  j.set("type", "error");
  if (!id.empty()) j.set("id", id);
  j.set("code", code);
  if (retry_after_ms >= 0) j.set("retry_after_ms", retry_after_ms);
  j.set("message", message);
  return j;
}

}  // namespace lrsizer::serve
