// perfbench driver: runs the table1 workload in-process through
// api::SizingSession, timing every call into a layer from here, and
// generates the circuits of serve_mix's request script. run.py invokes it;
// each mode prints one JSON object on stdout.
//
//   perfbench_driver run --workload table1 --seed N --seconds S --trace 0|1
//                        [--inject F]
//   perfbench_driver circuits   serve_mix base + revision .bench texts
//   perfbench_driver layers     serve_mix standalone layer timings
//   perfbench_driver calibrate  allowed CPUs, fastest first (see "CPU placement")
//
// --inject adds a benchmark-only delay for the sensitivity self-check: a
// busy spin of F x each OGWS iteration's own time inside the
// IterationObserver. The program itself is never changed.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/multipliers.hpp"
#include "core/ogws.hpp"
#include "core/problem.hpp"
#include "layout/channels.hpp"
#include "layout/neighbors.hpp"
#include "layout/ordering.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/elaborator.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "obs/trace.hpp"
#include "runtime/json.hpp"
#include "sim/patterns.hpp"
#include "sim/similarity.hpp"
#include "sim/simulator.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "timing/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace lrsizer;
using Clock = std::chrono::steady_clock;
using runtime::Json;

// ---- workload definitions ---------------------------------------------------

/// serve_mix circuits, shared with run.py (which orders the requests)
/// through the `circuits` output: one chain of requests per base circuit.
constexpr int kServeChains = 12;
constexpr int kEcoPerChain = 3;
const std::vector<double> kWarmNoiseBounds = {0.11, 0.12};
/// Least number of repetitions of the timed job list.
constexpr std::size_t kMinReps = 3;

struct Input {
  std::string name;
  netlist::LogicNetlist netlist;
};

/// The ten Table-1 profiles at generator seed 1 (the circuits bench_table1
/// reproduces), in a job order shuffled by `seed`. The seed deliberately
/// changes nothing else: OGWS iteration counts swing by ±25% between
/// generator seeds, which would swamp any regression bound.
std::vector<Input> table1_inputs(std::uint64_t seed) {
  std::vector<Input> inputs;
  for (const auto& profile : netlist::iscas85_profiles()) {
    inputs.push_back(
        {profile.name, netlist::generate_circuit(netlist::spec_for_profile(profile.name, 1))});
  }
  util::Rng rng(seed);
  for (std::size_t i = inputs.size(); i > 1; --i) {
    std::swap(inputs[i - 1], inputs[rng.next_below(i)]);
  }
  return inputs;
}

/// c7552's spec scaled ×10 (≈98.6k nodes), generator seed 1: the large end
/// of the Figure 10(b) fit, sized once by table1's traced run. Not a timed
/// workload: its memory-bound wall moves by ~30% between whole runs.
Input large_input() {
  netlist::GeneratorSpec spec = netlist::spec_for_profile("c7552", 1);
  spec.num_gates *= 10;
  spec.num_wires *= 10;
  spec.num_inputs *= 10;
  spec.num_outputs *= 10;
  return {"c7552x10", netlist::generate_circuit(spec)};
}

/// serve_mix base circuit of one chain: ~3k to ~7k nodes (5k on average).
/// Bases and revisions are fixed; the seed orders the requests (run.py),
/// because the OGWS work of one 5k-node circuit swings by 2x between
/// generator seeds.
netlist::GeneratorSpec serve_base_spec(int chain) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 1050 + 130 * chain;
  spec.num_wires = spec.num_gates * 9 / 5;
  spec.num_inputs = 60;
  spec.num_outputs = 40;
  spec.depth = 40;
  spec.seed = 101 + static_cast<std::uint64_t>(chain);
  return spec;
}

netlist::LogicOp flipped(netlist::LogicOp op) {
  switch (op) {
    case netlist::LogicOp::kAnd: return netlist::LogicOp::kOr;
    case netlist::LogicOp::kOr: return netlist::LogicOp::kAnd;
    case netlist::LogicOp::kNand: return netlist::LogicOp::kNor;
    case netlist::LogicOp::kNor: return netlist::LogicOp::kNand;
    case netlist::LogicOp::kXor: return netlist::LogicOp::kXnor;
    case netlist::LogicOp::kXnor: return netlist::LogicOp::kXor;
    default: return op;
  }
}

/// `base` with a seeded 1% of its flippable gates' ops flipped; names,
/// fanins and output marks are kept, so the elaborated shape matches and
/// ECO can transfer the base's multipliers.
netlist::LogicNetlist flip_ops(const netlist::LogicNetlist& base, std::uint64_t seed) {
  std::vector<std::int32_t> candidates;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    if (flipped(base.gate(g).op) != base.gate(g).op) candidates.push_back(g);
  }
  util::Rng rng(seed);
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.next_below(i)]);
  }
  const std::size_t edits = std::clamp<std::size_t>(
      static_cast<std::size_t>(0.01 * base.num_real_gates() + 0.5), 1, candidates.size());
  const std::unordered_set<std::int32_t> edited(candidates.begin(),
                                                candidates.begin() + static_cast<long>(edits));
  netlist::LogicNetlist revised;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    const netlist::LogicGate& gate = base.gate(g);
    if (gate.op == netlist::LogicOp::kInput) {
      revised.add_input(gate.name);
    } else {
      revised.add_gate(gate.name, edited.count(g) != 0 ? flipped(gate.op) : gate.op,
                       gate.fanin);
    }
    if (base.is_primary_output(g)) revised.mark_output(g);
  }
  revised.finalize();
  return revised;
}

struct ServeScript {
  std::vector<Input> bases;                  ///< one per chain
  std::vector<std::vector<Input>> revisions;  ///< kEcoPerChain per chain
};

ServeScript serve_circuits() {
  ServeScript script;
  for (int c = 0; c < kServeChains; ++c) {
    const std::string name = "s" + std::to_string(c);
    script.bases.push_back({name, netlist::generate_circuit(serve_base_spec(c))});
    std::vector<Input> revs;
    for (int j = 0; j < kEcoPerChain; ++j) {
      const std::uint64_t rev_seed =
          100 * static_cast<std::uint64_t>(c) + static_cast<std::uint64_t>(j) + 1;
      revs.push_back({name + "e" + std::to_string(j),
                      flip_ops(script.bases.back().netlist, rev_seed)});
    }
    script.revisions.push_back(std::move(revs));
  }
  return script;
}

/// Every circuit a serve_mix script repetition sizes, with multiplicity:
/// each base once cold plus once per warm noise bound, each revision once.
std::vector<const Input*> serve_sized(const ServeScript& script) {
  std::vector<const Input*> sized;
  for (int c = 0; c < kServeChains; ++c) {
    for (std::size_t k = 0; k <= kWarmNoiseBounds.size(); ++k) sized.push_back(&script.bases[c]);
    for (const Input& rev : script.revisions[c]) sized.push_back(&rev);
  }
  return sized;
}

// ---- statistics -------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The fastest of repeated timings of the same work. Interference from
/// other tenants only ever adds time (see "CPU placement" below), so the
/// least value is the one that measures the code.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so a driver forked
/// from a larger parent would report the parent's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

// ---- CPU placement ----------------------------------------------------------
//
// On a shared VM each vCPU runs either at full speed or ~50% slower (a busy
// neighbour on its host core), switching every few seconds, and the guest
// sees no steal time. A thread left alone stays on one vCPU, so a whole run
// can land on a slow one. Before each job the driver therefore moves itself
// to the vCPU that is fastest at that moment.

/// The benchmark's own probe kernel, independent of the code under test:
/// Elmore-style reverse load and forward arrival sweeps over a fixed random
/// DAG of 20k nodes — the sizer's memory pattern in miniature.
class ProbeDag {
 public:
  ProbeDag() : offset_(kNodes + 1), x_(kNodes), load_(kNodes), arrival_(kNodes) {
    std::uint64_t state = 12345;
    for (std::size_t v = 0; v < kNodes; ++v) {
      offset_[v] = fanin_.size();
      const std::uint64_t fanins = v == 0 ? 0 : 1 + util::splitmix64(state) % 3;
      for (std::uint64_t j = 0; j < fanins; ++j) fanin_.push_back(util::splitmix64(state) % v);
      x_[v] = 0.5 + static_cast<double>(util::splitmix64(state) % 1000) / 1000.0;
    }
    offset_[kNodes] = fanin_.size();
  }

  /// One reverse + forward sweep; returns seconds.
  double run() {
    const auto t0 = Clock::now();
    std::fill(load_.begin(), load_.end(), 0.1);
    for (std::size_t v = kNodes; v-- > 0;) {
      for (std::size_t e = offset_[v]; e < offset_[v + 1]; ++e) {
        load_[fanin_[e]] += 0.5 * load_[v] * x_[v] + x_[v];
      }
    }
    for (std::size_t v = 0; v < kNodes; ++v) {
      double a = 0.0;
      for (std::size_t e = offset_[v]; e < offset_[v + 1]; ++e) a = std::max(a, arrival_[fanin_[e]]);
      arrival_[v] = a + std::sqrt(load_[v]) / x_[v];
    }
    sink_ = arrival_[kNodes - 1];
    return seconds_since(t0);
  }

 private:
  static constexpr std::size_t kNodes = 20000;
  std::vector<std::size_t> offset_;
  std::vector<std::size_t> fanin_;
  std::vector<double> x_, load_, arrival_;
  volatile double sink_ = 0.0;
};

cpu_set_t allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    std::perror("sched_getaffinity");
    std::exit(1);
  }
  return allowed;
}

bool pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

/// (probe seconds, cpu) for every allowed CPU, fastest first: the best of
/// three probe sweeps pinned to each. Leaves the thread pinned to the last
/// CPU probed.
std::vector<std::pair<double, int>> rank_cpus(const cpu_set_t& allowed) {
  static ProbeDag probe;
  std::vector<std::pair<double, int>> ranking;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || !pin_to(cpu)) continue;
    double seconds = probe.run();
    for (int i = 0; i < 2; ++i) seconds = std::min(seconds, probe.run());
    ranking.emplace_back(seconds, cpu);
  }
  std::sort(ranking.begin(), ranking.end());
  return ranking;
}

void move_to_fastest_cpu(const cpu_set_t& allowed) {
  const auto ranking = rank_cpus(allowed);
  if (!ranking.empty()) pin_to(ranking.front().second);
}

// ---- one sizing job ---------------------------------------------------------

struct JobRun {
  std::string name;
  bool ok = false;
  std::string error;
  double wall_s = 0.0;  ///< netlist hand-over, stages and teardown
  double elaborate_s = 0.0;
  double simulate_s = 0.0;
  double bounds_s = 0.0;
  double size_s = 0.0;
  int iterations = 0;
  bool capped = false;
  bool converged = false;
  long long lrs_passes = 0;
  long long lrs_nodes = 0;
  std::vector<double> iteration_s;  ///< OgwsIterate::seconds, per iteration
  long long components = 0;
  double area = 0.0;
  double dual = 0.0;
  double rel_gap = 0.0;
  double violation = 0.0;  ///< re-measured from the returned sizes
  double feas_tol = 0.0;
  double memory_bytes = 0.0;
};

/// One job's deterministic steps across the repetitions of a run: the
/// OGWS iterations (the same sequence every time — asserted by the output
/// checks) and everything else the job does around them.
struct JobSteps {
  std::vector<double> rest;            ///< job wall minus its iterations
  std::vector<double> best_iteration;  ///< fastest repetition of iteration k

  void add(const JobRun& run) {
    double iterations = 0.0;
    for (double t : run.iteration_s) iterations += t;
    rest.push_back(run.wall_s - iterations);
    best_iteration.resize(std::max(best_iteration.size(), run.iteration_s.size()),
                          std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < run.iteration_s.size(); ++k) {
      best_iteration[k] = std::min(best_iteration[k], run.iteration_s[k]);
    }
  }

  /// The job's wall time composed from each step's fastest repetition: a
  /// lower envelope of the repetitions, not the wall of any one of them.
  double composed() const {
    double total = best(rest);
    for (double t : best_iteration) total += t;
    return total;
  }
};

void spin_for(double seconds) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
  }
}

/// Size one input cold, as a serving or batch caller would: the session
/// takes its own copy of the netlist. With `trace`, records a "job" span
/// and one "call.<stage>" span around each stage call next to the session's
/// own stage / OGWS-iteration / LRS-pass spans. `inject` > 0 spins that
/// share of each OGWS iteration's time in the observer.
JobRun run_job(const Input& input, obs::TraceSession* trace, double inject) {
  JobRun run;
  run.name = input.name;
  const auto t0 = Clock::now();
  const std::uint64_t job_begin = trace != nullptr ? trace->now_us() : 0;
  core::FlowOptions options;  // the CLI defaults == bench_common's paper_flow_options()
  options.threads = 1;
  run.feas_tol = options.ogws.feas_tol;
  std::optional<api::SizingSession> session(std::in_place, input.netlist, options);
  session->set_capture_warm_start(false);
  session->set_trace(trace);
  session->set_observer([&run, inject](const core::OgwsIterate& it) {
    run.lrs_passes += it.lrs_passes;
    run.lrs_nodes += it.lrs_nodes_processed;
    run.iteration_s.push_back(it.seconds);
    if (inject > 0.0) spin_for(inject * it.seconds);
  });

  auto stage = [&](const char* name, double& seconds, auto&& call) {
    const auto s0 = Clock::now();
    const std::uint64_t begin = trace != nullptr ? trace->now_us() : 0;
    const api::Status status = call();
    seconds = seconds_since(s0);
    if (trace != nullptr) {
      trace->record(std::string("call.") + name, "bench", begin, trace->now_us());
    }
    if (!status.ok() && run.error.empty()) run.error = name + (": " + status.to_string());
    return status.ok();
  };
  run.ok = stage("elaborate", run.elaborate_s, [&] { return session->elaborate(); }) &&
           stage("simulate_and_order", run.simulate_s,
                 [&] { return session->simulate_and_order(); }) &&
           stage("derive_bounds", run.bounds_s, [&] { return session->derive_bounds(); }) &&
           stage("size", run.size_s, [&] { return session->size(); });

  double check_s = 0.0;
  if (run.ok) {
    const auto c0 = Clock::now();
    const std::uint64_t check_begin = trace != nullptr ? trace->now_us() : 0;
    const core::FlowResult& result = session->result();
    const core::FlowSummary summary = session->summary();
    run.iterations = summary.iterations;
    run.converged = summary.converged;
    run.capped = !summary.converged && summary.iterations >= options.ogws.max_iterations;
    run.area = summary.area_um2;
    run.dual = summary.dual;
    run.rel_gap = summary.rel_gap;
    run.memory_bytes = static_cast<double>(result.memory_bytes);
    run.components = result.circuit.num_components();
    // Feasibility is re-measured here from the returned sizes, not taken
    // from the solver's own report.
    const timing::Metrics m = timing::compute_metrics(
        result.circuit, result.coupling, result.circuit.sizes(), options.ogws.lrs.mode);
    run.violation = std::max({(m.delay_s - result.bounds.delay_s) / result.bounds.delay_s,
                              (m.cap_f - result.bounds.cap_f) / result.bounds.cap_f,
                              (m.noise_f - result.bounds.noise_f) / result.bounds.noise_f, 0.0});
    check_s = seconds_since(c0);
    if (trace != nullptr) trace->record("check", "bench", check_begin, trace->now_us());
  }
  session.reset();
  run.wall_s = seconds_since(t0) - check_s;
  if (trace != nullptr) trace->record("job", "bench", job_begin, trace->now_us());
  return run;
}

// ---- traced-rep accounting --------------------------------------------------

/// Self time per layer from one traced repetition's spans: a span's
/// duration minus the part its child spans cover (spans nest on the one
/// thread that runs the jobs). The benchmark's own spans come out as
/// "bench.*": they are not layers.
std::map<std::string, double> self_times(std::vector<obs::TraceSession::Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.dur_us > b.dur_us;
  });
  auto layer_of = [](const std::string& name) -> std::string {
    if (name == "job") return "bench.job";
    if (name == "check") return "bench.check";
    if (name == "place") return "bench.place";
    if (name.rfind("call.", 0) == 0) return "session." + name.substr(5) + ".call";
    if (name == "ogws_iteration") return "ogws";
    if (name == "lrs_pass") return "lrs";
    return "session." + name;
  };
  std::map<std::string, double> self;
  struct Open {
    std::uint64_t end;
    std::string layer;
  };
  std::vector<Open> stack;
  for (const auto& span : spans) {
    const std::uint64_t end = span.ts_us + span.dur_us;
    while (!stack.empty() && stack.back().end <= span.ts_us) stack.pop_back();
    const std::string layer = layer_of(span.name);
    self[layer] += static_cast<double>(span.dur_us) * 1e-6;
    if (!stack.empty()) {
      // Clamp: microsecond truncation can push a child 1 µs past its parent.
      const std::uint64_t covered = std::min(end, stack.back().end) - span.ts_us;
      self[stack.back().layer] -= static_cast<double>(covered) * 1e-6;
    }
    stack.push_back({end, layer});
  }
  return self;
}

double sum_spans(const std::vector<obs::TraceSession::Span>& spans, const char* name) {
  double total = 0.0;
  for (const auto& span : spans) {
    if (span.name == name) total += static_cast<double>(span.dur_us) * 1e-6;
  }
  return total;
}

/// Share of the traced jobs' wall (job spans minus their output checks)
/// that no layer's self time covers: the session's construction and
/// teardown, plus any stage call that lost its spans.
double unaccounted_frac(const std::map<std::string, double>& self,
                        const std::vector<obs::TraceSession::Span>& spans) {
  double accounted = 0.0;
  for (const auto& [layer, s] : self) {
    if (layer.rfind("bench.", 0) != 0) accounted += s;
  }
  return 1.0 - accounted / (sum_spans(spans, "job") - sum_spans(spans, "check"));
}

// ---- standalone layer calls -------------------------------------------------

struct Stage1Times {
  double simulate_s = 0.0;
  double channels_s = 0.0;
  double woss_s = 0.0;
  double coupling_s = 0.0;
};

/// SizingSession::simulate_and_order() rebuilt from the layers' public
/// calls, timing each layer separately.
Stage1Times time_stage1(const netlist::LogicNetlist& nl) {
  const core::FlowOptions options;
  const netlist::ElabResult elab = netlist::elaborate(nl, options.tech, options.elab);
  Stage1Times t;
  auto t0 = Clock::now();
  const auto vectors = sim::random_vectors(static_cast<std::int32_t>(nl.primary_inputs().size()),
                                           options.num_vectors, options.pattern_seed);
  const sim::SimResult simulated = sim::simulate(nl, vectors, options.sim);
  t.simulate_s = seconds_since(t0);

  t0 = Clock::now();
  const layout::ChannelAssignment channels =
      layout::assign_channels(elab.circuit, elab.net_of_node, nl, options.channels);
  t.channels_s = seconds_since(t0);

  t0 = Clock::now();
  std::vector<std::vector<netlist::NodeId>> orders;
  for (const auto& tracks : channels.channels) {
    std::vector<std::int32_t> nets;
    for (netlist::NodeId w : tracks) nets.push_back(elab.net_of_node[static_cast<std::size_t>(w)]);
    const sim::SimilarityMatrix matrix(simulated, nets);
    const auto n = static_cast<std::int32_t>(tracks.size());
    std::vector<double> weights(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (std::int32_t a = 0; a < n; ++a) {
      for (std::int32_t b = 0; b < n; ++b) {
        weights[static_cast<std::size_t>(a * n + b)] = matrix.miller_weight(a, b);
      }
    }
    const std::vector<std::int32_t> order =
        layout::woss_ordering(layout::DenseWeights(n, std::move(weights)));
    std::vector<netlist::NodeId> track_order;
    for (std::int32_t i : order) track_order.push_back(tracks[static_cast<std::size_t>(i)]);
    orders.push_back(std::move(track_order));
  }
  t.woss_s = seconds_since(t0);

  t0 = Clock::now();
  const layout::MillerFn miller = [&](netlist::NodeId a, netlist::NodeId b) {
    const std::vector<std::int32_t> nets = {elab.net_of_node[static_cast<std::size_t>(a)],
                                            elab.net_of_node[static_cast<std::size_t>(b)]};
    return sim::SimilarityMatrix(simulated, nets).miller_weight(0, 1);
  };
  const layout::CouplingSet coupling =
      layout::build_coupling_set(elab.circuit, orders, options.neighbors, miller);
  t.coupling_s = seconds_since(t0);
  return t;
}

/// Best of `batches` timed batches of `fn`, in ns per call; the batch
/// size is calibrated to run >= min_ms.
template <typename Fn>
double ns_per_call(Fn&& fn, double min_ms = 20.0, int batches = 7) {
  fn();
  long long iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (long long i = 0; i < iters; ++i) fn();
    const double elapsed = seconds_since(t0);
    if (elapsed * 1e3 >= min_ms) break;
    iters *= 2;
  }
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (long long i = 0; i < iters; ++i) fn();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(iters));
  }
  return best(samples);
}

/// The OGWS per-iteration kernels, standalone on one circuit, from
/// steady-state multipliers (a short real OGWS run), as bench_kernels does.
void time_kernels(const netlist::LogicNetlist& nl, Json& out) {
  const core::FlowOptions options;
  netlist::ElabResult elab = netlist::elaborate(nl, options.tech, options.elab);
  const auto channels = layout::assign_channels(elab.circuit, elab.net_of_node, nl);
  layout::NeighborOptions neighbors;
  neighbors.fold_miller = false;
  const auto coupling = layout::build_coupling_set(elab.circuit, channels.channels, neighbors);
  netlist::Circuit& circuit = elab.circuit;
  circuit.set_uniform_size(options.initial_size);
  const auto mode = options.ogws.lrs.mode;
  const core::Bounds bounds = core::derive_bounds(circuit, coupling, circuit.sizes(), mode,
                                                  options.bound_factors);
  core::OgwsOptions warmup = options.ogws;
  warmup.max_iterations = 8;
  warmup.record_history = false;
  core::OgwsControl control;
  control.capture_warm_start = true;
  const core::OgwsResult warm = core::run_ogws(circuit, coupling, bounds, warmup, control);
  core::MultiplierState multipliers(circuit);
  multipliers.init_default(circuit);
  multipliers.lambda = warm.warm.lambda;
  multipliers.beta = warm.warm.beta;
  multipliers.gamma = warm.warm.gamma;

  timing::LoadAnalysis loads;
  out.set("timing.loads_ns", ns_per_call([&] {
            timing::compute_loads(circuit, coupling, circuit.sizes(), mode, loads);
          }));
  timing::ArrivalAnalysis arrivals;
  out.set("timing.arrivals_ns", ns_per_call([&] {
            timing::compute_arrivals(circuit, circuit.sizes(), loads, arrivals);
          }));
  const double area_ref = timing::total_area(circuit, circuit.sizes());
  const core::DualScales scales{area_ref, area_ref / bounds.delay_s, area_ref / bounds.cap_f,
                                area_ref / bounds.noise_f};
  const double cap = timing::total_cap(circuit, circuit.sizes());
  const double noise = coupling.noise_linear(circuit.sizes());
  const double rho = options.ogws.step0 / std::sqrt(8.0);
  const core::MultiplierState start = multipliers;
  out.set("core.dual_step_ns", ns_per_call([&] {
            // Restore first: the multiplicative rule compounds across calls.
            multipliers.lambda = start.lambda;
            multipliers.beta = start.beta;
            multipliers.gamma = start.gamma;
            core::dual_ascent_step(circuit, coupling, bounds, options.ogws, arrivals,
                                   circuit.sizes(), cap, noise, rho, scales, multipliers);
          }));
}

/// Standalone stage-1 layers and parsing over `circuits` (with
/// multiplicity), best of `reps` passes each.
void time_standalone(const std::vector<const Input*>& circuits, int reps, Json& out) {
  std::vector<double> sim, channels, woss, coupling, parse;
  std::vector<std::string> texts;
  std::unordered_set<const Input*> distinct;
  for (const Input* in : circuits) {
    if (distinct.insert(in).second) texts.push_back(netlist::to_bench_string(in->netlist));
  }
  for (int r = 0; r < reps; ++r) {
    Stage1Times sum;
    for (const Input* in : circuits) {
      const Stage1Times t = time_stage1(in->netlist);
      sum.simulate_s += t.simulate_s;
      sum.channels_s += t.channels_s;
      sum.woss_s += t.woss_s;
      sum.coupling_s += t.coupling_s;
    }
    sim.push_back(sum.simulate_s);
    channels.push_back(sum.channels_s);
    woss.push_back(sum.woss_s);
    coupling.push_back(sum.coupling_s);
    const auto t0 = Clock::now();
    std::size_t gates = 0;
    for (const std::string& text : texts) {
      gates += static_cast<std::size_t>(netlist::parse_bench_string(text).num_gates_logic());
    }
    parse.push_back(seconds_since(t0) * 1e3);
    if (gates == 0) std::abort();  // keeps the parses observable
  }
  out.set("sim.simulate_s", best(sim));
  out.set("layout.channels_s", best(channels));
  out.set("layout.woss_s", best(woss));
  out.set("layout.coupling_s", best(coupling));
  out.set("netlist.parse_ms", best(parse));
}

// ---- the run mode -----------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double inject = 0.0;  ///< share of each OGWS iteration's time to spin
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver run|circuits|layers|calibrate --workload table1 "
               "--seed N --seconds S --trace 0|1 [--inject F]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--inject") {
      args.inject = std::stod(value);
    } else {
      usage("unknown argument " + arg);
    }
  }
  return args;
}

/// Per-repetition sums of the traced layer quantities.
struct LayerRep {
  double elaborate_s = 0, simulate_s = 0, bounds_s = 0, size_s = 0, lrs_s = 0;
  double iteration_s = 0;
  double unaccounted_frac = 0;
  std::map<std::string, double> self;
};

Json job_json(const JobRun& run) {
  Json j = Json::object();
  j.set("name", run.name);
  j.set("ok", run.ok);
  j.set("area_um2", run.area);
  j.set("dual", run.dual);
  j.set("iterations", run.iterations);
  j.set("converged", run.converged);
  j.set("capped", run.capped);
  j.set("violation", run.violation);
  j.set("components", static_cast<std::int64_t>(run.components));
  return j;
}

int cmd_run(const Args& args) {
  if (args.workload != "table1") usage("run mode needs --workload table1");
  // Set-up: generate the inputs, on the vCPU fastest at that moment. It is
  // timed again before every repetition of the job list, so its samples
  // spread over the run like the jobs' own; the median is setup_s.
  const cpu_set_t allowed = allowed_cpus();
  std::vector<double> setups;
  auto set_up = [&] {
    move_to_fastest_cpu(allowed);
    const auto t0 = Clock::now();
    std::vector<Input> generated = table1_inputs(args.seed);
    setups.push_back(seconds_since(t0));
    return generated;
  };
  const std::vector<Input> inputs = set_up();

  // Timed part: repeat the job list until --seconds have passed. A traced
  // run alternates untraced and traced repetitions so the two walls give
  // the tracing overhead.
  std::vector<double> walls, traced_walls;
  std::map<std::string, JobSteps> steps;
  std::vector<LayerRep> layer_reps;
  std::vector<JobRun> first;  // the first repetition's results
  long long ops = 0, ops_failed = 0;
  Json failures = Json::array();
  auto fail = [&](const std::string& what) {
    ++ops_failed;
    if (failures.size() < 20) {
      Json entry(what);  // named: GCC 12 -Wmaybe-uninitialized false positive
      failures.push_back(std::move(entry));
    }
  };
  const auto loop0 = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    const std::size_t done = args.trace ? std::min(walls.size(), traced_walls.size())
                                        : walls.size();
    if (done >= kMinReps && seconds_since(loop0) >= args.seconds) break;
    set_up();
    std::optional<obs::TraceSession> trace;
    if (traced) trace.emplace();
    obs::TraceSession* tp = traced ? &*trace : nullptr;
    std::vector<JobRun> runs;
    for (const Input& input : inputs) {
      const std::uint64_t place_begin = tp != nullptr ? tp->now_us() : 0;
      move_to_fastest_cpu(allowed);
      if (tp != nullptr) tp->record("place", "bench", place_begin, tp->now_us());
      runs.push_back(run_job(input, tp, args.inject));
    }
    double jobs_wall = 0.0;
    for (std::size_t j = 0; j < runs.size(); ++j) {
      const JobRun& run = runs[j];
      ++ops;
      jobs_wall += run.wall_s;
      steps[run.name].add(run);
      if (!run.ok) {
        fail(run.name + ": " + run.error);
      } else if (run.violation > run.feas_tol * (1.0 + 1e-9)) {
        fail(run.name + ": infeasible, violation " + std::to_string(run.violation));
      } else if (!first.empty() && (run.area != first[j].area || run.iterations != first[j].iterations)) {
        fail(run.name + ": result differs between repetitions");
      }
    }
    if (first.empty()) first = runs;
    (traced ? traced_walls : walls).push_back(jobs_wall);
    if (traced) {
      const auto spans = tp->spans();
      LayerRep lr;
      for (const JobRun& run : runs) {
        lr.elaborate_s += run.elaborate_s;
        lr.simulate_s += run.simulate_s;
        lr.bounds_s += run.bounds_s;
        lr.size_s += run.size_s;
        for (double t : run.iteration_s) lr.iteration_s += t;
      }
      lr.lrs_s = sum_spans(spans, "lrs_pass");
      lr.self = self_times(spans);
      lr.unaccounted_frac = unaccounted_frac(lr.self, spans);
      layer_reps.push_back(std::move(lr));
    }
  }

  Json out = Json::object();
  out.set("workload", args.workload);
  out.set("build_type", PERFBENCH_BUILD_TYPE);
  out.set("compiler", PERFBENCH_COMPILER);
  out.set("ops", static_cast<std::int64_t>(ops));
  out.set("ops_failed", static_cast<std::int64_t>(ops_failed));
  out.set("failures", failures);
  out.set("reps", static_cast<std::int64_t>(walls.size() + traced_walls.size()));
  // Plain repetition walls beside the composed wall_s, so a slowdown the
  // lower envelope filters out (one that hits only some repetitions) shows.
  out.set("rep_wall_median_s", median(walls));
  Json jobs = Json::array();
  for (const JobRun& run : first) jobs.push_back(job_json(run));
  out.set("jobs", jobs);

  std::vector<double> per_job;
  double wall = 0.0;
  for (const auto& [name, job] : steps) {
    per_job.push_back(job.composed() * 1e3);
    wall += job.composed();
  }
  Json metrics = Json::object();
  metrics.set("setup_s", median(setups));
  metrics.set("wall_s", wall);
  metrics.set("job_p50_ms", quantile(per_job, 0.5));
  metrics.set("job_p90_ms", quantile(per_job, 0.9));
  metrics.set("peak_rss_mb", peak_rss_mb());
  out.set("metrics", metrics);

  if (args.trace) {
    Json layers = Json::object();
    auto best_of = [&](auto field) {
      std::vector<double> v;
      for (const LayerRep& lr : layer_reps) v.push_back(field(lr));
      return best(v);
    };
    long long iterations = 0, capped = 0, converged = 0, passes = 0, nodes = 0;
    double pass_components = 0.0, area = 0.0, max_violation = 0.0, max_gap = 0.0, memory = 0.0;
    for (const JobRun& run : first) {
      iterations += run.iterations;
      capped += run.capped ? 1 : 0;
      converged += run.converged ? 1 : 0;
      passes += run.lrs_passes;
      nodes += run.lrs_nodes;
      pass_components += static_cast<double>(run.lrs_passes) * static_cast<double>(run.components);
      area += run.area;
      max_violation = std::max(max_violation, run.violation);
      max_gap = std::max(max_gap, run.rel_gap);
      memory = std::max(memory, run.memory_bytes);
    }
    const double lrs_s = best_of([](const LayerRep& r) { return r.lrs_s; });
    layers.set("session.elaborate_s", best_of([](const LayerRep& r) { return r.elaborate_s; }));
    layers.set("session.simulate_and_order_s",
               best_of([](const LayerRep& r) { return r.simulate_s; }));
    layers.set("session.derive_bounds_s", best_of([](const LayerRep& r) { return r.bounds_s; }));
    layers.set("session.size_s", best_of([](const LayerRep& r) { return r.size_s; }));
    layers.set("session.memory_bytes", memory);
    layers.set("ogws.iterations", static_cast<std::int64_t>(iterations));
    layers.set("ogws.capped_jobs", static_cast<std::int64_t>(capped));
    layers.set("ogws.iteration_ms",
               best_of([](const LayerRep& r) { return r.iteration_s; }) * 1e3 /
                   static_cast<double>(std::max(1LL, iterations)));
    layers.set("ogws.non_lrs_s", best_of([](const LayerRep& r) { return r.size_s - r.lrs_s; }));
    layers.set("lrs.passes", static_cast<std::int64_t>(passes));
    layers.set("lrs.nodes_processed", static_cast<std::int64_t>(nodes));
    layers.set("lrs.s", lrs_s);
    layers.set("lrs.ns_per_node", lrs_s * 1e9 / static_cast<double>(std::max(1LL, nodes)));
    layers.set("lrs.frontier_frac", static_cast<double>(nodes) / std::max(1.0, pass_components));
    layers.set("ogws.area_um2", area);
    layers.set("ogws.max_violation", max_violation);
    layers.set("ogws.rel_gap", max_gap);
    layers.set("ogws.converged_jobs", static_cast<std::int64_t>(converged));
    layers.set("trace.overhead_frac", best(traced_walls) / best(walls) - 1.0);
    double unaccounted = 0.0;
    for (const LayerRep& lr : layer_reps) unaccounted = std::max(unaccounted, lr.unaccounted_frac);
    layers.set("trace.unaccounted_frac", unaccounted);
    Json self = Json::object();
    for (const auto& [layer, s] : layer_reps.front().self) self.set(layer, s);
    out.set("self_s", self);
    layers.set("netlist.generate_s", median(setups));

    std::vector<const Input*> circuits;
    const Input* largest = &inputs.front();
    for (const Input& in : inputs) {
      circuits.push_back(&in);
      if (in.netlist.num_gates_logic() > largest->netlist.num_gates_logic()) largest = &in;
    }
    time_standalone(circuits, kMinReps, layers);
    time_kernels(largest->netlist, layers);

    // Figure 10(b): size seconds per OGWS iteration against component
    // count, over the ten profiles (first repetition) plus the ×10 c7552
    // circuit sized once, so the fit spans 0.6k–99k components.
    std::vector<double> xs, ys;
    for (const JobRun& run : first) {
      xs.push_back(static_cast<double>(run.components));
      ys.push_back(run.size_s / std::max(1, run.iterations));
    }
    const JobRun large = run_job(large_input(), nullptr, 0.0);
    xs.push_back(static_cast<double>(large.components));
    ys.push_back(large.size_s / std::max(1, large.iterations));
    out.set("large", job_json(large));
    const util::LinearFit fit = util::fit_line(xs, ys);
    layers.set("fig10b.ns_per_node_iter", fit.slope * 1e9);
    layers.set("fig10b.r2", fit.r_squared);
    out.set("layers", layers);
  }
  std::cout << out.dump() << "\n";
  return 0;
}

// ---- serve_mix helpers ------------------------------------------------------

int cmd_circuits() {
  std::vector<double> gen;
  ServeScript script;
  for (std::size_t i = 0; i < kMinReps; ++i) {
    const auto t0 = Clock::now();
    script = serve_circuits();
    gen.push_back(seconds_since(t0));
  }
  Json out = Json::object();
  out.set("build_type", PERFBENCH_BUILD_TYPE);
  out.set("compiler", PERFBENCH_COMPILER);
  out.set("generate_s", median(gen));
  Json warm = Json::array();
  for (double bound : kWarmNoiseBounds) {
    Json value(bound);  // named: GCC 12 -Wmaybe-uninitialized false positive
    warm.push_back(std::move(value));
  }
  out.set("warm_noise_bounds", warm);
  Json chains = Json::array();
  for (int c = 0; c < kServeChains; ++c) {
    Json chain = Json::object();
    chain.set("name", script.bases[c].name);
    chain.set("base", netlist::to_bench_string(script.bases[c].netlist));
    Json revs = Json::array();
    for (const Input& rev : script.revisions[c]) revs.push_back(netlist::to_bench_string(rev.netlist));
    chain.set("revisions", revs);
    chains.push_back(chain);
  }
  out.set("chains", chains);
  std::cout << out.dump() << "\n";
  return 0;
}

int cmd_layers() {
  const auto t0 = Clock::now();
  const ServeScript script = serve_circuits();
  Json layers = Json::object();
  layers.set("netlist.generate_s", seconds_since(t0));
  time_standalone(serve_sized(script), 1, layers);
  time_kernels(script.bases.back().netlist, layers);
  std::cout << layers.dump() << "\n";
  return 0;
}

/// The allowed CPUs, fastest first (see rank_cpus), for run.py's placement
/// of the serve_mix server and client.
int cmd_calibrate() {
  Json ranking = Json::array();
  for (const auto& [seconds, cpu] : rank_cpus(allowed_cpus())) {
    Json value(cpu);  // named: GCC 12 -Wmaybe-uninitialized false positive
    ranking.push_back(std::move(value));
  }
  std::cout << ranking.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench_driver: assertions are enabled; refusing to report numbers "
               "from a non-Release build\n";
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench_driver: build type '" << PERFBENCH_BUILD_TYPE
              << "' is not Release; refusing to report numbers\n";
    return 3;
  }
  const Args args = parse_args(argc, argv);
  std::cerr << "perfbench_driver: build " << PERFBENCH_BUILD_TYPE << ", compiler "
            << PERFBENCH_COMPILER << "\n";
  if (args.mode == "run") return cmd_run(args);
  if (args.mode == "circuits") return cmd_circuits();
  if (args.mode == "layers") return cmd_layers();
  if (args.mode == "calibrate") return cmd_calibrate();
  usage("unknown mode " + args.mode);
}
