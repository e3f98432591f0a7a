// ECO-vs-cold speedup trajectory (docs/ECO.md).
//
// Cold-sizes a seeded >=5k-node generator circuit once, then applies
// seeded op-flip edits of increasing size (0.5% .. 5% of the gates; flips
// stay within the AND/OR, NAND/NOR, XOR/XNOR pairs so arity and the
// elaborated structure are unchanged) and re-sizes every revision twice:
// cold, and ECO-warm-started from the base run the way the serve loop
// seeds a cache miss (eco::seed_from_index, then runtime::run_job with the
// seed as BatchJob::warm). The committed bench/BENCH_eco.json
// (lrsizer-bench-eco-v1) records the iteration and wall-clock trajectory;
// CI's eco-smoke job re-generates and uploads it, and test_eco asserts the
// 1%-edit row's contract (ECO iterations <= 1/3 cold, same KKT tolerance)
// with slack.
//
// That circuit converges cold in ~10 iterations, the easy case. The `deep`
// block adds a depth-40 circuit that takes ~60 cold iterations and sizes
// each request kind the serve cache seeds: the same circuit under noise
// bound 0.11 (seeded from the 0.10 base) and 0.12 (seeded from the 0.11
// result), and three 1% op flips seeded from the base. CI requires each
// kind to take no more iterations seeded than cold.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "eco/incremental.hpp"
#include "runtime/batch.hpp"
#include "runtime/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lrsizer;

/// Op flip that keeps arity (and, by differentiate_gate_types's default,
/// the elaborated circuit) unchanged.
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

/// Rebuild `base` with a seeded `fraction` of its flippable gates' ops
/// flipped. Gate names, order, fanins and output marks are preserved, so
/// the revision differs from the base in ops only.
netlist::LogicNetlist flip_ops(const netlist::LogicNetlist& base,
                               double fraction, std::uint64_t seed,
                               std::size_t* edited) {
  std::vector<std::int32_t> candidates;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    if (flipped(base.gate(g).op) != base.gate(g).op) candidates.push_back(g);
  }
  util::Rng rng(seed);
  for (std::size_t i = candidates.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(candidates[i - 1], candidates[rng.next_below(i)]);
  }
  std::size_t num_edits = static_cast<std::size_t>(
      fraction * static_cast<double>(base.num_real_gates()) + 0.5);
  if (num_edits == 0) num_edits = 1;
  if (num_edits > candidates.size()) num_edits = candidates.size();
  const std::unordered_set<std::int32_t> edits(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(num_edits));

  netlist::LogicNetlist revised;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    const netlist::LogicGate& gate = base.gate(g);
    if (gate.op == netlist::LogicOp::kInput) {
      revised.add_input(gate.name);
    } else {
      revised.add_gate(gate.name,
                       edits.count(g) != 0 ? flipped(gate.op) : gate.op,
                       gate.fanin);
    }
    if (base.is_primary_output(g)) revised.mark_output(g);
  }
  revised.finalize();
  *edited = num_edits;
  return revised;
}

struct Run {
  core::FlowSummary summary;
  double seconds = 0.0;
};

Run run_cold(const netlist::LogicNetlist& netlist,
             const core::FlowOptions& options) {
  Run run;
  util::WallTimer timer;
  api::SizingSession session(netlist, options);
  const api::Status status = session.run_all();
  LRSIZER_ASSERT_MSG(status.ok(), status.to_string().c_str());
  run.summary = session.summary();
  run.seconds = timer.seconds();
  return run;
}

/// A revision re-sized from a base snapshot: the seed's reuse accounting
/// (its warm part moved into the job) and the run's outcome.
struct Seeded {
  eco::EcoSeed seed;
  runtime::JobOutcome outcome;
};

/// Seed `netlist` from `index` and size it, as the serve loop does on a
/// cache miss. A seed with nothing reusable leaves the run cold.
Seeded run_seeded(const netlist::LogicNetlist& netlist,
                  const core::FlowOptions& options,
                  const runtime::EcoIndex& index) {
  Seeded seeded;
  seeded.seed = eco::seed_from_index(netlist, options, index);
  runtime::BatchJob job;
  job.name = "eco";
  job.netlist = netlist;
  job.options = options;
  job.warm = std::move(seeded.seed.warm);
  seeded.outcome = runtime::run_job(std::move(job));
  LRSIZER_ASSERT_MSG(seeded.outcome.ok, seeded.outcome.error.c_str());
  return seeded;
}

/// One seeded request of the deep block and its cold twin: `netlist` sized
/// cold and seeded from `index` under `options`, printed into `table`.
/// `seeded_flow` receives the seeded run's result when non-null.
runtime::Json deep_row(const char* kind, const netlist::LogicNetlist& netlist,
                       const core::FlowOptions& options,
                       const runtime::EcoIndex& index, util::TextTable& table,
                       std::optional<core::FlowResult>* seeded_flow = nullptr) {
  const Run cold = run_cold(netlist, options);
  Seeded seeded = run_seeded(netlist, options, index);
  const core::FlowSummary& warm = seeded.outcome.summary;
  table.add_row({kind, util::TextTable::num(options.bound_factors.noise, 2),
                 util::TextTable::integer(cold.summary.iterations),
                 util::TextTable::integer(warm.iterations),
                 util::TextTable::num(warm.max_violation, 4),
                 util::TextTable::num(
                     100.0 * (warm.area_um2 / cold.summary.area_um2 - 1.0), 2)});

  runtime::Json row = runtime::Json::object();
  row.set("kind", kind);
  row.set("noise_bound", options.bound_factors.noise);
  row.set("cold_iterations", static_cast<std::int64_t>(cold.summary.iterations));
  row.set("seeded_iterations", static_cast<std::int64_t>(warm.iterations));
  row.set("cold_max_violation", cold.summary.max_violation);
  row.set("seeded_max_violation", warm.max_violation);
  row.set("cold_area_um2", cold.summary.area_um2);
  row.set("seeded_area_um2", warm.area_um2);
  if (seeded_flow != nullptr) *seeded_flow = std::move(seeded.outcome.flow);
  return row;
}

/// The deep block: a depth-40, 1.5k-gate circuit (generator seed 137, the
/// first seed after serve_mix's 101-112 whose cold run takes >= 60
/// iterations), sized cold and seeded for every request kind.
runtime::Json deep_block() {
  netlist::GeneratorSpec spec;
  spec.num_gates = 1500;
  spec.num_wires = 2700;
  spec.num_inputs = 60;
  spec.num_outputs = 40;
  spec.depth = 40;
  spec.seed = 137;
  const netlist::LogicNetlist base = netlist::generate_circuit(spec);
  const auto options_at = [](double noise) {
    core::FlowOptions options = bench::paper_flow_options();
    options.bound_factors.noise = noise;
    return options;
  };

  api::SizingSession session(base, options_at(0.10));
  const api::Status status = session.run_all();
  LRSIZER_ASSERT_MSG(status.ok(), status.to_string().c_str());
  const core::FlowSummary base_summary = session.summary();
  const core::FlowResult base_result = session.take_result();
  const runtime::EcoIndex base_index = eco::build_eco_index(base, base_result);
  std::printf("\ndeep: #G=%d depth %d, %lld circuit nodes, base %d iterations\n\n",
              base_summary.num_gates, spec.depth,
              static_cast<long long>(base_result.circuit.num_nodes()),
              base_summary.iterations);

  util::TextTable table(
      {"kind", "noise", "cold ite", "seeded ite", "seeded viol", "area vs cold %"});
  runtime::Json rows = runtime::Json::array();
  std::optional<core::FlowResult> at_011;
  rows.push_back(deep_row("warm", base, options_at(0.11), base_index, table, &at_011));
  rows.push_back(deep_row("warm", base, options_at(0.12),
                          eco::build_eco_index(base, *at_011), table));
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::size_t edited = 0;
    rows.push_back(deep_row("eco", flip_ops(base, 0.01, seed, &edited),
                            options_at(0.10), base_index, table));
  }
  table.print(std::cout);

  runtime::Json circuit = runtime::Json::object();
  circuit.set("generator_seed", static_cast<std::int64_t>(spec.seed));
  circuit.set("gates", static_cast<std::int64_t>(base_summary.num_gates));
  circuit.set("wires", static_cast<std::int64_t>(base_summary.num_wires));
  circuit.set("depth", static_cast<std::int64_t>(spec.depth));
  circuit.set("nodes", base_result.circuit.num_nodes());
  circuit.set("edges", base_result.circuit.num_edges());
  runtime::Json base_doc = runtime::Json::object();
  base_doc.set("iterations", static_cast<std::int64_t>(base_summary.iterations));
  base_doc.set("max_violation", base_summary.max_violation);
  base_doc.set("area_um2", base_summary.area_um2);
  runtime::Json deep = runtime::Json::object();
  deep.set("circuit", circuit);
  deep.set("base", base_doc);
  deep.set("rows", rows);
  return deep;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_eco.json";

  netlist::GeneratorSpec spec;
  spec.num_gates = 2000;
  spec.num_wires = 3200;
  spec.num_inputs = 64;
  spec.num_outputs = 32;
  spec.depth = 20;
  spec.seed = 7;
  const netlist::LogicNetlist base = netlist::generate_circuit(spec);
  const core::FlowOptions options = bench::paper_flow_options();

  std::printf("ECO re-sizing vs cold (docs/ECO.md)\n\n");
  util::WallTimer base_timer;
  api::SizingSession base_session(base, options);
  const api::Status base_status = base_session.run_all();
  LRSIZER_ASSERT_MSG(base_status.ok(), base_status.to_string().c_str());
  const core::FlowSummary base_summary = base_session.summary();
  const core::FlowResult base_result = base_session.take_result();
  const double base_seconds = base_timer.seconds();
  std::printf("base: #G=%d #W=%d, %lld circuit nodes, %d iterations, %.2f s\n\n",
              base_summary.num_gates, base_summary.num_wires,
              static_cast<long long>(base_result.circuit.num_nodes()),
              base_summary.iterations, base_seconds);
  LRSIZER_ASSERT_MSG(base_result.circuit.num_nodes() >= 5000,
                     "acceptance wants a >=5k-node circuit");

  const runtime::EcoIndex base_index = eco::build_eco_index(base, base_result);

  runtime::Json rows = runtime::Json::array();
  util::TextTable table({"edit%", "edited", "dirty", "reused", "cold ite",
                         "eco ite", "ratio", "cold s", "eco s", "speedup"});
  for (const double fraction : {0.005, 0.01, 0.02, 0.05}) {
    std::size_t edited = 0;
    const netlist::LogicNetlist revised =
        flip_ops(base, fraction, 1000 + static_cast<std::uint64_t>(1e4 * fraction),
                 &edited);

    const Run cold = run_cold(revised, options);

    util::WallTimer eco_timer;
    const Seeded eco = run_seeded(revised, options, base_index);
    const double eco_seconds = eco_timer.seconds();

    const double ratio =
        cold.summary.iterations > 0
            ? static_cast<double>(eco.outcome.summary.iterations) /
                  static_cast<double>(cold.summary.iterations)
            : 0.0;
    table.add_row({util::TextTable::num(100.0 * fraction, 1),
                   util::TextTable::integer(static_cast<long long>(edited)),
                   util::TextTable::integer(eco.seed.dirty_gates),
                   util::TextTable::integer(static_cast<long long>(eco.seed.reused_nodes)),
                   util::TextTable::integer(cold.summary.iterations),
                   util::TextTable::integer(eco.outcome.summary.iterations),
                   util::TextTable::num(ratio, 3),
                   util::TextTable::num(cold.seconds, 2),
                   util::TextTable::num(eco_seconds, 2),
                   util::TextTable::num(
                       eco_seconds > 0.0 ? cold.seconds / eco_seconds : 0.0, 2)});

    runtime::Json row = runtime::Json::object();
    row.set("edit_fraction", fraction);
    row.set("edited_gates", static_cast<std::int64_t>(edited));
    row.set("dirty_gates", static_cast<std::int64_t>(eco.seed.dirty_gates));
    row.set("clean_gates", static_cast<std::int64_t>(eco.seed.clean_gates));
    row.set("reused_nodes", eco.seed.reused_nodes);
    row.set("cold_iterations", static_cast<std::int64_t>(cold.summary.iterations));
    row.set("eco_iterations", static_cast<std::int64_t>(eco.outcome.summary.iterations));
    row.set("iteration_ratio", ratio);
    row.set("cold_seconds", cold.seconds);
    row.set("eco_seconds", eco_seconds);
    row.set("cold_max_violation", cold.summary.max_violation);
    row.set("eco_max_violation", eco.outcome.summary.max_violation);
    rows.push_back(row);
  }
  table.print(std::cout);

  runtime::Json circuit = runtime::Json::object();
  circuit.set("generator_seed", static_cast<std::int64_t>(spec.seed));
  circuit.set("gates", static_cast<std::int64_t>(base_summary.num_gates));
  circuit.set("wires", static_cast<std::int64_t>(base_summary.num_wires));
  circuit.set("nodes", base_result.circuit.num_nodes());
  circuit.set("edges", base_result.circuit.num_edges());

  runtime::Json doc = runtime::Json::object();
  doc.set("schema", "lrsizer-bench-eco-v1");
  doc.set("circuit", circuit);
  runtime::Json base_doc = runtime::Json::object();
  base_doc.set("iterations", static_cast<std::int64_t>(base_summary.iterations));
  base_doc.set("seconds", base_seconds);
  base_doc.set("max_violation", base_summary.max_violation);
  doc.set("base", base_doc);
  doc.set("rows", rows);
  doc.set("deep", deep_block());

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_eco: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.dump(2) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
