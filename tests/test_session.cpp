// Tests for the staged session API (api/session.hpp): stage-by-stage
// equivalence with run_all(), option validation, progress observation,
// cooperative cancellation, and warm-starting.
#include <gtest/gtest.h>

#include <cmath>
#include <stop_token>
#include <string>
#include <vector>

#include "api/options.hpp"
#include "api/session.hpp"
#include "core/flow.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lrsizer;

/// c17 with the feasible bound factors (the Table-1 defaults are marginally
/// infeasible on a circuit this shallow; see test_flow.cpp).
core::FlowOptions c17_options() {
  core::FlowOptions options;
  options.bound_factors.delay = 1.15;
  options.bound_factors.noise = 0.12;
  return options;
}

netlist::LogicNetlist c17() {
  return netlist::parse_bench_string(netlist::kIscas85C17);
}

netlist::LogicNetlist small_generated(std::uint64_t seed = 3) {
  netlist::GeneratorSpec spec;
  spec.num_gates = 60;
  spec.num_wires = 140;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.seed = seed;
  return netlist::generate_circuit(spec);
}

// ---- stage-by-stage equivalence ---------------------------------------------

TEST(Session, StageByStageMatchesOneShotBitIdentically) {
  const auto logic = small_generated();
  const auto one_shot = test_support::run_flow(logic);

  api::SizingSession session(logic, {});
  EXPECT_EQ(session.next_stage(), api::SizingSession::Stage::kElaborate);
  ASSERT_TRUE(session.elaborate().ok());
  EXPECT_EQ(session.next_stage(), api::SizingSession::Stage::kSimulateAndOrder);
  ASSERT_TRUE(session.simulate_and_order().ok());
  EXPECT_EQ(session.next_stage(), api::SizingSession::Stage::kDeriveBounds);
  ASSERT_TRUE(session.derive_bounds().ok());
  EXPECT_EQ(session.next_stage(), api::SizingSession::Stage::kSize);
  ASSERT_TRUE(session.size().ok());
  EXPECT_TRUE(session.finished());
  ASSERT_TRUE(session.has_result());

  const core::FlowResult& staged = session.result();
  // Bit-exact: same code path, same order of operations.
  EXPECT_EQ(staged.circuit.sizes(), one_shot.circuit.sizes());
  EXPECT_EQ(staged.ogws.iterations, one_shot.ogws.iterations);
  EXPECT_EQ(staged.ogws.converged, one_shot.ogws.converged);
  EXPECT_EQ(staged.final_metrics.area_um2, one_shot.final_metrics.area_um2);
  EXPECT_EQ(staged.final_metrics.noise_f, one_shot.final_metrics.noise_f);
  EXPECT_EQ(staged.final_metrics.delay_s, one_shot.final_metrics.delay_s);
  EXPECT_EQ(staged.init_metrics.area_um2, one_shot.init_metrics.area_um2);
  EXPECT_EQ(staged.bounds.delay_s, one_shot.bounds.delay_s);
  EXPECT_EQ(staged.bounds.noise_f, one_shot.bounds.noise_f);
  EXPECT_EQ(staged.ordering_cost_initial, one_shot.ordering_cost_initial);
  EXPECT_EQ(staged.ordering_cost_woss, one_shot.ordering_cost_woss);
  EXPECT_EQ(staged.memory_bytes, one_shot.memory_bytes);
  EXPECT_EQ(staged.net_of_node, one_shot.net_of_node);
}

TEST(Session, RunAllMatchesStageByStage) {
  const auto logic = c17();
  api::SizingSession all(logic, c17_options());
  ASSERT_TRUE(all.run_all().ok());

  api::SizingSession staged(logic, c17_options());
  ASSERT_TRUE(staged.elaborate().ok());
  ASSERT_TRUE(staged.run_all().ok());  // picks up from the next stage

  EXPECT_EQ(all.result().circuit.sizes(), staged.result().circuit.sizes());
  EXPECT_EQ(all.summary().iterations, staged.summary().iterations);
}

// ---- stage-order and input discipline ---------------------------------------

TEST(Session, OutOfOrderStagesAreRejected) {
  api::SizingSession session(c17(), c17_options());
  const api::Status premature = session.size();
  EXPECT_EQ(premature.code(), api::StatusCode::kFailedPrecondition);
  EXPECT_NE(premature.message().find("elaborate"), std::string::npos);

  ASSERT_TRUE(session.elaborate().ok());
  const api::Status repeat = session.elaborate();
  EXPECT_EQ(repeat.code(), api::StatusCode::kFailedPrecondition);

  ASSERT_TRUE(session.run_all().ok());
  const api::Status after_done = session.derive_bounds();
  EXPECT_EQ(after_done.code(), api::StatusCode::kFailedPrecondition);
  EXPECT_NE(after_done.message().find("one-shot"), std::string::npos);
}

TEST(Session, UnfinalizedNetlistIsAStatusNotACrash) {
  api::SizingSession session(netlist::LogicNetlist{}, {});
  const api::Status status = session.elaborate();
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("not finalized"), std::string::npos);
  EXPECT_FALSE(session.has_result());
}

TEST(Session, InvalidOptionsAreAStatusNotACrash) {
  core::FlowOptions options;
  options.bound_factors.noise = -0.1;
  api::SizingSession session(c17(), options);
  const api::Status status = session.elaborate();
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bound_factors.noise"), std::string::npos);
}

TEST(Session, SimulationRowsPastTheBudgetAreRefusedBeforeAllocation) {
  // Stage 1 keeps nets × ⌈T/64⌉ words; these windows would need far more
  // than its fixed budget, and one of them (2^62 ticks × 4 vectors) would
  // overflow T itself. Each is refused by name before any vector exists.
  struct Window {
    std::int32_t num_vectors;
    sim::SimTime vector_period;
  };
  for (const Window window : {Window{2147483647, 64}, Window{1, sim::SimTime{1} << 40},
                              Window{4, sim::SimTime{1} << 62}}) {
    core::FlowOptions options = c17_options();
    options.num_vectors = window.num_vectors;
    options.sim.vector_period = window.vector_period;
    api::SizingSession session(c17(), options);
    ASSERT_TRUE(session.elaborate().ok());
    const api::Status status = session.simulate_and_order();
    EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument) << window.num_vectors;
    EXPECT_NE(status.message().find("num_vectors"), std::string::npos) << status.message();
  }
  // A window inside the budget still runs: c17's 11 nets at 4096 vectors.
  core::FlowOptions options = c17_options();
  options.num_vectors = 4096;
  api::SizingSession session(c17(), options);
  ASSERT_TRUE(session.elaborate().ok());
  EXPECT_TRUE(session.simulate_and_order().ok());
}

// ---- option validation ------------------------------------------------------

// OptionsBuilder.*: validate_options and its field-naming messages.
TEST(OptionsBuilder, RejectsInconsistentParamsWithReadableMessages) {
  core::FlowOptions bad_noise_options;
  bad_noise_options.bound_factors.noise = 0.0;
  const api::Status bad_noise = api::validate_options(bad_noise_options);
  EXPECT_EQ(bad_noise.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(bad_noise.message().find("bound_factors.noise"), std::string::npos);
  EXPECT_NE(bad_noise.message().find("got 0"), std::string::npos);

  core::FlowOptions bad_box_options;
  bad_box_options.tech.min_size = 5.0;
  bad_box_options.tech.max_size = 1.0;
  const api::Status bad_box = api::validate_options(bad_box_options);
  EXPECT_EQ(bad_box.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(bad_box.message().find("size box"), std::string::npos);

  core::FlowOptions bad_vectors_options;
  bad_vectors_options.num_vectors = 0;
  const api::Status bad_vectors = api::validate_options(bad_vectors_options);
  EXPECT_EQ(bad_vectors.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(bad_vectors.message().find("num_vectors"), std::string::npos);

  // A zero gate delay used to pass validation and abort inside sim::simulate.
  core::FlowOptions bad_delay_options;
  bad_delay_options.sim.gate_delay = 0;
  const api::Status bad_delay = api::validate_options(bad_delay_options);
  EXPECT_EQ(bad_delay.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(bad_delay.message().find("sim.gate_delay"), std::string::npos);

  core::FlowOptions bad_init_options;
  bad_init_options.initial_size = 50.0;
  const api::Status bad_init = api::validate_options(bad_init_options);
  EXPECT_EQ(bad_init.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(bad_init.message().find("initial_size"), std::string::npos);
}

// ---- progress observation ---------------------------------------------------

TEST(Session, ObserverSeesEveryIterationInOrder) {
  api::SizingSession session(c17(), c17_options());
  std::vector<core::OgwsIterate> seen;
  session.set_observer([&seen](const core::OgwsIterate& it) { seen.push_back(it); });
  ASSERT_TRUE(session.run_all().ok());

  const core::FlowSummary summary = session.summary();
  ASSERT_EQ(static_cast<int>(seen.size()), summary.iterations);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].k, static_cast<int>(i) + 1);
    EXPECT_GT(seen[i].area, 0.0);
  }
  // The last observed iterate carries the converged certificate.
  EXPECT_LE(seen.back().rel_gap, session.options().ogws.gap_tol);
  EXPECT_EQ(seen.back().dual, summary.dual);
}

// ---- cancellation -----------------------------------------------------------

TEST(Session, CancelMidOgwsYieldsUsablePartialSummary) {
  std::stop_source source;
  api::SizingSession session(c17(), c17_options());
  session.set_stop_token(source.get_token());
  int iterations_seen = 0;
  session.set_observer([&](const core::OgwsIterate&) {
    if (++iterations_seen == 3) source.request_stop();
  });

  const api::Status status = session.run_all();
  EXPECT_EQ(status.code(), api::StatusCode::kCancelled);
  EXPECT_TRUE(session.cancelled());
  ASSERT_TRUE(session.has_result());

  // The partial summary is fully populated and flagged.
  const core::FlowSummary partial = session.summary();
  EXPECT_TRUE(partial.cancelled);
  EXPECT_FALSE(partial.converged);
  EXPECT_EQ(partial.iterations, 3);
  EXPECT_GT(partial.final_metrics.area_um2, 0.0);
  EXPECT_GT(partial.final_metrics.delay_s, 0.0);
  EXPECT_GT(partial.memory_bytes, 0u);

  // The partial sizes respect the box bounds (a usable iterate, not junk).
  const netlist::Circuit& circuit = session.result().circuit;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    EXPECT_GE(circuit.size(v), circuit.lower_bound(v) - 1e-12);
    EXPECT_LE(circuit.size(v), circuit.upper_bound(v) + 1e-12);
  }
}

TEST(Session, RawOgwsPreCancelledStillDescribesItsReturnedSizes) {
  // A stop that lands before the first OGWS iteration (only reachable
  // through raw run_ogws — the session checks the token at the stage
  // boundary first) must still return metric fields that describe the
  // returned sizes, with the certificate gap marked unknown.
  api::SizingSession session(c17(), c17_options());
  ASSERT_TRUE(session.run_all().ok());
  netlist::Circuit circuit = session.result().circuit;
  circuit.set_uniform_size(1.0);

  std::stop_source stopped;
  stopped.request_stop();
  core::OgwsControl control;
  control.stop = stopped.get_token();
  const core::OgwsResult result =
      core::run_ogws(circuit, session.result().coupling, session.result().bounds,
                     core::OgwsOptions{}, control);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.sizes, circuit.sizes());
  EXPECT_GT(result.area, 0.0);           // area of the returned sizes, not 0
  EXPECT_GT(result.max_violation, 0.0);  // unit sizes violate the noise bound
  EXPECT_TRUE(std::isinf(result.rel_gap));  // no certificate computed
}

TEST(Session, PreCancelledTokenStopsAtTheStageBoundary) {
  std::stop_source source;
  source.request_stop();
  api::SizingSession session(c17(), c17_options());
  session.set_stop_token(source.get_token());

  const api::Status status = session.elaborate();
  EXPECT_EQ(status.code(), api::StatusCode::kCancelled);
  EXPECT_TRUE(session.cancelled());
  EXPECT_FALSE(session.has_result());
  // The pipeline did not advance.
  EXPECT_EQ(session.next_stage(), api::SizingSession::Stage::kElaborate);
}

// ---- warm start -------------------------------------------------------------

TEST(Session, WarmStartReconvergesWithinTwoIterations) {
  const auto logic = c17();
  api::SizingSession cold(logic, c17_options());
  ASSERT_TRUE(cold.run_all().ok());
  ASSERT_TRUE(cold.summary().converged);
  ASSERT_GT(cold.summary().iterations, 2);  // the speedup is meaningful

  api::SizingSession warm(logic, c17_options());
  ASSERT_TRUE(warm.warm_start_from(cold.result()).ok());
  ASSERT_TRUE(warm.run_all().ok());

  const core::FlowSummary rerun = warm.summary();
  EXPECT_TRUE(rerun.converged);
  // Identical options: the seeded incumbent + best-dual multipliers
  // reproduce the certificate immediately.
  EXPECT_LE(rerun.iterations, 2);
  EXPECT_LE(rerun.final_metrics.area_um2,
            cold.summary().final_metrics.area_um2 * (1.0 + 1e-9));
}

TEST(Session, WarmStartSurvivesAnOptionsTweak) {
  const auto logic = small_generated(11);
  api::SizingSession cold(logic, {});
  ASSERT_TRUE(cold.run_all().ok());

  // Loosen the noise bound slightly: the warm session must still produce a
  // valid solution (and may converge in fewer iterations than from cold).
  core::FlowOptions tweaked;
  tweaked.bound_factors.noise = 0.12;
  api::SizingSession warm(logic, tweaked);
  ASSERT_TRUE(warm.warm_start_from(cold.result()).ok());
  ASSERT_TRUE(warm.run_all().ok());
  EXPECT_GT(warm.summary().final_metrics.area_um2, 0.0);
  EXPECT_LE(warm.summary().max_violation, 0.05);
}

TEST(Session, WarmStartFromMismatchedCircuitIsRejected) {
  api::SizingSession donor(small_generated(5), {});
  ASSERT_TRUE(donor.run_all().ok());

  api::SizingSession session(c17(), c17_options());
  ASSERT_TRUE(session.warm_start_from(donor.result()).ok());  // defers validation
  ASSERT_TRUE(session.elaborate().ok());
  ASSERT_TRUE(session.simulate_and_order().ok());
  ASSERT_TRUE(session.derive_bounds().ok());
  const api::Status status = session.size();
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("same netlist"), std::string::npos);
  EXPECT_FALSE(session.has_result());
}

TEST(Session, SparseWarmSizesSeedTheRun) {
  const auto logic = c17();
  api::SizingSession cold(logic, c17_options());
  ASSERT_TRUE(cold.run_all().ok());

  // Rebuild the sparse (node, size) list a sized .bench would carry.
  api::WarmSeed seed;
  const netlist::Circuit& circuit = cold.result().circuit;
  for (netlist::NodeId v = circuit.first_component(); v < circuit.end_component();
       ++v) {
    seed.sizes.emplace_back(v, circuit.size(v));
  }

  api::SizingSession warm(logic, c17_options());
  ASSERT_TRUE(warm.warm_start(seed).ok());
  ASSERT_TRUE(warm.run_all().ok());
  // Sizes-only warm start (no multipliers) still cuts the iteration count.
  EXPECT_LT(warm.summary().iterations, cold.summary().iterations);

  // Out-of-range node ids are rejected with the offending id named.
  api::SizingSession bad(logic, c17_options());
  api::WarmSeed out_of_range;
  out_of_range.sizes = {{99999, 1.0}};
  ASSERT_TRUE(bad.warm_start(out_of_range).ok());
  const api::Status status = bad.run_all();
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("99999"), std::string::npos);
}

// ---- one-shot run -----------------------------------------------------------

TEST(Session, RunAllSummaryCarriesNoCancellation) {
  const auto flow = test_support::run_flow(c17(), c17_options());
  EXPECT_FALSE(flow.ogws.cancelled);
  EXPECT_FALSE(core::summarize_flow(flow).cancelled);
  // A taken result feeds warm starts like one read in place.
  api::SizingSession warm(c17(), c17_options());
  EXPECT_TRUE(warm.warm_start_from(flow).ok());
}

}  // namespace
