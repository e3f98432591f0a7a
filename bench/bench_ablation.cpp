// Ablation bench (docs/ARCHITECTURE.md §Benches): the design choices the
// paper makes, each toggled on a fixed mid-size circuit (the c432 profile):
//
//   1. noise constraint on vs off (off = reference [3], delay-only LR)
//   2. stage-1 WOSS ordering on vs off
//   3. Miller weighting of the noise constraint on vs off
//   4. per-net (distributed) noise bounds instead of the total bound
//   5. additive subgradient step instead of the multiplicative update
//   6. the TILOS greedy baseline at the same delay bound
//   7. posynomial order k for the noise metric at the final sizes
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/baselines.hpp"
#include "core/tilos.hpp"
#include "timing/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lrsizer;

struct RunResult {
  timing::Metrics fin;
  int iterations;
  double lrs_passes_avg;
  double seconds;
  double noise_vs_bound;
};

RunResult run(const core::FlowOptions& options) {
  util::WallTimer timer;
  const auto flow = bench::run_profile("c432", 1, options);
  double passes = 0.0;
  for (const auto& it : flow.ogws.history) passes += it.lrs_passes;
  return RunResult{flow.final_metrics, flow.ogws.iterations,
                   flow.ogws.history.empty()
                       ? 0.0
                       : passes / static_cast<double>(flow.ogws.history.size()),
                   timer.seconds(),
                   flow.final_metrics.noise_f / flow.bounds.noise_f};
}

void add_row(util::TextTable& t, const char* label, const RunResult& r) {
  t.add_row({label, util::TextTable::num(r.fin.area_um2, 0),
             util::TextTable::num(r.fin.delay_s * 1e12, 1),
             util::TextTable::num(r.fin.noise_f * 1e15, 1),
             util::TextTable::num(r.noise_vs_bound, 2),
             util::TextTable::integer(r.iterations),
             util::TextTable::num(r.lrs_passes_avg, 1),
             util::TextTable::num(r.seconds, 2)});
}

}  // namespace

int main() {
  using namespace lrsizer;

  std::printf("Ablations on the c432 profile (bounds as in Table 1)\n\n");
  util::TextTable table({"variant", "area(um2)", "delay(ps)", "noise(fF)",
                         "noise/X0", "ite", "lrs passes", "time(s)"});

  const auto base_options = bench::paper_flow_options();
  add_row(table, "full flow (paper)", run(base_options));

  {
    auto o = base_options;
    o.bound_factors.noise = 1e6;  // delay-only LR sizing = reference [3]
    o.bound_factors.power = 1e6;
    add_row(table, "delay-only LR [3]", run(o));
  }
  {
    auto o = base_options;
    o.use_woss = false;
    add_row(table, "no WOSS ordering", run(o));
  }
  {
    auto o = base_options;
    o.neighbors.fold_miller = false;
    add_row(table, "no Miller weighting", run(o));
  }
  {
    auto o = base_options;
    o.bound_factors.per_net_noise = 0.10;  // distributed bounds (§4.1 note)
    add_row(table, "per-net noise bounds", run(o));
  }
  {
    auto o = base_options;
    o.ogws.step_rule = core::StepRule::kSubgradient;
    o.ogws.step0 = 0.25;
    add_row(table, "additive subgradient", run(o));
  }
  table.print(std::cout);

  // TILOS greedy baseline at the same delay bound (delay-only by nature).
  {
    const auto flow2 = bench::run_profile("c432");
    util::WallTimer timer;
    const auto tilos = core::run_tilos(flow2.circuit, flow2.coupling,
                                       flow2.bounds.delay_s);
    std::vector<double> x = tilos.sizes;
    const auto m = timing::compute_metrics(flow2.circuit, flow2.coupling, x);
    std::printf("\nTILOS greedy baseline (delay bound only): area %.0f um2, "
                "delay %.1f ps, noise %.1f fF (%.2f x X0), %d moves, %.2f s\n",
                m.area_um2, m.delay_s * 1e12, m.noise_f * 1e15,
                m.noise_f / flow2.bounds.noise_f, tilos.moves, timer.seconds());
  }

  // Posynomial order: evaluate the noise model error at the final sizes.
  std::printf("\nposynomial order (noise model at final sizes of the full flow):\n\n");
  const auto flow = bench::run_profile("c432", 1, base_options);
  const auto& x = flow.circuit.sizes();
  const double exact = flow.coupling.noise_exact(x);
  util::TextTable posy({"k", "noise(fF)", "err vs exact %"});
  for (int k = 2; k <= 5; ++k) {
    const double v = flow.coupling.noise_posynomial(x, k);
    posy.add_row({util::TextTable::integer(k), util::TextTable::num(v * 1e15, 2),
                  util::TextTable::num(100.0 * (exact - v) / exact, 3)});
  }
  posy.print(std::cout);
  return 0;
}
