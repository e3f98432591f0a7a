// Figure 10(b) reproduction: runtime per OGWS iteration vs circuit size.
// The paper plots seconds/iteration growing linearly in #gates+#wires
// (their largest point ~350 s on a 1996 SPARC; ours are milliseconds —
// the reproduced claim is the linear *shape*, quantified by the fit R²).
//
// Two phases, both through the batch runtime (runtime/batch):
//   1. all ten profiles on ONE worker — uncontended per-iteration timings
//      feed the linear fit, and the per-job walls give a sequential baseline;
//   2. the four largest profiles on four workers — wall-clock speedup vs the
//      phase-1 baseline (the results themselves are bit-identical).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace lrsizer;

  std::printf("Figure 10(b) — runtime per iteration vs circuit size\n\n");

  // Fixed iteration count and a fixed number of LRS passes per iteration so
  // every circuit does the same per-iteration work (the paper's own plot
  // scatters where circuit structure changes the pass count; see §5 "some
  // points deviate from the linear line").
  auto options = bench::paper_flow_options();
  options.ogws.max_iterations = 12;
  options.ogws.gap_tol = 0.0;  // never stop early
  options.ogws.record_history = true;
  options.ogws.lrs.max_passes = 6;
  options.ogws.lrs.tol = 0.0;  // always run all 6 passes

  // ---- phase 1: sequential batch, per-iteration timings -------------------
  runtime::BatchOptions sequential_options;
  sequential_options.jobs = 1;
  const runtime::BatchResult sequential =
      runtime::run_batch(bench::paper_profile_jobs(options), sequential_options);

  util::TextTable table(
      {"Ckt", "#G+#W", "ms/iter", "lrs passes/iter", "paper s/iter"});
  std::vector<double> sizes;
  std::vector<double> per_iter;
  const auto& profiles = netlist::iscas85_profiles();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& profile = profiles[i];
    const auto& job = sequential.jobs[i];
    if (!job.ok || !job.flow.has_value()) {
      std::fprintf(stderr, "%s FAILED: %s\n", profile.name.c_str(),
                   job.error.c_str());
      return 1;
    }
    double seconds = 0.0;
    double passes = 0.0;
    for (const auto& it : job.flow->ogws.history) {
      seconds += it.seconds;
      passes += it.lrs_passes;
    }
    const auto iters = static_cast<double>(job.flow->ogws.history.size());
    const double total = profile.num_gates + profile.num_wires;
    sizes.push_back(total);
    per_iter.push_back(seconds / iters);
    table.add_row(
        {profile.name, util::TextTable::integer(static_cast<long long>(total)),
         util::TextTable::num(1e3 * seconds / iters, 3),
         util::TextTable::num(passes / iters, 1),
         util::TextTable::num(static_cast<double>(profile.paper.time_sec) /
                                  profile.paper.iterations,
                              1)});
  }
  table.print(std::cout);

  const auto fit = util::fit_line(sizes, per_iter);
  std::printf("\nlinear fit: s/iter = %.3g * size + %.3g   (R² = %.4f)\n", fit.slope,
              fit.intercept, fit.r_squared);
  std::printf("paper claim: runtime per iteration grows linearly — %s\n",
              fit.r_squared > 0.95 ? "REPRODUCED" : "NOT reproduced");

  // ---- phase 2: the four largest profiles on four workers -----------------
  const std::vector<std::string> large = {"c3540", "c5315", "c6288", "c7552"};
  double sequential_seconds = 0.0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (const auto& name : large) {
      if (profiles[i].name == name) sequential_seconds += sequential.jobs[i].seconds;
    }
  }

  std::vector<runtime::BatchJob> large_jobs;
  for (const auto& name : large) {
    large_jobs.push_back(runtime::make_profile_job(name, 1, options));
  }
  runtime::BatchOptions parallel_options;
  parallel_options.jobs = 4;
  const runtime::BatchResult parallel =
      runtime::run_batch(std::move(large_jobs), parallel_options);

  const double speedup = parallel.wall_seconds > 0.0
                             ? sequential_seconds / parallel.wall_seconds
                             : 0.0;
  std::printf(
      "\nparallel batch (large profiles %s+%s+%s+%s, 4 workers):\n"
      "  sequential %.2f s -> batch wall %.2f s, speedup %.2fx\n",
      large[0].c_str(), large[1].c_str(), large[2].c_str(), large[3].c_str(),
      sequential_seconds, parallel.wall_seconds, speedup);
  std::printf("target > 2x at 4 workers: %s\n",
              speedup > 2.0
                  ? "PASS"
                  : "MISS (needs >= 4 hardware threads; results are still "
                    "bit-identical to the sequential run)");
  return 0;
}
