// Figure 10(a) reproduction: storage requirement vs circuit size
// (#gates + #wires). The paper shows ~1.0 MB at 640 components rising
// linearly to ~2.1 MB at 9656; the claim under test is *linearity* —
// we print the series, the least-squares fit, and R².
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/memtrack.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace lrsizer;

  std::printf("Figure 10(a) — storage vs circuit size (#gates + #wires)\n\n");

  // Memory does not depend on how long OGWS runs; cap iterations to keep
  // this bench quick.
  auto options = bench::paper_flow_options();
  options.ogws.max_iterations = 3;
  options.ogws.record_history = false;

  util::TextTable table({"Ckt", "#G+#W", "tracked(KB)", "total(MB)", "paper(MB)"});
  std::vector<double> sizes;
  std::vector<double> bytes;
  for (const auto& profile : netlist::iscas85_profiles()) {
    const auto flow = bench::run_profile(profile.name, 1, options);
    const double total = profile.num_gates + profile.num_wires;
    const auto tracked =
        static_cast<double>(flow.memory_bytes - util::kMemoryBaseBytes);
    sizes.push_back(total);
    bytes.push_back(static_cast<double>(flow.memory_bytes));
    table.add_row({profile.name, util::TextTable::integer(static_cast<long long>(total)),
                   util::TextTable::num(tracked / 1024.0, 0),
                   util::TextTable::num(static_cast<double>(flow.memory_bytes) /
                                            (1024.0 * 1024.0),
                                        2),
                   util::TextTable::num(profile.paper.mem_kb / 1024.0, 2)});
  }
  table.print(std::cout);

  const auto fit = util::fit_line(sizes, bytes);
  std::printf("\nlinear fit: bytes = %.1f * size + %.0f   (R² = %.4f)\n", fit.slope,
              fit.intercept, fit.r_squared);
  std::printf("paper claim: storage grows linearly in #gates+#wires — %s\n",
              fit.r_squared > 0.98 ? "REPRODUCED" : "NOT reproduced");
  return 0;
}
