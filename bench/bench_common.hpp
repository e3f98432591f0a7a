// Shared helpers for the bench harnesses: profile-driven flow runs (single
// and batched through the parallel runtime) and percentage formatting.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/flow.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "runtime/batch.hpp"
#include "util/assert.hpp"

namespace lrsizer::bench {

/// Default options used by every paper-reproduction bench (documented in
/// docs/ARCHITECTURE.md §Benches): unit-size start, A0 = D_init, P0 = 0.15·cap_init,
/// X0 = 0.10·noise_init.
inline core::FlowOptions paper_flow_options() {
  core::FlowOptions options;
  options.num_vectors = 32;
  options.bound_factors.delay = 1.0;
  options.bound_factors.power = 0.15;
  options.bound_factors.noise = 0.10;
  options.initial_size = 1.0;
  return options;
}

/// Run the full two-stage flow for one paper profile through
/// api::SizingSession::run_all.
inline core::FlowResult run_profile(const std::string& name, std::uint64_t seed = 1,
                                    const core::FlowOptions& options =
                                        paper_flow_options()) {
  const auto spec = netlist::spec_for_profile(name, seed);
  api::SizingSession session(netlist::generate_circuit(spec), options);
  // Paper-reproduction measurements are fire-and-forget: skip the restart
  // snapshot so the timed loop matches the paper's per-iteration work.
  session.set_capture_warm_start(false);
  const api::Status status = session.run_all();
  LRSIZER_ASSERT_MSG(status.ok(), status.to_string().c_str());
  return session.take_result();
}

inline double improvement_pct(double init, double fin) {
  return init > 0.0 ? 100.0 * (init - fin) / init : 0.0;
}

/// One batch job per Table-1 profile (paper options, seed 1), in the
/// profiles' table order — the batch result's jobs are parallel to
/// iscas85_profiles().
inline std::vector<runtime::BatchJob> paper_profile_jobs(
    const core::FlowOptions& options = paper_flow_options()) {
  std::vector<runtime::BatchJob> jobs;
  for (const auto& profile : netlist::iscas85_profiles()) {
    jobs.push_back(runtime::make_profile_job(profile.name, 1, options));
  }
  return jobs;
}

/// Worker count for the benches: the LRSIZER_JOBS environment variable when
/// set, otherwise 0 (hardware concurrency).
inline int bench_jobs() {
  if (const char* env = std::getenv("LRSIZER_JOBS")) return std::atoi(env);
  return 0;
}

}  // namespace lrsizer::bench
