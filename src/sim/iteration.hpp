// Platform knobs of a simulated iteration and the Theorem 5 ideal time.
//
// One iteration itself is engine::run_round (engine/round.hpp) over an
// engine::FixedLatencyLink carrying SimParams::comm_latency: workers start
// computing at t = 0 and the master stops at the first decodable prefix of
// arrivals.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cluster/cluster.hpp"

namespace hgc {

/// Knobs that are properties of the platform rather than the scheme.
struct SimParams {
  /// Fixed result-transfer latency (seconds) added to every arrival.
  double comm_latency = 0.0;
  /// Observability routing — never affects results. Non-zero assigns the
  /// virtual-clock trace track the engine lays this run's rounds out on
  /// (sweep cells use cell.index + 1); 0 = no virtual trace events.
  std::uint32_t trace_track = 0;
};

/// The balanced-optimum iteration time (s+1)/Σw of Theorem 5 translated to
/// cluster units (datasets/second); what heter-aware achieves with exact
/// estimates and no noise.
double ideal_iteration_time(const Cluster& cluster, std::size_t s);

}  // namespace hgc
