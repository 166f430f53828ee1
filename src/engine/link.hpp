// Channel adapters between engine actors and the transport models.
//
// A Link answers one question: "a message of `bytes` leaves `from` for `to`
// at `send_time` — when does it arrive, if ever?" The engine schedules the
// delivery event at that answer. Two adapters cover the existing transports:
// FixedLatencyLink reproduces the analytic simulator's constant result-
// transfer latency (SimParams::comm_latency), NetworkLink wraps the lossy
// SimulatedNetwork of net/ (latency + bandwidth + iid drops, seeded RNG).
#pragma once

#include <cstddef>
#include <optional>

#include "net/network.hpp"
#include "util/error.hpp"

namespace hgc::engine {

/// Point-to-point message transport as seen by the event engine.
class Link {
 public:
  virtual ~Link() = default;

  /// Arrival time of a `bytes`-sized message sent at `send_time`, or nullopt
  /// when the transport drops it. Must be >= send_time.
  virtual std::optional<double> transmit(NodeId from, NodeId to,
                                         std::size_t bytes,
                                         double send_time) = 0;
};

/// Lossless link with a constant per-message latency and infinite bandwidth
/// (the virtual-clock trainers' transport).
class FixedLatencyLink : public Link {
 public:
  explicit FixedLatencyLink(double latency = 0.0) : latency_(latency) {
    HGC_REQUIRE(latency >= 0.0, "latency must be non-negative");
  }

  std::optional<double> transmit(NodeId, NodeId, std::size_t,
                                 double send_time) override {
    return send_time + latency_;
  }

 private:
  double latency_;
};

/// Adapter over the seeded lossy network model; drops and byte accounting
/// stay inside the wrapped SimulatedNetwork. `workers` is the round's worker
/// count m: the network must address nodes 0..m-1 plus the master at node m,
/// checked here so an undersized network fails before any message is sent.
class NetworkLink : public Link {
 public:
  NetworkLink(SimulatedNetwork& network, std::size_t workers)
      : network_(&network) {
    HGC_REQUIRE(network.nodes() >= workers + 1,
                "network needs one node per worker plus the master");
  }

  std::optional<double> transmit(NodeId from, NodeId to, std::size_t bytes,
                                 double send_time) override {
    return network_->transmit(from, to, bytes, send_time);
  }

 private:
  SimulatedNetwork* network_;
};

}  // namespace hgc::engine
