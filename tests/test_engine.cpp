// Tests for the discrete-event engine: event queue, simulation clock,
// channel adapters, and the actor-based coded round.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scheme_factory.hpp"
#include "engine/event_queue.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "engine/simulation.hpp"
#include "sim/iteration.hpp"

namespace hgc {
namespace {

using engine::EventQueue;
using engine::FixedLatencyLink;
using engine::NetworkLink;
using engine::RoundOptions;
using engine::RoundOutcome;
using engine::Simulation;

IterationConditions clean_conditions(std::size_t m) {
  IterationConditions cond;
  cond.speed_factor.assign(m, 1.0);
  cond.delay.assign(m, 0.0);
  cond.faulted.assign(m, false);
  return cond;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    queue.push(1.0, [&order, i] { order.push_back(i); });
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, TagsBreakTimeTiesBeforeInsertionOrder) {
  // Tagged events at the same time fire in tag order regardless of when
  // they were scheduled — how SSP keeps its (time, worker) pop order.
  EventQueue queue;
  std::vector<int> order;
  queue.push(1.0, [&] { order.push_back(7); }, 7);
  queue.push(1.0, [&] { order.push_back(3); }, 3);
  queue.push(0.5, [&] { order.push_back(9); }, 9);  // earlier time wins
  queue.push(1.0, [&] { order.push_back(5); }, 5);
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{9, 3, 5, 7}));
}

TEST(EventQueue, CancelRemovesPendingEvent) {
  EventQueue queue;
  bool ran = false;
  const auto id = queue.push(1.0, [&] { ran = true; });
  queue.push(2.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_FALSE(queue.cancel(id));  // second cancel is a no-op
  EXPECT_DOUBLE_EQ(queue.pop().time, 2.0);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, MassCancellationCompactsWithoutDisturbingOrder) {
  // Cancel enough far-future timers to trigger heap compaction, then check
  // the surviving events still fire in exact (time, id) order.
  EventQueue queue;
  std::vector<engine::EventId> doomed;
  for (int i = 0; i < 150; ++i)
    doomed.push_back(queue.push(1e6 + i, [] {}));
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    queue.push(static_cast<double>(i), [&order, i] { order.push_back(i); });
  for (engine::EventId id : doomed) EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 10u);
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue queue;
  const auto id = queue.push(1.0, [] {});
  queue.pop();
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(12345));  // never existed
}

TEST(Simulation, ClockFollowsEventTimes) {
  Simulation sim;
  std::vector<double> seen;
  sim.schedule_at(2.5, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] { seen.push_back(sim.now()); });
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, HandlersMayScheduleMoreEvents) {
  Simulation sim;
  std::vector<double> ticks;
  std::function<void()> tick = [&] {
    ticks.push_back(sim.now());
    if (ticks.size() < 5) sim.schedule_after(1.0, tick);
  };
  sim.schedule_after(1.0, tick);
  sim.run();
  EXPECT_EQ(ticks, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(Simulation, RejectsPastAndNegative) {
  Simulation sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.run_until(1.0), std::invalid_argument);
}

TEST(Simulation, StopHaltsTheLoopAndResumeContinues) {
  Simulation sim;
  int ran = 0;
  for (int i = 1; i <= 4; ++i)
    sim.schedule_at(static_cast<double>(i), [&] {
      if (++ran == 2) sim.stop();
    });
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.resume();
  sim.run();
  EXPECT_EQ(ran, 4);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, RunUntilExecutesPrefixAndAdvancesClock) {
  Simulation sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] { ++ran; });
  sim.schedule_at(3.0, [&] { ++ran; });
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Links, FixedLatencyShiftsArrival) {
  FixedLatencyLink link(0.25);
  const auto arrival = link.transmit(0, 1, 1000, 2.0);
  ASSERT_TRUE(arrival.has_value());
  EXPECT_DOUBLE_EQ(*arrival, 2.25);
  EXPECT_THROW(FixedLatencyLink(-0.1), std::invalid_argument);
}

TEST(Links, NetworkLinkForwardsDrops) {
  LinkParams params;
  params.drop_probability = 1.0;
  SimulatedNetwork network(4, params, Rng(9));
  NetworkLink link(network, 3);
  EXPECT_FALSE(link.transmit(0, 3, 100, 0.0).has_value());
  EXPECT_EQ(network.messages_dropped(), 1u);
}

TEST(EngineRound, TimingOnlyHitsAnalyticDecodeTime) {
  Rng rng(81);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  FixedLatencyLink link;
  const RoundOutcome round =
      engine::run_round(*scheme, cluster, clean_conditions(8), link);
  ASSERT_TRUE(round.decoded);
  EXPECT_NEAR(round.time, ideal_iteration_time(cluster, 1), 1e-9);
  EXPECT_TRUE(round.coefficients.has_value());
  EXPECT_TRUE(round.aggregate.empty());  // timing-only round carries no data
}

TEST(EngineRound, MasterStopsLoopAtFirstDecodableArrival) {
  Rng rng(82);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  auto cond = clean_conditions(8);
  cond.delay[3] = 100.0;  // one straggler, s = 1: never waited for
  FixedLatencyLink link;
  const RoundOutcome round =
      engine::run_round(*scheme, cluster, cond, link);
  ASSERT_TRUE(round.decoded);
  EXPECT_NEAR(round.time, ideal_iteration_time(cluster, 1), 1e-9);
  EXPECT_EQ(round.results_used, 7u);
  // The straggler's delivery event never ran: the master released the
  // barrier and stopped the clock first.
  EXPECT_EQ(round.events_executed, 7u);
}

TEST(EngineRound, UndecodableRoundDrainsAndReportsFailure) {
  Rng rng(83);
  const Cluster cluster = cluster_a();
  const auto naive =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  auto cond = clean_conditions(8);
  cond.faulted[2] = true;
  FixedLatencyLink link;
  const RoundOutcome round = engine::run_round(*naive, cluster, cond, link);
  EXPECT_FALSE(round.decoded);
  EXPECT_EQ(round.time, std::numeric_limits<double>::infinity());
  EXPECT_EQ(round.resource_usage, 0.0);
}

TEST(EngineRound, PayloadRoundRecoversAggregate) {
  Rng rng(84);
  const Throughputs c = {1, 2, 3, 4, 4};
  const Cluster cluster("five", {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0},
                                 {4, 4.0}});
  const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 7, 1, rng);
  // Per-partition scalar "gradients" 1..7; aggregate = 28.
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};
  auto cond = clean_conditions(5);
  cond.delay[1] = 50.0;  // absorbed by s = 1
  FixedLatencyLink link;
  RoundOptions options;
  options.partition_gradients = &grads;
  const RoundOutcome round =
      engine::run_round(*scheme, cluster, cond, link, options);
  ASSERT_TRUE(round.decoded);
  ASSERT_EQ(round.aggregate.size(), 1u);
  EXPECT_NEAR(round.aggregate[0], 28.0, 1e-8);
}

TEST(EngineRound, WireFramesOverNetworkRecoverAggregate) {
  Rng rng(85);
  const Throughputs c = {1, 2, 3, 4, 4};
  const Cluster cluster("five", {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0},
                                 {4, 4.0}});
  const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 7, 1, rng);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};
  SimulatedNetwork network(6, LinkParams{}, Rng(86));
  NetworkLink link(network, 5);
  RoundOptions options;
  options.partition_gradients = &grads;
  options.wire_frames = true;
  options.iteration = 17;
  const RoundOutcome round = engine::run_round(
      *scheme, cluster, clean_conditions(5), link, options);
  ASSERT_TRUE(round.decoded);
  ASSERT_EQ(round.aggregate.size(), 1u);
  EXPECT_NEAR(round.aggregate[0], 28.0, 1e-8);
  EXPECT_GT(network.bytes_sent(), 0u);
}

TEST(EngineRound, LostMessagesAreCountedAsDropped) {
  Rng rng(87);
  const Throughputs c = {1, 2, 3, 4, 4};
  const Cluster cluster("five", {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0},
                                 {4, 4.0}});
  const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 7, 1, rng);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  LinkParams lossy;
  lossy.drop_probability = 1.0;
  SimulatedNetwork network(6, lossy, Rng(88));
  NetworkLink link(network, 5);
  RoundOptions options;
  options.partition_gradients = &grads;
  options.wire_frames = true;
  const RoundOutcome round = engine::run_round(
      *scheme, cluster, clean_conditions(5), link, options);
  EXPECT_FALSE(round.decoded);
  EXPECT_EQ(round.dropped, 5u);
}

TEST(EngineRound, DeterministicAcrossCalls) {
  Rng rng(89);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  auto cond = clean_conditions(8);
  cond.delay[5] = 0.3;
  cond.speed_factor[1] = 0.7;
  FixedLatencyLink link(0.01);
  const RoundOutcome a = engine::run_round(*scheme, cluster, cond, link);
  const RoundOutcome b = engine::run_round(*scheme, cluster, cond, link);
  ASSERT_TRUE(a.decoded);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.results_used, b.results_used);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(EngineRound, RejectsMismatchedSizes) {
  Rng rng(90);
  const Cluster cluster = cluster_a();
  const auto scheme =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  FixedLatencyLink link;
  EXPECT_THROW(
      engine::run_round(*scheme, cluster, clean_conditions(5), link),
      std::invalid_argument);
}

}  // namespace
}  // namespace hgc
