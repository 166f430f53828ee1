// Tests for the decoding-matrix builder (Eq. 2) and the streaming decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/decoder.hpp"
#include "core/group_based.hpp"
#include "core/heter_aware.hpp"
#include "core/naive.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(DecodingMatrix, OneRowPerPattern) {
  Rng rng(51);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  const auto rows = build_decoding_matrix(scheme);
  EXPECT_EQ(rows.size(), 5u);  // C(5,1)
  for (const auto& row : rows) {
    // Coefficients vanish on the pattern's stragglers and reconstruct 1.
    for (WorkerId w : row.stragglers)
      EXPECT_DOUBLE_EQ(row.coefficients[w], 0.0);
    const Vector ab = scheme.coding_matrix().apply_transpose(row.coefficients);
    for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-8);
  }
}

TEST(DecodingMatrix, PatternCountMatchesBinomial) {
  Rng rng(52);
  HeterAwareScheme scheme({2, 2, 3, 3, 4, 4}, 9, 2, rng);
  EXPECT_EQ(build_decoding_matrix(scheme).size(), 15u);  // C(6,2)
}

TEST(DecodingMatrix, NaiveHasSingleEmptyPattern) {
  NaiveScheme naive(4);
  const auto rows = build_decoding_matrix(naive);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].stragglers.empty());
  EXPECT_EQ(rows[0].coefficients, Vector(4, 1.0));
}

/// A deliberately broken scheme: decodable only when every worker responded
/// (claims) — or never (s = 0 case) — to exercise the builder's error paths.
class NeverDecodableScheme : public CodingScheme {
 public:
  NeverDecodableScheme(std::size_t m, std::size_t s)
      : CodingScheme(Matrix::ones(m, 1), Assignment(m, {0}), s) {}
  std::string name() const override { return "never-decodable"; }
  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>&) const override {
    return std::nullopt;
  }
};

TEST(DecodingMatrix, EmptyPatternErrorDoesNotInventAWorkerId) {
  // s = 0 enumerates one empty pattern; the old message printed m ("worker
  // 2" here) as "the worker starting the pattern".
  NeverDecodableScheme scheme(2, 0);
  try {
    build_decoding_matrix(scheme);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty straggler pattern"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("worker 2"), std::string::npos) << what;
  }
}

TEST(DecodingMatrix, NonEmptyPatternErrorNamesItsFirstWorker) {
  NeverDecodableScheme scheme(3, 1);
  try {
    build_decoding_matrix(scheme);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("starting at worker 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(StreamingDecoder, DecodesAtFirstSufficientArrival) {
  Rng rng(53);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);

  // Per-partition scalar "gradients" 1..7; aggregate = 28.
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(0, encode_gradient(scheme, 0, grads)));
  EXPECT_FALSE(decoder.add_result(1, encode_gradient(scheme, 1, grads)));
  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_FALSE(decoder.ready());
  // Fourth arrival: only one worker missing <= s, decodable.
  EXPECT_TRUE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_TRUE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 4u);
  const Vector aggregate = decoder.aggregate();
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_NEAR(aggregate[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, ExtraResultsAreUnused) {
  Rng rng(54);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  for (WorkerId w = 0; w < 4; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  ASSERT_TRUE(decoder.ready());
  // Late fifth result: recorded but not part of the decode.
  EXPECT_FALSE(decoder.add_result(4, encode_gradient(scheme, 4, grads)));
  const auto unused = decoder.unused_workers();
  EXPECT_EQ(unused, (std::vector<WorkerId>{4}));
}

TEST(StreamingDecoder, RejectsDuplicateResult) {
  Rng rng(55);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  decoder.add_result(0, Vector{1.0});
  EXPECT_THROW(decoder.add_result(0, Vector{1.0}), std::invalid_argument);
}

TEST(StreamingDecoder, ThrowsBeforeReady) {
  Rng rng(56);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  EXPECT_THROW(decoder.aggregate(), DecodeError);
  EXPECT_THROW(decoder.coefficients(), DecodeError);
}

TEST(StreamingDecoder, ResetAllowsReuse) {
  Rng rng(57);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {2.0};
  for (WorkerId w = 0; w < 4; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  ASSERT_TRUE(decoder.ready());
  decoder.reset();
  EXPECT_FALSE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 0u);
  // Second iteration decodes again from scratch.
  for (WorkerId w = 1; w < 5; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  EXPECT_TRUE(decoder.ready());
  EXPECT_NEAR(decoder.aggregate()[0], 14.0, 1e-8);
}

TEST(StreamingDecoder, GroupFastPathDecodesBelowFullQuorum) {
  // Group-based {1,2,3,4,4}: groups {0,1,4} and {2,3}, so
  // min_results_required() is 2 — far below the m−s = 4 of heter-aware.
  // Arrival order 2, 3 completes a group: the first arrival must be skipped
  // by the fast path (count < min) and the second must decode immediately.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  ASSERT_EQ(scheme.min_results_required(), 2u);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_FALSE(decoder.ready());
  EXPECT_TRUE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_TRUE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 2u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, ArrivalOrderPastMinRequiresMoreSolves) {
  // Arrival order 0, 1, 2, 4: counts 2 and 3 are at/above the group-based
  // minimum but undecodable (no complete group, fewer than active−s
  // results), so the decoder keeps answering "not yet" until group {0,1,4}
  // completes on the fourth arrival. Worker 2's result ends up unused.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(0, encode_gradient(scheme, 0, grads)));
  EXPECT_FALSE(decoder.add_result(1, encode_gradient(scheme, 1, grads)));
  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_TRUE(decoder.add_result(4, encode_gradient(scheme, 4, grads)));
  EXPECT_EQ(decoder.results_received(), 4u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
  EXPECT_DOUBLE_EQ(decoder.coefficients()[2], 0.0);
  EXPECT_EQ(decoder.unused_workers(), (std::vector<WorkerId>{2}));

  // A result arriving after decodability is recorded but changes nothing.
  EXPECT_FALSE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_EQ(decoder.results_received(), 5u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, DuplicateAfterDecodabilityStillThrows) {
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  decoder.add_result(2, encode_gradient(scheme, 2, grads));
  decoder.add_result(3, encode_gradient(scheme, 3, grads));
  ASSERT_TRUE(decoder.ready());
  EXPECT_THROW(decoder.add_result(2, encode_gradient(scheme, 2, grads)),
               std::invalid_argument);
}

TEST(StreamingDecoder, ResetClearsDuplicateTracking) {
  Rng rng(55);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  decoder.add_result(0, Vector{1.0});
  decoder.reset();
  // The same worker may report again in the next iteration.
  EXPECT_NO_THROW(decoder.add_result(0, Vector{1.0}));
}

TEST(OnesInRowSpan, BasicGeometry) {
  const Matrix b{{1.0, 0.0}, {0.0, 1.0}, {2.0, 2.0}};
  const std::vector<std::size_t> both = {0, 1};
  EXPECT_TRUE(ones_in_row_span(b, both));
  const std::vector<std::size_t> third = {2};
  EXPECT_TRUE(ones_in_row_span(b, third));  // 0.5 * (2,2)
  const std::vector<std::size_t> first = {0};
  EXPECT_FALSE(ones_in_row_span(b, first));
  EXPECT_FALSE(ones_in_row_span(b, std::vector<std::size_t>{}));
}

TEST(ForEachStragglerPattern, CountsAndEarlyExit) {
  std::size_t count = 0;
  for_each_straggler_pattern(6, 2, [&](const StragglerSet&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 15u);  // C(6,2)

  count = 0;
  const bool completed = for_each_straggler_pattern(
      6, 2, [&](const StragglerSet&) { return ++count < 4; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 4u);
}

TEST(ForEachStragglerPattern, ZeroStragglersVisitsOnce) {
  std::size_t count = 0;
  for_each_straggler_pattern(5, 0, [&](const StragglerSet& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(CompletionTime, MatchesHandComputedOrder) {
  Rng rng(58);
  // c = [1,2,3,4,4], loads = [1,2,3,4,4] (partitions), t_i = load/c = 1 for
  // every worker; any single straggler still completes at t = 1.
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  const Throughputs c = {1, 2, 3, 4, 4};
  const auto t = completion_time(scheme, c, {2});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 1e-12);
}

TEST(CompletionTime, UndecodableReturnsNullopt) {
  NaiveScheme naive(3);
  const Throughputs c = {1, 1, 1};
  EXPECT_FALSE(completion_time(naive, c, {0}).has_value());
}

// ---------------------------------------------------------------------------
// Quorum gate: the gated arrival loops must find the same first decodable
// arrival, with bit-identical coefficients, as a loop that solves after
// every arrival — and must not solve more than s+2 times per round.

bool bits_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// What one round of arrivals decoded to.
struct ArrivalOutcome {
  std::size_t decode_index = 0;  // 1-based arrival that decoded; 0 = never
  std::size_t results_received = 0;
  Vector coefficients;
  std::vector<WorkerId> unused;
};

/// The ungated reference: solve after every arrival until one succeeds.
ArrivalOutcome ungated_arrivals(const CodingScheme& scheme,
                                const std::vector<WorkerId>& order,
                                DecodingCache* cache) {
  ArrivalOutcome out;
  std::vector<bool> received(scheme.num_workers(), false);
  std::optional<Vector> a;
  for (std::size_t i = 0; i < order.size(); ++i) {
    received[order[i]] = true;
    if (a) continue;
    a = cache ? cache->decode(received)
              : scheme.decoding_coefficients(received);
    if (a) out.decode_index = out.results_received = i + 1;
  }
  if (a) out.coefficients = *a;
  for (std::size_t w = 0; w < received.size(); ++w)
    if (received[w] && (!a || (*a)[w] == 0.0)) out.unused.push_back(w);
  return out;
}

ArrivalOutcome gated_arrivals(StreamingDecoder& decoder,
                              const std::vector<WorkerId>& order) {
  ArrivalOutcome out;
  decoder.reset();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (decoder.add_result(order[i], Vector{})) {
      out.decode_index = i + 1;
      out.results_received = decoder.results_received();
    }
  }
  if (decoder.ready()) out.coefficients = decoder.coefficients();
  out.unused = decoder.unused_workers();
  return out;
}

void expect_same_outcome(const ArrivalOutcome& gated,
                         const ArrivalOutcome& ungated,
                         const std::string& where) {
  EXPECT_EQ(gated.decode_index, ungated.decode_index) << where;
  EXPECT_EQ(gated.results_received, ungated.results_received) << where;
  EXPECT_TRUE(bits_equal(gated.coefficients, ungated.coefficients)) << where;
  EXPECT_EQ(gated.unused, ungated.unused) << where;
}

/// A random round: up to s+1 random stragglers (so undecodable rounds occur
/// too), the data-holding survivors in random order.
std::vector<WorkerId> random_arrivals(const CodingScheme& scheme, Rng& rng) {
  std::vector<WorkerId> order;
  for (WorkerId w = 0; w < scheme.num_workers(); ++w)
    if (scheme.load(w) > 0) order.push_back(w);
  rng.shuffle(std::span<WorkerId>(order));
  const auto stragglers = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(scheme.stragglers_tolerated() + 1)));
  order.resize(order.size() - std::min(stragglers, order.size()));
  return order;
}

/// Every scheme kind at m ≤ 12, s ∈ {1, 2}: integer throughputs (which
/// tile into groups often) and real ones (which seldom do).
std::vector<std::unique_ptr<CodingScheme>> small_schemes(Rng& rng) {
  std::vector<std::unique_ptr<CodingScheme>> schemes;
  for (std::size_t s : {1u, 2u}) {
    for (std::size_t m : {6u, 9u, 12u}) {
      Throughputs integral(m), real(m);
      for (std::size_t w = 0; w < m; ++w) {
        integral[w] = static_cast<double>(rng.uniform_int(1, 4));
        real[w] = rng.uniform(1.0, 8.0);
      }
      for (SchemeKind kind :
           {SchemeKind::kNaive, SchemeKind::kCyclic, SchemeKind::kHeterAware,
            SchemeKind::kGroupBased, SchemeKind::kFractionalRepetition}) {
        if (kind == SchemeKind::kFractionalRepetition && m % (s + 1) != 0)
          continue;
        schemes.push_back(make_scheme(kind, integral, m, s, rng));
        schemes.push_back(make_scheme(kind, real, 2 * m, s, rng));
      }
    }
  }
  return schemes;
}

TEST(QuorumGate, GatedDecoderMatchesUngatedLoopOnEveryScheme) {
  Rng rng(61);
  std::size_t decoded = 0, undecoded = 0;
  for (const auto& scheme : small_schemes(rng)) {
    StreamingDecoder plain(*scheme);
    DecodingCache gated_cache(*scheme, 8), ungated_cache(*scheme, 8);
    StreamingDecoder cached(*scheme, &gated_cache);
    for (int trial = 0; trial < 40; ++trial) {
      const auto order = random_arrivals(*scheme, rng);
      const std::string where = scheme->name() + " m=" +
                                std::to_string(scheme->num_workers()) +
                                " trial " + std::to_string(trial);
      const ArrivalOutcome ungated = ungated_arrivals(*scheme, order, nullptr);
      expect_same_outcome(gated_arrivals(plain, order), ungated, where);
      expect_same_outcome(gated_arrivals(cached, order),
                          ungated_arrivals(*scheme, order, &ungated_cache),
                          where + " (cached)");
      ++(ungated.decode_index > 0 ? decoded : undecoded);
    }
  }
  // The random rounds cover both outcomes.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(undecoded, 0u);
}

TEST(QuorumGate, GroupSchemeWithoutSubCode) {
  // {1,2,3,4,4}, s = 1: groups {0,1,4} and {2,3}, P = s+1, no sub-code.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  ASSERT_EQ(scheme.groups().size(), 2u);
  ASSERT_TRUE(scheme.sub_code().empty());
  ASSERT_NE(scheme.quorums(), nullptr);
  StreamingDecoder decoder(scheme);
  std::vector<WorkerId> order = {0, 1, 2, 3, 4};
  do {
    expect_same_outcome(gated_arrivals(decoder, order),
                        ungated_arrivals(scheme, order, nullptr), "perm");
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(QuorumGate, GroupSchemeWhoseSubCodeDecodesFirst) {
  // Six equal workers, k = 6, s = 2: groups {0,3} and {1,2}; workers 4 and
  // 5 form a sub-code of tolerance 0. Arriving first, they decode through
  // the sub-code clause before any group completes or the total is met.
  Rng rng(1);
  GroupBasedScheme scheme({3, 3, 3, 3, 3, 3}, 6, 2, rng);
  ASSERT_EQ(scheme.groups().size(), 2u);
  ASSERT_EQ(scheme.sub_code().workers(), (std::vector<WorkerId>{4, 5}));
  const std::vector<WorkerId> order = {4, 5, 0, 1, 2, 3};
  StreamingDecoder decoder(scheme);
  const ArrivalOutcome gated = gated_arrivals(decoder, order);
  EXPECT_EQ(gated.decode_index, 2u);
  EXPECT_EQ(gated.unused, (std::vector<WorkerId>{0, 1, 2, 3}));
  expect_same_outcome(gated, ungated_arrivals(scheme, order, nullptr),
                      "sub-code first");
}

/// completion_time's ungated reference: solve after every arrival in
/// finish-time order.
std::optional<double> ungated_completion_time(const CodingScheme& scheme,
                                              const Throughputs& c,
                                              const StragglerSet& stragglers) {
  std::vector<std::pair<double, WorkerId>> arrivals;
  for (WorkerId w = 0; w < scheme.num_workers(); ++w) {
    if (scheme.load(w) == 0 ||
        std::find(stragglers.begin(), stragglers.end(), w) != stragglers.end())
      continue;
    arrivals.emplace_back(static_cast<double>(scheme.load(w)) / c[w], w);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<bool> received(scheme.num_workers(), false);
  for (const auto& [time, w] : arrivals) {
    received[w] = true;
    if (scheme.decoding_coefficients(received)) return time;
  }
  return std::nullopt;
}

TEST(QuorumGate, CompletionAndWorstCaseTimeMatchUngatedLoop) {
  Rng rng(62);
  for (const auto& scheme : small_schemes(rng)) {
    const std::size_t m = scheme->num_workers();
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 8.0);
    std::optional<double> worst = ungated_completion_time(*scheme, c, {});
    for_each_straggler_pattern(
        m, scheme->stragglers_tolerated(), [&](const StragglerSet& pattern) {
          const auto ungated = ungated_completion_time(*scheme, c, pattern);
          EXPECT_EQ(completion_time(*scheme, c, pattern), ungated)
              << scheme->name() << " m=" << m;
          if (!ungated) worst.reset();
          if (worst) worst = std::max(*worst, *ungated);
          return worst.has_value();
        });
    EXPECT_EQ(worst_case_time(*scheme, c), worst) << scheme->name();
    // Patterns beyond the tolerance, undecodable ones included.
    for (int trial = 0; trial < 10; ++trial) {
      StragglerSet pattern;
      for (WorkerId w = 0; w < m; ++w)
        if (rng.bernoulli(0.3)) pattern.push_back(w);
      EXPECT_EQ(completion_time(*scheme, c, pattern),
                ungated_completion_time(*scheme, c, pattern))
          << scheme->name() << " m=" << m;
    }
  }
}

/// Turns the metrics registry on for one scope.
struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

std::uint64_t registry_solves() {
  return obs::Registry::global().snapshot().counter("decode.solves");
}

TEST(QuorumGate, AtMostSPlusTwoSolvesPerRoundAt200Workers) {
  const MetricsOn metrics;
  const Cluster cluster = scale_cluster(200);
  const std::size_t m = cluster.size();
  for (std::size_t s : {1u, 2u}) {
    for (SchemeKind kind :
         {SchemeKind::kNaive, SchemeKind::kCyclic, SchemeKind::kHeterAware,
          SchemeKind::kGroupBased, SchemeKind::kFractionalRepetition}) {
      if (kind == SchemeKind::kFractionalRepetition && m % (s + 1) != 0)
        continue;
      Rng rng(63 + s);
      const auto scheme =
          make_scheme(kind, cluster.throughputs(), 2 * m, s, rng);
      DecodingCache cache(*scheme);
      for (bool fault : {false, true}) {
        const StragglerModel model{s, 2.0, fault, 0.05};
        for (int round = 0; round < 6; ++round) {
          const IterationConditions conditions = model.draw(m, rng);
          engine::FixedLatencyLink link;
          engine::RoundOptions options;
          options.decoding_cache = round % 2 == 0 ? &cache : nullptr;
          const std::uint64_t before = registry_solves();
          engine::run_round(*scheme, cluster, conditions, link, options);
          EXPECT_LE(registry_solves() - before, s + 2)
              << scheme->name() << " s=" << s << " fault=" << fault;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hgc
