// Offline decoding-matrix construction (Eq. 2) and a streaming decoder.
//
// The paper stores the decoding matrix A ∈ R^{S×m} (one row per straggler
// pattern, S = C(m, s)) for "regular" patterns and solves irregular ones in
// real time. StreamingDecoder is that real-time path packaged for the
// simulator and the threaded runtime: feed results as they arrive, ask
// whether the aggregate is ready. A QuorumGate over the scheme's published
// quorums (default: min_results_required() arrivals) decides, in O(1) per
// arrival, when a solve can succeed at all.
#pragma once

#include <optional>
#include <vector>

#include "core/coding_scheme.hpp"
#include "core/decoding_cache.hpp"
#include "core/types.hpp"

namespace hgc {

/// One row of the decoding matrix: the straggler pattern it serves and the
/// worker coefficients that recover the gradient under that pattern.
struct DecodingRow {
  StragglerSet stragglers;
  Vector coefficients;  // a_i with supp ⊆ survivors, a·B = 1
};

/// Materialize the full decoding matrix of Eq. 2: one row per pattern of
/// exactly s stragglers. Exponential in m; meant for small m (tests, the
/// paper's "partially stored" table for regular patterns).
std::vector<DecodingRow> build_decoding_matrix(const CodingScheme& scheme);

/// scheme.decoding_coefficients(received) wrapped in the observability
/// layer: counts `decode.solves` (and `decode.successes` when the solve
/// returns coefficients), samples `decode.solve_seconds`, and opens
/// a wall-clock "decode_solve" trace span. The single real-time-solve entry
/// point for both the uncached decoder path and a DecodingCache miss —
/// result-identical to calling the scheme directly (everything recorded is
/// out of band).
std::optional<Vector> solve_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received);

/// Per-round decodability gate over a scheme's quorums() — or, for a scheme
/// that publishes none, the default quorum of min_results_required()
/// arrivals. One counter per clause, O(1) work per arrival, no allocation
/// after construction. The gate opens at the first arrival after which
/// decoding_coefficients can return a vector and stays open for the round.
/// Every arrival loop (the streaming decoder, completion_time, the
/// layerwise simulator) solves only while the gate is open, so "can this
/// decode yet" has one definition and the first successful arrival is the
/// same one an ungated loop would find.
class QuorumGate {
 public:
  explicit QuorumGate(const CodingScheme& scheme);

  /// Count worker w's result (w < m, each worker at most once per round);
  /// returns whether the gate is open.
  bool arrive(WorkerId w);

  /// Zero the counters for the next round.
  void reset();

 private:
  const Quorums* quorums_;  // owned by the scheme; null = default quorum
  std::size_t total_;
  std::size_t arrivals_ = 0;
  std::vector<std::size_t> counts_;  // one per subset clause
  std::size_t clauses_met_ = 0;
  bool open_ = false;
};

/// Streaming master-side decoder. Results are added in arrival order; the
/// decoder solves only once its QuorumGate is open, then on every arrival
/// until the solve succeeds, and keeps the coefficients once found.
class StreamingDecoder {
 public:
  /// `cache`, when non-null, must wrap the same scheme instance; gated
  /// solves then go through its LRU of decodable patterns (the paper's
  /// "regular stragglers" table). The cache may be shared across iterations
  /// but not across threads.
  explicit StreamingDecoder(const CodingScheme& scheme,
                            DecodingCache* cache = nullptr);

  /// Record worker w's coded gradient. Returns true if the aggregate became
  /// decodable with this arrival.
  bool add_result(WorkerId w, Vector coded_gradient);

  bool ready() const { return coefficients_.has_value(); }
  std::size_t results_received() const { return received_count_; }

  /// The decoded aggregate Σ g_j. Throws DecodeError if !ready().
  Vector aggregate() const;

  /// Coefficients used for the decode (for inspection/tests).
  const Vector& coefficients() const;

  /// Workers whose results ended up unused (coefficient 0 despite arriving);
  /// feeds the resource-usage metric of Fig. 5.
  std::vector<WorkerId> unused_workers() const;

  /// Reset for the next iteration, keeping the scheme.
  void reset();

 private:
  const CodingScheme& scheme_;
  DecodingCache* cache_;
  QuorumGate gate_;
  std::vector<bool> received_;
  std::vector<Vector> coded_;
  std::size_t received_count_ = 0;
  std::optional<Vector> coefficients_;
};

}  // namespace hgc
