// Abstract interface of a gradient coding strategy (Section III-B).
//
// A scheme owns the coding matrix B ∈ R^{m×k}: row i holds worker i's linear
// encoding coefficients, its support is worker i's data assignment. The only
// runtime question the master ever asks is: "given which workers have
// responded so far, can I reconstruct Σ g_j — and with what coefficients?"
// decoding_coefficients() answers it; everything else is bookkeeping.
//
// B is ≤(s+1)-sparse per row for every paper scheme, so the PRIMARY
// representation is a SparseRowMatrix: construction, encode, decode packing
// and the load/assignment accessors all run off nonzero structure — O(m·s)
// instead of the dense O(m·k) that walls out 10k-worker clusters. A dense
// view still exists for the small-m solve paths and external consumers, but
// it materializes lazily on first request and never on the scale path.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/types.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/workspace.hpp"

namespace hgc {

/// The decodability quorums of a scheme: decoding_coefficients(received) can
/// return a vector only if at least `total` results arrived, or at least
/// `clauses_needed` subset clauses are met — clause c once `threshold[c]`
/// of its workers were received. Clauses are disjoint worker sets, so each
/// worker counts toward at most one of them: an arrival is O(1) work for a
/// decoder keeping one counter per clause.
struct Quorums {
  /// Sentinel in `clause_of` for a worker outside every subset clause.
  static constexpr std::size_t kNoClause = static_cast<std::size_t>(-1);

  std::size_t total = 0;               ///< all-workers clause threshold
  std::vector<std::size_t> clause_of;  ///< per worker: its clause, or kNoClause
  std::vector<std::size_t> threshold;  ///< per subset clause
  std::size_t clauses_needed = 1;      ///< met clauses that open the gate
};

/// Base class for all gradient coding strategies.
class CodingScheme {
 public:
  virtual ~CodingScheme() = default;

  CodingScheme(const CodingScheme&) = delete;
  CodingScheme& operator=(const CodingScheme&) = delete;

  /// Human-readable scheme name ("heter-aware", "cyclic", ...).
  virtual std::string name() const = 0;

  std::size_t num_workers() const { return coding_matrix_.rows(); }
  std::size_t num_partitions() const { return coding_matrix_.cols(); }

  /// Number of stragglers this instance is provisioned to tolerate.
  std::size_t stragglers_tolerated() const { return s_; }

  /// The coding matrix B in its native sparse form — the representation
  /// every hot path should consume.
  const SparseRowMatrix& sparse_matrix() const { return coding_matrix_; }

  /// Dense view of B, materialized lazily on first call (thread-safe) and
  /// cached. At 10k workers this is gigabytes — keep it off scale paths;
  /// it exists for small-m solve/debug consumers only.
  const Matrix& coding_matrix() const;

  /// Data-partition assignment (supp(b_i) per worker).
  const Assignment& assignment() const { return assignment_; }

  /// Number of partitions worker w computes per iteration (||b_w||_0) —
  /// read straight off the sparse row structure.
  std::size_t load(WorkerId w) const { return coding_matrix_.row_nnz(w); }

  /// Decoding coefficients a with supp(a) ⊆ received and a·B = 1_{1×k}, or
  /// nullopt when the received set cannot reconstruct the gradient yet.
  /// `received[w]` is true when worker w's coded result has arrived.
  virtual std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const = 0;

  /// Lower bound on how many results must have arrived before
  /// decoding_coefficients can possibly succeed. It is the default quorum:
  /// a scheme that publishes no quorums() is gated on this many arrivals.
  virtual std::size_t min_results_required() const {
    return num_workers() - s_;
  }

  /// The quorum table published at construction, or nullptr when the
  /// scheme's only quorum is min_results_required() arrivals.
  const Quorums* quorums() const { return quorums_ ? &*quorums_ : nullptr; }

 protected:
  /// Derived constructors hand over the finished matrix and assignment;
  /// the support of B must equal the assignment exactly (checked in
  /// O(nnz)).
  CodingScheme(SparseRowMatrix b, Assignment assignment, std::size_t s);

  /// Same, but the assignment IS the row structure: derived directly from
  /// the sparse rows in O(nnz), no scan, no redundant validation.
  CodingScheme(SparseRowMatrix b, std::size_t s);

  /// Dense convenience for constructors/tests that still build a Matrix;
  /// converts via SparseRowMatrix::from_dense (support = entries != 0.0).
  CodingScheme(const Matrix& b, Assignment assignment, std::size_t s);

  /// Generic decodability fallback: least-squares solve of B_Rᵀ·x = 1 with a
  /// residual test. Works for any B; O(k·|R|²). Scratch (the row selection,
  /// the packed B_Rᵀ, QR factors, rhs) lives in a per-thread workspace, so
  /// repeated calls allocate nothing but the returned coefficient vector.
  std::optional<Vector> generic_decode(const std::vector<bool>& received)
      const;

  /// Same, against a caller-owned workspace (e.g. one reused across a whole
  /// robustness enumeration). Never share a workspace between threads.
  std::optional<Vector> generic_decode(const std::vector<bool>& received,
                                       SolveWorkspace& ws) const;

  /// Derived constructors publish their quorum table once (validated:
  /// one clause entry per worker, clause ids in range, thresholds > 0).
  void publish_quorums(Quorums quorums);

 private:
  SparseRowMatrix coding_matrix_;
  Assignment assignment_;
  std::size_t s_;
  // Lazily materialized dense view; guarded so concurrent sweep threads
  // sharing one scheme race-free. Logically const — a pure function of
  // coding_matrix_.
  mutable Matrix dense_view_;
  mutable std::once_flag dense_view_once_;
  std::optional<Quorums> quorums_;
};

/// Worker-side encoding: g̃_w = Σ_j B(w,j)·g_j over the partitions worker w
/// holds. `partition_gradients[j]` is g_j; only the supported entries are
/// touched, so callers may leave other slots empty.
Vector encode_gradient(const CodingScheme& scheme, WorkerId worker,
                       const std::vector<Vector>& partition_gradients);

/// Master-side reconstruction: Σ_w a_w·g̃_w. `coded[w]` may be empty when
/// a_w == 0 (worker never responded).
Vector combine_coded_gradients(std::span<const double> coefficients,
                               const std::vector<Vector>& coded);

}  // namespace hgc
