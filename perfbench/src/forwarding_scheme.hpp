// A CodingScheme owned by the benchmark that forwards to a real scheme and
// measures the decode layer from outside the library.
//
// The wrapper holds a copy of the real scheme's sparse B (through the
// protected (SparseRowMatrix, Assignment, s) constructor), so the engine's
// workers see the same loads and encode the same rows. The master's every
// decodability check lands in decoding_coefficients(), timed as a
// "core.decode" span. With a decoding cache the check goes through the
// wrapper's own DecodingCache (the engine is then given none); a miss, or
// every check without a cache, reaches the real scheme's
// decoding_coefficients inside a "core.decode.solve" span. Every vector a
// check returns, fast paths and cache hits alike, is certified: a·B = 1_k,
// checked in one O(nnz) pass over sparse_matrix().
//
// One instance serves one cell on one thread; its counters are not shared.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/coding_scheme.hpp"
#include "core/decoding_cache.hpp"

namespace perfbench {

/// Certificate tally: how many coefficient vectors were checked, how many
/// missed a·B = 1 by more than kCertificateTolerance, and the worst miss.
struct Certificates {
  std::uint64_t checked = 0;
  std::uint64_t failures = 0;
  double max_residual = 0.0;

  void merge(const Certificates& other);
};

/// Largest |(a·B)_j − 1| accepted as a valid decode.
inline constexpr double kCertificateTolerance = 1e-6;

/// max_j |(a·B)_j − 1| over the k partitions of `b`.
double certificate_residual(const hgc::SparseRowMatrix& b,
                            const hgc::Vector& a);

/// Decode-layer counts of one forwarding scheme.
struct DecodeCounts {
  std::uint64_t checks = 0;     ///< decodability checks (cache look-ups)
  std::uint64_t successes = 0;  ///< checks that returned coefficients
  std::uint64_t solves = 0;     ///< checks that reached the real scheme
  /// Calls the library's registry counts as decode.solves for this scheme:
  /// the engine counts each check, a cache miss counts once more.
  std::uint64_t registry_solves = 0;
};

class ForwardingScheme final : public hgc::CodingScheme {
 public:
  /// `tag` labels this scheme's spans for per-scheme splits;
  /// `cache_capacity` > 0 gives it a decoding cache of that size.
  ForwardingScheme(std::shared_ptr<const hgc::CodingScheme> inner, int tag,
                   std::size_t cache_capacity = 0);

  std::string name() const override { return inner_->name(); }
  std::optional<hgc::Vector> decoding_coefficients(
      const std::vector<bool>& received) const override;
  std::size_t min_results_required() const override {
    return inner_->min_results_required();
  }

  int tag() const { return tag_; }
  const DecodeCounts& counts() const { return counts_; }
  const Certificates& certificates() const { return certificates_; }

 private:
  /// The scheme the decoding cache wraps: its checks are the real solves.
  class Solver final : public hgc::CodingScheme {
   public:
    explicit Solver(const ForwardingScheme& owner);
    std::string name() const override { return owner_.name(); }
    std::optional<hgc::Vector> decoding_coefficients(
        const std::vector<bool>& received) const override {
      return owner_.solve(received);
    }

   private:
    const ForwardingScheme& owner_;
  };

  std::optional<hgc::Vector> solve(const std::vector<bool>& received) const;
  void certify(const hgc::Vector& coefficients) const;

  std::shared_ptr<const hgc::CodingScheme> inner_;
  int tag_;
  std::unique_ptr<Solver> solver_;
  mutable std::optional<hgc::DecodingCache> cache_;
  mutable DecodeCounts counts_;
  mutable Certificates certificates_;
};

}  // namespace perfbench
