// Fractional repetition scheme of Tandon et al. [12] (extension).
//
// The paper describes but does not run this baseline (it needs (s+1) | m and
// is on par with the cyclic scheme); we implement it for completeness and for
// ablation benches. Workers are split into s+1 replica groups; group g
// mirrors the g-th "stripe" of partitions with coefficient 1, so each
// partition is replicated s+1 times and any single surviving replica group
// decodes by plain summation.
#pragma once

#include "core/coding_scheme.hpp"

namespace hgc {

/// Fractional repetition gradient code [12]: requires (s+1) | m and
/// m | k·(s+1) — the default k = m always qualifies.
class FractionalRepetitionScheme : public CodingScheme {
 public:
  /// m workers, k partitions (defaulted to m when 0), tolerance s.
  FractionalRepetitionScheme(std::size_t m, std::size_t s, std::size_t k = 0);

  std::string name() const override { return "fractional-repetition"; }

  /// Decodable exactly when every block has a received replica; quorums()
  /// says so with one threshold-1 clause per block, all of them needed.
  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const override;

  /// A complete set of gradients needs one worker from each of the
  /// m/(s+1) blocks; this can be far fewer than m−s results.
  std::size_t min_results_required() const override;

  /// Worker block layout: block(b) lists the s+1 workers replicating
  /// stripe b.
  const std::vector<std::vector<WorkerId>>& blocks() const { return blocks_; }

  struct Layout;  // implementation detail, defined in the .cpp

 private:
  explicit FractionalRepetitionScheme(Layout layout, std::size_t s);

  std::vector<std::vector<WorkerId>> blocks_;
  std::vector<std::vector<PartitionId>> stripe_partitions_;
};

}  // namespace hgc
