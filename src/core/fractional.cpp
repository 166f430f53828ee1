#include "core/fractional.hpp"

#include "util/error.hpp"

namespace hgc {

struct FractionalRepetitionScheme::Layout {
  SparseRowMatrix b;
  Assignment assignment;
  std::vector<std::vector<WorkerId>> blocks;
  std::vector<std::vector<PartitionId>> stripes;
};

namespace {

FractionalRepetitionScheme::Layout make_layout(std::size_t m, std::size_t s,
                                               std::size_t k) {
  HGC_REQUIRE(m > 0, "need at least one worker");
  HGC_REQUIRE(s < m, "fractional repetition requires s < m");
  HGC_REQUIRE(m % (s + 1) == 0, "fractional repetition requires (s+1) | m");
  const std::size_t num_blocks = m / (s + 1);
  HGC_REQUIRE(k % num_blocks == 0,
              "fractional repetition requires (m/(s+1)) | k");
  const std::size_t stripe_size = k / num_blocks;

  FractionalRepetitionScheme::Layout layout;
  layout.assignment.resize(m);
  layout.blocks.resize(num_blocks);
  layout.stripes.resize(num_blocks);

  SparseRowBuilder b(m, k);
  for (std::size_t blk = 0; blk < num_blocks; ++blk) {
    for (std::size_t i = 0; i < stripe_size; ++i)
      layout.stripes[blk].push_back(blk * stripe_size + i);
    for (std::size_t r = 0; r <= s; ++r) {
      const WorkerId w = blk * (s + 1) + r;
      layout.blocks[blk].push_back(w);
      layout.assignment[w] = layout.stripes[blk];
      for (PartitionId p : layout.stripes[blk]) b.set(w, p, 1.0);
    }
  }
  layout.b = b.build();
  return layout;
}

}  // namespace

FractionalRepetitionScheme::FractionalRepetitionScheme(Layout layout,
                                                       std::size_t s)
    : CodingScheme(std::move(layout.b), std::move(layout.assignment), s),
      blocks_(std::move(layout.blocks)),
      stripe_partitions_(std::move(layout.stripes)) {
  // Decodable exactly when every block has a replica in: one clause of
  // threshold 1 per block, all of them needed.
  Quorums quorums;
  quorums.total = num_workers();
  quorums.clause_of.resize(num_workers());
  for (std::size_t blk = 0; blk < blocks_.size(); ++blk)
    for (WorkerId w : blocks_[blk]) quorums.clause_of[w] = blk;
  quorums.threshold.assign(blocks_.size(), 1);
  quorums.clauses_needed = blocks_.size();
  publish_quorums(std::move(quorums));
}

FractionalRepetitionScheme::FractionalRepetitionScheme(std::size_t m,
                                                       std::size_t s,
                                                       std::size_t k)
    : FractionalRepetitionScheme(make_layout(m, s, k == 0 ? m : k), s) {}

std::optional<Vector> FractionalRepetitionScheme::decoding_coefficients(
    const std::vector<bool>& received) const {
  HGC_REQUIRE(received.size() == num_workers(),
              "received flags must have one entry per worker");
  Vector coefficients(num_workers(), 0.0);
  for (const auto& block : blocks_) {
    bool covered = false;
    for (WorkerId w : block) {
      if (received[w]) {
        coefficients[w] = 1.0;  // any single replica carries the whole stripe
        covered = true;
        break;
      }
    }
    if (!covered) return std::nullopt;
  }
  return coefficients;
}

std::size_t FractionalRepetitionScheme::min_results_required() const {
  return blocks_.size();
}

}  // namespace hgc
