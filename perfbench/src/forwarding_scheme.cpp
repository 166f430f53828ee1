#include "forwarding_scheme.hpp"

#include <algorithm>
#include <cmath>

#include "spans.hpp"

namespace perfbench {

void Certificates::merge(const Certificates& other) {
  checked += other.checked;
  failures += other.failures;
  max_residual = std::max(max_residual, other.max_residual);
}

double certificate_residual(const hgc::SparseRowMatrix& b,
                            const hgc::Vector& a) {
  thread_local hgc::Vector product;
  product.assign(b.cols(), 0.0);
  for (std::size_t w = 0; w < a.size(); ++w) {
    if (a[w] == 0.0) continue;
    const auto cols = b.row_cols(w);
    const auto values = b.row_values(w);
    for (std::size_t i = 0; i < cols.size(); ++i)
      product[cols[i]] += a[w] * values[i];
  }
  double worst = 0.0;
  for (double v : product) worst = std::max(worst, std::abs(v - 1.0));
  return worst;
}

ForwardingScheme::Solver::Solver(const ForwardingScheme& owner)
    : hgc::CodingScheme(owner.sparse_matrix(), owner.assignment(),
                        owner.stragglers_tolerated()),
      owner_(owner) {}

ForwardingScheme::ForwardingScheme(
    std::shared_ptr<const hgc::CodingScheme> inner, int tag,
    std::size_t cache_capacity)
    : hgc::CodingScheme(inner->sparse_matrix(), inner->assignment(),
                        inner->stragglers_tolerated()),
      inner_(std::move(inner)),
      tag_(tag) {
  if (cache_capacity > 0) {
    solver_ = std::make_unique<Solver>(*this);
    cache_.emplace(*solver_, cache_capacity);
  }
}

std::optional<hgc::Vector> ForwardingScheme::decoding_coefficients(
    const std::vector<bool>& received) const {
  std::optional<hgc::Vector> coefficients;
  {
    ScopedSpan span("core.decode", tag_);
    coefficients = cache_ ? cache_->decode(received) : solve(received);
  }
  ++counts_.checks;
  ++counts_.registry_solves;
  if (coefficients) {
    ++counts_.successes;
    certify(*coefficients);
  }
  return coefficients;
}

std::optional<hgc::Vector> ForwardingScheme::solve(
    const std::vector<bool>& received) const {
  ScopedSpan span("core.decode.solve", tag_);
  ++counts_.solves;
  if (cache_) ++counts_.registry_solves;
  return inner_->decoding_coefficients(received);
}

void ForwardingScheme::certify(const hgc::Vector& coefficients) const {
  ScopedSpan span("bench.certify");
  const double residual = certificate_residual(sparse_matrix(), coefficients);
  ++certificates_.checked;
  // A NaN residual fails too.
  if (!(residual <= kCertificateTolerance)) ++certificates_.failures;
  if (!(residual <= certificates_.max_residual))
    certificates_.max_residual = residual;
}

}  // namespace perfbench
