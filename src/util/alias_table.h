// Walker alias method for O(1) sampling from a discrete distribution.
//
// The request samplers (scenario streams, the concurrent driver) draw
// millions of user ids weighted by production / consumption rates; the alias
// table makes each draw two table lookups regardless of population size.

#pragma once

#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace piggy {

/// \brief Samples indices i in [0, n) with probability weights[i] / sum.
class AliasTable {
 public:
  /// Builds the table from non-negative weights; at least one weight must be
  /// positive.
  explicit AliasTable(const std::vector<double>& weights) {
    const size_t n = weights.size();
    PIGGY_CHECK_GT(n, 0u);
    double total = 0;
    for (double w : weights) {
      PIGGY_CHECK_GE(w, 0.0);
      total += w;
    }
    PIGGY_CHECK_GT(total, 0.0);
    total_ = total;

    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    std::vector<double> scaled(n);
    std::vector<uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      uint32_t s = small.back();
      small.pop_back();
      uint32_t l = large.back();
      large.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Leftovers are 1.0 up to floating-point error.
    for (uint32_t i : large) prob_[i] = 1.0;
    for (uint32_t i : small) prob_[i] = 1.0;
  }

  /// Number of categories.
  size_t size() const { return prob_.size(); }

  /// Sum of the input weights.
  double total_weight() const { return total_; }

  /// Draws one index.
  uint32_t Sample(Rng& rng) const {
    uint32_t i = static_cast<uint32_t>(rng.Uniform(prob_.size()));
    return rng.UniformDouble() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  double total_ = 0;
};

}  // namespace piggy
