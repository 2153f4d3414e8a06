#include "losses/resolvers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace crh {

namespace {

/// Deterministic "smaller" ordering across Values of the same type, used
/// only for tie-breaking in WeightedVote.
bool ValueLess(const Value& a, const Value& b) {
  if (a.is_categorical() && b.is_categorical()) return a.category() < b.category();
  if (a.is_continuous() && b.is_continuous()) return a.continuous() < b.continuous();
  // Mixed types (should not happen within one property): categorical first.
  return a.is_categorical() && !b.is_categorical();
}

/// The shared Eq-14 accumulator: (sum w*v, sum w) with ONE association
/// order used by both the vector and span means, so dense and sparse
/// results stay bit-identical: the sequential left-to-right sum.
CRH_HOT inline void WeightedSumPair(const double* values, const double* weights, size_t n,
                                    double* total, double* total_weight) {
  double t = 0.0, w = 0.0;
  for (size_t k = 0; k < n; ++k) {
    t += weights[k] * values[k];
    w += weights[k];
  }
  *total = t;
  *total_weight = w;
}

/// The shared Eq-16 ordering: sorts \p order (a 0..n-1 permutation) by
/// ascending value, with ONE tie permutation shared by the vector and span
/// medians (ties feed the group weight sums, so their order is
/// load-bearing for bit-identity). Small spans — the common case at low
/// density — use a stable insertion sort, skipping std::sort's dispatch
/// overhead; larger ones fall through to std::sort, whose final
/// insertion pass makes it equivalent for n <= 16 anyway.
CRH_HOT inline void SortOrderByValue(size_t* order, size_t n, const double* values) {
  constexpr size_t kInsertionThreshold = 32;
  if (n <= kInsertionThreshold) {
    for (size_t i = 1; i < n; ++i) {
      const size_t key = order[i];
      const double v = values[key];
      size_t j = i;
      while (j > 0 && v < values[order[j - 1]]) {
        order[j] = order[j - 1];
        --j;
      }
      order[j] = key;
    }
    return;
  }
  std::sort(order, order + n, [&](size_t a, size_t b) { return values[a] < values[b]; });
}

}  // namespace

Value WeightedVote(const std::vector<Value>& values, const std::vector<double>& weights) {
  // Tally into claim-ordered vectors; the hash map is a lookup-only dedup
  // index, never iterated. Scanning candidates in first-claim order keeps
  // the winner — and the association order of each candidate's weight sum —
  // a pure function of the claims, independent of hash-bucket layout
  // (crh_analyzer, determinism-taint).
  std::unordered_map<Value, size_t, ValueHash> index;
  std::vector<Value> candidates;
  std::vector<double> tally;
  for (size_t k = 0; k < values.size(); ++k) {
    if (values[k].is_missing()) continue;
    const auto [it, added] = index.emplace(values[k], candidates.size());
    if (added) {
      candidates.push_back(values[k]);
      tally.push_back(0.0);
    }
    tally[it->second] += weights[k];
  }
  if (candidates.empty()) return Value::Missing();
  Value best = Value::Missing();
  double best_weight = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (tally[c] > best_weight ||
        (tally[c] == best_weight && ValueLess(candidates[c], best))) {
      best = candidates[c];
      best_weight = tally[c];
    }
  }
  return best;
}

double WeightedMean(const std::vector<double>& values, const std::vector<double>& weights) {
  double total = 0.0, total_weight = 0.0;
  WeightedSumPair(values.data(), weights.data(), values.size(), &total, &total_weight);
  if (total_weight <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return total / total_weight;
}

double WeightedMedian(std::vector<double> values, std::vector<double> weights) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  // Drop non-positive weights; fall back to uniform if nothing remains.
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);
  if (total <= 0.0) {
    std::fill(weights.begin(), weights.end(), 1.0);
    total = static_cast<double>(values.size());
  }

  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  SortOrderByValue(order.data(), order.size(), values.data());

  // Walk the sorted claims grouped by equal value; pick the first group
  // whose strictly-below weight is < total/2 and strictly-above weight is
  // <= total/2 (Eq 16).
  const double half = total / 2.0;
  double below = 0.0;
  size_t pos = 0;
  while (pos < order.size()) {
    const double v = values[order[pos]];
    double group = 0.0;
    size_t end = pos;
    while (end < order.size() && values[order[end]] == v) {
      group += std::max(weights[order[end]], 0.0);
      ++end;
    }
    const double above = total - below - group;
    if (below < half && above <= half) return v;
    below += group;
    pos = end;
  }
  // Numerically unreachable, but return the largest claim as a safe answer.
  return values[order.back()];
}

double WeightedMedianLinear(std::vector<double> values, std::vector<double> weights) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);
  if (total <= 0.0) {
    std::fill(weights.begin(), weights.end(), 1.0);
    total = static_cast<double>(values.size());
  }
  // The weighted (lower) median is the smallest claim v whose cumulative
  // weight over {claims <= v} reaches total/2 — equivalent to Eq (16).
  const double target = total / 2.0;

  std::vector<std::pair<double, double>> pool;
  pool.reserve(values.size());
  for (size_t k = 0; k < values.size(); ++k) {
    pool.emplace_back(values[k], std::max(weights[k], 0.0));
  }

  double below = 0.0;  // total weight already discarded to the left
  std::vector<std::pair<double, double>> less, greater;
  while (true) {
    // Non-finite claims compare false against every pivot, so their weight
    // can leave the recursion while the target still counts it; the pool
    // then drains empty. Surface NaN rather than selecting from nothing.
    if (pool.empty()) return std::numeric_limits<double>::quiet_NaN();
    if (pool.size() == 1) return pool[0].first;
    // Deterministic median-of-three pivot.
    const double a = pool.front().first;
    const double b = pool[pool.size() / 2].first;
    const double c = pool.back().first;
    const double pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));

    less.clear();
    greater.clear();
    double weight_less = 0.0, weight_equal = 0.0;
    for (const auto& [v, w] : pool) {
      if (v < pivot) {
        less.emplace_back(v, w);
        weight_less += w;
      } else if (v > pivot) {
        greater.emplace_back(v, w);
      } else {
        weight_equal += w;
      }
    }
    if (below + weight_less >= target) {
      pool.swap(less);
    } else if (below + weight_less + weight_equal >= target) {
      return pivot;
    } else {
      below += weight_less + weight_equal;
      pool.swap(greater);
    }
  }
}

std::vector<double> WeightedLabelDistribution(const std::vector<CategoryId>& labels,
                                              const std::vector<double>& weights,
                                              size_t num_labels) {
  std::vector<double> dist(num_labels, 0.0);
  double total = 0.0;
  for (size_t k = 0; k < labels.size(); ++k) {
    dist[static_cast<size_t>(labels[k])] += weights[k];
    total += weights[k];
  }
  if (total <= 0.0) {
    // Zero total weight: every claim is equally credible. The uniform
    // fallback covers only the *claimed* labels — spreading mass over the
    // whole dictionary would let the mode land on a label no source ever
    // claimed, violating the Eq-3 domain invariant.
    for (const CategoryId label : labels) dist[static_cast<size_t>(label)] = 1.0;
    double claimed = 0.0;
    for (const double p : dist) claimed += p;
    if (claimed > 0.0) {
      for (double& p : dist) p /= claimed;
    }
    return dist;
  }
  for (double& p : dist) p /= total;
  return dist;
}

Value WeightedMedoid(const std::vector<Value>& values, const std::vector<double>& weights,
                     const std::function<double(const Value&, const Value&)>& distance) {
  // Group duplicate claims so distances are evaluated once per distinct
  // pair; the medoid is always one of the claimed values.
  std::vector<Value> distinct;
  std::vector<double> mass;
  for (size_t k = 0; k < values.size(); ++k) {
    if (values[k].is_missing()) continue;
    bool found = false;
    for (size_t d = 0; d < distinct.size(); ++d) {
      if (distinct[d] == values[k]) {
        mass[d] += weights[k];
        found = true;
        break;
      }
    }
    if (!found) {
      distinct.push_back(values[k]);
      mass.push_back(weights[k]);
    }
  }
  if (distinct.empty()) return Value::Missing();

  Value best = distinct[0];
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < distinct.size(); ++c) {
    double cost = 0.0;
    for (size_t d = 0; d < distinct.size(); ++d) {
      if (d != c) cost += mass[d] * distance(distinct[c], distinct[d]);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = distinct[c];
    }
  }
  return best;
}

size_t ArgMax(const std::vector<double>& xs) {
  size_t best = 0;
  for (size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Span variants. Each mirrors its vector counterpart exactly: candidates are
// scanned in first-claim order, weights accumulate with the same association
// order, and ties break through the same comparators, so results are
// bit-identical at any claim count.

CRH_HOT Value WeightedVoteSpan(const Value* values, const double* weights, size_t n,
                       ResolverScratch& scratch) {
  CRH_DCHECK_GE(scratch.capacity, n);
  Value* candidates = scratch.candidates;
  double* tally = scratch.tally;
  size_t num_candidates = 0;
  for (size_t k = 0; k < n; ++k) {
    if (values[k].is_missing()) continue;
    size_t c = 0;
    while (c < num_candidates && !(candidates[c] == values[k])) ++c;
    if (c == num_candidates) {
      candidates[num_candidates] = values[k];
      tally[num_candidates] = 0.0;
      ++num_candidates;
    }
    tally[c] += weights[k];
  }
  if (num_candidates == 0) return Value::Missing();
  Value best = Value::Missing();
  double best_weight = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < num_candidates; ++c) {
    if (tally[c] > best_weight ||
        (tally[c] == best_weight && ValueLess(candidates[c], best))) {
      best = candidates[c];
      best_weight = tally[c];
    }
  }
  return best;
}

CRH_HOT CategoryId WeightedVoteLabelsSpan(const CategoryId* labels, const double* weights,
                                          size_t n, ResolverScratch& scratch) {
  CRH_DCHECK_GE(scratch.capacity, n);
  CategoryId* candidates = scratch.labels;
  double* tally = scratch.tally;
  size_t num_candidates = 0;
  for (size_t k = 0; k < n; ++k) {
    size_t c = 0;
    while (c < num_candidates && candidates[c] != labels[k]) ++c;
    if (c == num_candidates) {
      candidates[num_candidates] = labels[k];
      tally[num_candidates] = 0.0;
      ++num_candidates;
    }
    tally[c] += weights[k];
  }
  if (num_candidates == 0) return kInvalidCategory;
  CategoryId best = kInvalidCategory;
  double best_weight = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < num_candidates; ++c) {
    if (tally[c] > best_weight ||
        (tally[c] == best_weight && candidates[c] < best)) {
      best = candidates[c];
      best_weight = tally[c];
    }
  }
  return best;
}

CRH_HOT double WeightedMeanSpan(const double* values, const double* weights, size_t n) {
  double total = 0.0, total_weight = 0.0;
  WeightedSumPair(values, weights, n, &total, &total_weight);
  if (total_weight <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return total / total_weight;
}

CRH_HOT double WeightedMedianSpan(const double* values, const double* weights, size_t n,
                          ResolverScratch& scratch) {
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  CRH_DCHECK_GE(scratch.capacity, n);
  // Non-positive weights are dropped at use; a weight total of zero (or a
  // null weights pointer) selects the uniform fallback, matching
  // WeightedMedian's fill(1.0).
  double total = 0.0;
  if (weights != nullptr) {
    for (size_t k = 0; k < n; ++k) total += std::max(weights[k], 0.0);
  }
  bool uniform = false;
  if (weights == nullptr || total <= 0.0) {
    uniform = true;
    total = static_cast<double>(n);
  }

  size_t* order = scratch.order;
  for (size_t k = 0; k < n; ++k) order[k] = k;
  SortOrderByValue(order, n, values);

  const double half = total / 2.0;
  double below = 0.0;
  size_t pos = 0;
  while (pos < n) {
    const double v = values[order[pos]];
    double group = 0.0;
    size_t end = pos;
    while (end < n && values[order[end]] == v) {
      group += uniform ? 1.0 : std::max(weights[order[end]], 0.0);
      ++end;
    }
    const double above = total - below - group;
    if (below < half && above <= half) return v;
    below += group;
    pos = end;
  }
  return values[order[n - 1]];
}

CRH_HOT void WeightedLabelDistributionSpan(const CategoryId* labels, const double* weights,
                                   size_t n, double* dist, size_t num_labels) {
  std::fill(dist, dist + num_labels, 0.0);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    dist[static_cast<size_t>(labels[k])] += weights[k];
    total += weights[k];
  }
  if (total <= 0.0) {
    // Same claimed-labels-only uniform fallback as WeightedLabelDistribution.
    for (size_t k = 0; k < n; ++k) dist[static_cast<size_t>(labels[k])] = 1.0;
    double claimed = 0.0;
    for (size_t i = 0; i < num_labels; ++i) claimed += dist[i];
    if (claimed > 0.0) {
      for (size_t i = 0; i < num_labels; ++i) dist[i] /= claimed;
    }
    return;
  }
  for (size_t i = 0; i < num_labels; ++i) dist[i] /= total;
}

CRH_HOT size_t ArgMaxSpan(const double* xs, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

}  // namespace crh
