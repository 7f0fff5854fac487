// Verbatim copies of the seed scoring loops (see header). Deliberately not
// refactored onto the shared helpers: these freeze the seed's exact
// computation shape, duplicated work included.
#include "tests/reference/reference_detectors.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "tests/reference/reference_graph.h"

namespace grgad::reference {

Matrix PairwiseDistances(const Matrix& x) {
  const size_t n = x.rows();
  Matrix d(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double* a = x.RowPtr(i);
      const double* b = x.RowPtr(j);
      double s = 0.0;
      for (size_t k = 0; k < x.cols(); ++k) {
        const double diff = a[k] - b[k];
        s += diff * diff;
      }
      const double dist = std::sqrt(s);
      d(i, j) = dist;
      d(j, i) = dist;
    }
  }
  return d;
}

std::vector<std::vector<int>> KNearestNeighbors(const Matrix& x, int k) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 1);
  k = std::min(k, n - 1);
  const Matrix d = PairwiseDistances(x);
  std::vector<std::vector<int>> out(n);
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) {
    idx.clear();
    for (int j = 0; j < n; ++j) {
      if (j != i) idx.push_back(j);
    }
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [&d, i](int a, int b) {
                        if (d(i, a) != d(i, b)) return d(i, a) < d(i, b);
                        return a < b;
                      });
    out[i].assign(idx.begin(), idx.begin() + k);
  }
  return out;
}

std::vector<double> KnnFitScore(const Matrix& x, int k) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  if (n == 1) return {0.0};
  k = std::min(k, n - 1);
  const auto nn = KNearestNeighbors(x, k);
  const Matrix d = PairwiseDistances(x);
  std::vector<double> score(n);
  for (int i = 0; i < n; ++i) score[i] = d(i, nn[i].back());
  return score;
}

std::vector<double> LofFitScore(const Matrix& x, int k) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  if (n <= 2) return std::vector<double>(n, 1.0);
  k = std::min(k, n - 1);
  const Matrix d = PairwiseDistances(x);
  const auto nn = KNearestNeighbors(x, k);
  // k-distance of each point = distance to its k-th neighbor.
  std::vector<double> kdist(n);
  for (int i = 0; i < n; ++i) kdist[i] = d(i, nn[i].back());
  // Local reachability density.
  std::vector<double> lrd(n);
  for (int i = 0; i < n; ++i) {
    double sum_reach = 0.0;
    for (int j : nn[i]) {
      sum_reach += std::max(kdist[j], d(i, j));
    }
    lrd[i] = sum_reach > 0.0 ? static_cast<double>(nn[i].size()) / sum_reach
                             : 1e12;  // Duplicated points: huge density.
  }
  std::vector<double> lof(n);
  for (int i = 0; i < n; ++i) {
    double s = 0.0;
    for (int j : nn[i]) s += lrd[j];
    lof[i] = lrd[i] > 0.0
                 ? s / (static_cast<double>(nn[i].size()) * lrd[i])
                 : 0.0;
  }
  return lof;
}

namespace {

/// Sample skewness of a column (0 for degenerate columns).
double Skewness(const std::vector<double>& col) {
  const size_t n = col.size();
  if (n < 2) return 0.0;
  double mean = 0.0;
  for (double v : col) mean += v;
  mean /= static_cast<double>(n);
  double m2 = 0.0, m3 = 0.0;
  for (double v : col) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 1e-300) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

}  // namespace

std::vector<double> EcodFitScore(const Matrix& x) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  GRGAD_CHECK_GT(n, 0u);
  std::vector<double> o_left(n, 0.0), o_right(n, 0.0), o_auto(n, 0.0);
  std::vector<double> col(n);
  std::vector<double> sorted(n);
  for (size_t j = 0; j < d; ++j) {
    for (size_t i = 0; i < n; ++i) col[i] = x(i, j);
    sorted = col;
    std::sort(sorted.begin(), sorted.end());
    const double skew = Skewness(col);
    for (size_t i = 0; i < n; ++i) {
      // Left tail: P(X <= x_i) with the sample included -> rank/(n).
      const auto hi =
          std::upper_bound(sorted.begin(), sorted.end(), col[i]);
      const double p_left =
          static_cast<double>(hi - sorted.begin()) / static_cast<double>(n);
      // Right tail: P(X >= x_i).
      const auto lo = std::lower_bound(sorted.begin(), sorted.end(), col[i]);
      const double p_right =
          static_cast<double>(sorted.end() - lo) / static_cast<double>(n);
      const double nl = -std::log(std::max(p_left, 1e-12));
      const double nr = -std::log(std::max(p_right, 1e-12));
      o_left[i] += nl;
      o_right[i] += nr;
      // Skewness-corrected: negative skew -> left tail carries anomalies.
      o_auto[i] += (skew < 0.0) ? nl : nr;
    }
  }
  std::vector<double> score(n);
  for (size_t i = 0; i < n; ++i) {
    score[i] = std::max({o_left[i], o_right[i], o_auto[i]});
  }
  return score;
}

namespace {

struct IsoNode {
  int feature = -1;       // -1 marks a leaf.
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  int size = 0;           // Samples reaching this node (leaves only).
};

/// One isolation tree over the rows of x listed in `items`.
class IsoTree {
 public:
  IsoTree(const Matrix& x, std::vector<int> items, int max_depth, Rng* rng) {
    root_ = BuildNode(x, std::move(items), 0, max_depth, rng);
  }

  double PathLength(const Matrix& x, int row) const {
    int node = root_;
    double depth = 0.0;
    while (nodes_[node].feature >= 0) {
      node = x(row, nodes_[node].feature) < nodes_[node].threshold
                 ? nodes_[node].left
                 : nodes_[node].right;
      depth += 1.0;
    }
    return depth + AveragePathLength(nodes_[node].size);
  }

 private:
  int BuildNode(const Matrix& x, std::vector<int> items, int depth,
                int max_depth, Rng* rng) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    if (depth >= max_depth || items.size() <= 1) {
      nodes_[id].size = static_cast<int>(items.size());
      return id;
    }
    // Pick a feature with spread; give up after a few tries (constant data).
    const int d = static_cast<int>(x.cols());
    int feature = -1;
    double lo = 0.0, hi = 0.0;
    for (int attempt = 0; attempt < 8 && feature < 0; ++attempt) {
      const int f = static_cast<int>(rng->UniformInt(
          static_cast<uint64_t>(d)));
      lo = hi = x(items[0], f);
      for (int row : items) {
        lo = std::min(lo, x(row, f));
        hi = std::max(hi, x(row, f));
      }
      if (hi > lo) feature = f;
    }
    if (feature < 0) {
      nodes_[id].size = static_cast<int>(items.size());
      return id;
    }
    const double threshold = rng->Uniform(lo, hi);
    std::vector<int> left_items, right_items;
    for (int row : items) {
      (x(row, feature) < threshold ? left_items : right_items).push_back(row);
    }
    if (left_items.empty() || right_items.empty()) {
      nodes_[id].size = static_cast<int>(items.size());
      return id;
    }
    nodes_[id].feature = feature;
    nodes_[id].threshold = threshold;
    const int left = BuildNode(x, std::move(left_items), depth + 1, max_depth,
                               rng);
    const int right = BuildNode(x, std::move(right_items), depth + 1,
                                max_depth, rng);
    nodes_[id].left = left;
    nodes_[id].right = right;
    return id;
  }

  std::vector<IsoNode> nodes_;
  int root_ = 0;
};

}  // namespace

std::vector<double> IsolationForestFitScore(
    const Matrix& x, const IsolationForestOptions& options) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  const int psi = std::min(options.subsample, n);
  const int max_depth =
      static_cast<int>(std::ceil(std::log2(std::max(2, psi))));
  Rng rng(options.seed);
  std::vector<double> total_path(n, 0.0);
  for (int t = 0; t < options.num_trees; ++t) {
    std::vector<size_t> sample =
        rng.SampleWithoutReplacement(static_cast<size_t>(n),
                                     static_cast<size_t>(psi));
    std::vector<int> items(sample.begin(), sample.end());
    IsoTree tree(x, std::move(items), max_depth, &rng);
    for (int i = 0; i < n; ++i) total_path[i] += tree.PathLength(x, i);
  }
  const double c = AveragePathLength(psi);
  std::vector<double> score(n);
  for (int i = 0; i < n; ++i) {
    const double mean_path = total_path[i] / options.num_trees;
    score[i] = std::pow(2.0, -mean_path / std::max(c, 1e-12));
  }
  return score;
}

namespace {

/// Sorted intersection of the closed neighborhoods of u and v.
std::vector<int> ClosedNeighborhoodOverlap(const Graph& g, int u, int v) {
  auto nu = g.Neighbors(u);
  auto nv = g.Neighbors(v);
  std::vector<int> cu(nu.begin(), nu.end());
  std::vector<int> cv(nv.begin(), nv.end());
  cu.insert(std::lower_bound(cu.begin(), cu.end(), u), u);
  cv.insert(std::lower_bound(cv.begin(), cv.end(), v), v);
  std::vector<int> overlap;
  std::set_intersection(cu.begin(), cu.end(), cv.begin(), cv.end(),
                        std::back_inserter(overlap));
  return overlap;
}

/// Number of edges of g inside `nodes` (sorted).
int EdgesWithin(const Graph& g, const std::vector<int>& nodes) {
  int count = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto nb = g.Neighbors(nodes[i]);
    for (int w : nb) {
      if (w > nodes[i] &&
          std::binary_search(nodes.begin(), nodes.end(), w)) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

std::vector<double> GraphSnnEdgeWeights(const Graph& g, double lambda) {
  const auto edges = EdgeList(g);
  std::vector<double> weights(edges.size(), 0.0);
  for (size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    const std::vector<int> overlap = ClosedNeighborhoodOverlap(g, u, v);
    const double nv = static_cast<double>(overlap.size());
    if (nv < 2.0) continue;  // Denominator |V|*(|V|-1) undefined/zero.
    const double ne = EdgesWithin(g, overlap);
    weights[e] = ne / (nv * (nv - 1.0)) * std::pow(nv, lambda);
  }
  return weights;
}

}  // namespace grgad::reference
