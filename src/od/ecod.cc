#include "src/od/ecod.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace grgad {

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

/// One sample and its row, sorted by (value, row).
struct Entry {
  double value;
  size_t row;
};

/// One column's ECDF tail contributions: nl/nr/na get column j's
/// -log tail probabilities per sample (na = skewness-selected tail).
/// `neg_log[k]` is -log(max(k/n, 1e-12)): a tail probability of k/n reads
/// its contribution from the table, bitwise what evaluating it would give.
void ColumnContributions(const Matrix& x, size_t j,
                         const std::vector<double>& neg_log,
                         std::vector<double>* col, std::vector<Entry>* order,
                         double* nl, double* nr, double* na) {
  const size_t n = x.rows();
  for (size_t i = 0; i < n; ++i) {
    (*col)[i] = x(i, j);
    (*order)[i] = {(*col)[i], i};
  }
  std::sort(order->begin(), order->end(), [](const Entry& a, const Entry& b) {
    return a.value < b.value || (a.value == b.value && a.row < b.row);
  });
  const double skew = Skewness(*col);
  // Every row in a run of equal values at sorted positions [s, e) has
  // upper_bound count e (left tail P(X <= x_i) = e/n, the sample included)
  // and lower_bound index s (right tail P(X >= x_i) = (n - s)/n).
  for (size_t s = 0; s < n;) {
    size_t e = s + 1;
    while (e < n && (*order)[e].value == (*order)[s].value) ++e;
    const double left = neg_log[e];
    const double right = neg_log[n - s];
    // Skewness-corrected: negative skew -> left tail carries anomalies.
    const double tail = (skew < 0.0) ? left : right;
    for (size_t k = s; k < e; ++k) {
      const size_t i = (*order)[k].row;
      nl[i] = left;
      nr[i] = right;
      na[i] = tail;
    }
    s = e;
  }
}

}  // namespace

std::vector<double> Ecod::FitScore(const Matrix& x) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  GRGAD_CHECK_GT(n, 0u);
  std::vector<double> o_left(n, 0.0), o_right(n, 0.0), o_auto(n, 0.0);
  // Columns are independent until the final per-sample accumulation, so
  // the one sort per column (the hot part) fans out over the pool: each
  // column in a block writes its contributions to its own slice, then the
  // block reduces in ascending column order per sample — a serial column
  // loop's exact accumulation order, so the result is bitwise identical to
  // reference::EcodFitScore and invariant across GRGAD_THREADS. Blocks
  // bound the contribution buffers to ~3 * kBlockBudget doubles; one-row
  // and one-column inputs need no special case. Tail probabilities are
  // k/n for k in [0, n], so their -log values are a table built once.
  constexpr size_t kBlockBudget = 1 << 20;
  const size_t block =
      std::max<size_t>(1, std::min<size_t>(32, kBlockBudget / n));
  std::vector<double> cl(block * n), cr(block * n), ca(block * n);
  std::vector<double> neg_log(n + 1);
  for (size_t k = 0; k <= n; ++k) {
    neg_log[k] = -std::log(
        std::max(static_cast<double>(k) / static_cast<double>(n), 1e-12));
  }
  for (size_t j0 = 0; j0 < d; j0 += block) {
    const size_t bw = std::min(block, d - j0);
    ParallelFor(bw, 1, [&](size_t begin, size_t end) {
      std::vector<double> col(n);
      std::vector<Entry> order(n);
      for (size_t jj = begin; jj < end; ++jj) {
        ColumnContributions(x, j0 + jj, neg_log, &col, &order,
                            cl.data() + jj * n, cr.data() + jj * n,
                            ca.data() + jj * n);
      }
    });
    ParallelFor(n, 1 << 14, [&](size_t begin, size_t end) {
      for (size_t jj = 0; jj < bw; ++jj) {
        const double* l = cl.data() + jj * n;
        const double* r = cr.data() + jj * n;
        const double* a = ca.data() + jj * n;
        for (size_t i = begin; i < end; ++i) {
          o_left[i] += l[i];
          o_right[i] += r[i];
          o_auto[i] += a[i];
        }
      }
    });
  }
  std::vector<double> score(n);
  for (size_t i = 0; i < n; ++i) {
    score[i] = std::max({o_left[i], o_right[i], o_auto[i]});
  }
  return score;
}

}  // namespace grgad
