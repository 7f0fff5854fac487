#include "src/gcl/mine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/nn/layers.h"
#include "src/tensor/arena.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace grgad {

namespace internal {

/// Pair layout of one MINE loss. Slot p < m is the matched pair (p, p);
/// slot m + i·k + c is the c-th mismatched pair of i, (i, neg[i·k + c]).
/// `by_j` is a counting sort of the mismatched slots i·k + c by their j,
/// ascending within each j (so ascending in i): the rows of dQ are reduced
/// over it without a scatter.
struct MinePairs {
  int m = 0;
  int k = 0;
  std::vector<int> neg;         // m·k partners, each != its i.
  std::vector<int> by_j_begin;  // m + 1 offsets into by_j.
  std::vector<int> by_j;        // m·k mismatched slots grouped by j.
};

}  // namespace internal

namespace {

using internal::MinePairs;

// Rows per parallel task floor; the pair passes below are row-parallel.
constexpr size_t kRowGrain = 32;

/// Σ_x relu(p + q + b₁)_x · w₂_x: the pre-bias output of Φ for one pair.
/// Four interleaved partial sums in a fixed order, so the value depends on
/// the pair alone.
double PairScore(const double* __restrict p, const double* __restrict q,
                 const double* __restrict b1, const double* __restrict w2,
                 size_t h) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  size_t x = 0;
  for (; x + 4 <= h; x += 4) {
    for (size_t l = 0; l < 4; ++l) {
      const double a = p[x + l] + q[x + l] + b1[x + l];
      acc[l] += (a > 0.0 ? a : 0.0) * w2[x + l];
    }
  }
  double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; x < h; ++x) {
    const double a = p[x] + q[x] + b1[x];
    s += (a > 0.0 ? a : 0.0) * w2[x];
  }
  return s;
}

/// Adds one pair's pre-activation gradient, dt · w₂ masked by the ReLU, to
/// `d_pre`; when `w2_part` is set, also adds relu(pre) · dt (the pair's
/// share of dW₂) to it.
void AccumulatePair(const double* __restrict p, const double* __restrict q,
                    const double* __restrict b1, const double* __restrict w2,
                    size_t h, double dt, double* __restrict d_pre,
                    double* __restrict w2_part) {
  if (w2_part != nullptr) {
    for (size_t x = 0; x < h; ++x) {
      const double a = p[x] + q[x] + b1[x];
      const bool on = a > 0.0;
      d_pre[x] += on ? dt * w2[x] : 0.0;
      w2_part[x] += on ? a * dt : 0.0;
    }
  } else {
    for (size_t x = 0; x < h; ++x) {
      const double a = p[x] + q[x] + b1[x];
      d_pre[x] += a > 0.0 ? dt * w2[x] : 0.0;
    }
  }
}

/// Draws the loss's negatives, exactly as the pair-matrix form did: for
/// each i in order, k calls of UniformInt(m - 1), or every j != i when
/// k == m - 1. Then counting-sorts the mismatched slots by j.
void FillPairs(MinePairs* pairs, int m, int k, Rng* rng) {
  pairs->m = m;
  pairs->k = k;
  pairs->neg.resize(static_cast<size_t>(m) * k);
  int* neg = pairs->neg.data();
  for (int i = 0; i < m; ++i) {
    if (k == m - 1) {
      for (int j = 0; j < m; ++j) {
        if (j != i) *neg++ = j;
      }
    } else {
      for (int c = 0; c < k; ++c) {
        int j = static_cast<int>(
            rng->UniformInt(static_cast<uint64_t>(m - 1)));
        if (j >= i) ++j;  // Uniform over {0..m-1} \ {i}.
        *neg++ = j;
      }
    }
  }
  std::vector<int>& begin = pairs->by_j_begin;
  begin.assign(static_cast<size_t>(m) + 1, 0);
  for (int j : pairs->neg) ++begin[j + 1];
  for (int j = 0; j < m; ++j) begin[j + 1] += begin[j];
  pairs->by_j.resize(pairs->neg.size());
  // Running insertion cursors borrow by_j_begin[j] and are restored below.
  for (size_t s = 0; s < pairs->neg.size(); ++s) {
    pairs->by_j[begin[pairs->neg[s]]++] = static_cast<int>(s);
  }
  for (int j = m; j > 0; --j) begin[j] = begin[j - 1];
  begin[0] = 0;
}

/// The fused Eqn. (8) node over P = Z_pos W_a and Q = Z_neg W_b (both
/// m x h). Pair scores T live only in an m(1+k) x 1 buffer; forward and
/// backward recompute the pre-activations P_i + Q_j + b₁ pair by pair.
/// Every pass is row-parallel with a fixed per-row order, and every
/// cross-row reduction runs serially over per-row partials, so the loss and
/// all gradients are bitwise independent of the parallelism degree.
Var FusedMineLoss(const Var& p, const Var& q, const Var& b1, const Var& w2,
                  const Var& b2, std::shared_ptr<const MinePairs> pairs) {
  const size_t m = static_cast<size_t>(pairs->m);
  const size_t k = static_cast<size_t>(pairs->k);
  const size_t h = p.cols();
  GRGAD_CHECK(p.rows() == m && q.rows() == m && q.cols() == h);
  GRGAD_CHECK(b1.rows() == 1 && b1.cols() == h);
  GRGAD_CHECK(w2.rows() == h && w2.cols() == 1);
  GRGAD_CHECK(b2.rows() == 1 && b2.cols() == 1);
  const Matrix& pv = p.value();
  const Matrix& qv = q.value();
  const double* b1d = b1.value().data();
  const double* w2d = w2.value().data();
  const double b2v = b2.value()(0, 0);
  const int* neg = pairs->neg.data();

  Matrix t = arena::Uninit(m * (k + 1), 1);
  Matrix row_max = arena::Uninit(m, 1);
  double* td = t.data();
  ParallelFor(m, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* pi = pv.RowPtr(i);
      td[i] = PairScore(pi, qv.RowPtr(i), b1d, w2d, h) + b2v;
      double mx = -HUGE_VAL;
      for (size_t c = 0; c < k; ++c) {
        const size_t s = i * k + c;
        const double v =
            PairScore(pi, qv.RowPtr(neg[s]), b1d, w2d, h) + b2v;
        td[m + s] = v;
        mx = std::max(mx, v);
      }
      row_max(i, 0) = mx;
    }
  });
  // term1 = mean of the matched scores. term2 = log of the mismatched
  // scores' exp-sum, shifted by their max; rows are the fixed chunks, summed
  // in row order.
  double match_sum = 0.0;
  double max_v = -HUGE_VAL;
  for (size_t i = 0; i < m; ++i) {
    match_sum += td[i];
    max_v = std::max(max_v, row_max(i, 0));
  }
  Matrix row_sum = std::move(row_max);  // Reuses the row-max buffer.
  ParallelFor(m, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* ti = td + m + i * k;
      double s = 0.0;
      for (size_t c = 0; c < k; ++c) s += std::exp(ti[c] - max_v);
      row_sum(i, 0) = s;
    }
  });
  double sum_e = 0.0;
  for (size_t i = 0; i < m; ++i) sum_e += row_sum(i, 0);
  arena::Recycle(std::move(row_sum));
  const double term1 = match_sum * (1.0 / static_cast<double>(m));
  // Each i contributes k of its m-1 mismatched terms: the log-count
  // correction log((m-1)/k) - log m rescales the subsampled sum.
  const double correction =
      std::log(static_cast<double>(m - 1) / static_cast<double>(k)) -
      std::log(static_cast<double>(m));
  Matrix out = arena::Uninit(1, 1);
  out(0, 0) = (term1 * -1.0 + (max_v + std::log(sum_e))) + correction;

  auto node = internal::NewInteriorNode(std::move(out), {p, q, b1, w2, b2});
  // Tape teardown returns T to the arena like any node value.
  Var t_leaf(std::move(t));
  if (!node->requires_grad) return AutogradOps::Wrap(std::move(node));
  node->backward_fn = [pn = AutogradOps::node(p),
                       qn = AutogradOps::node(q),
                       b1n = AutogradOps::node(b1),
                       w2n = AutogradOps::node(w2),
                       b2n = AutogradOps::node(b2),
                       tn = AutogradOps::node(t_leaf),
                       pairs = std::move(pairs), m, k, h, max_v,
                       sum_e](const Matrix& g) {
    const Matrix& pv = pn->value;
    const Matrix& qv = qn->value;
    const double* b1d = b1n->value.data();
    const double* w2d = w2n->value.data();
    const double* td = tn->value.data();
    const int* neg = pairs->neg.data();
    const double gv = g(0, 0);
    const double d_match = (gv * -1.0) * (1.0 / static_cast<double>(m));
    // Pass 1, over i: dT of every pair, the rows of dP (each i's pairs are
    // contiguous slots) and per-row partials of dW₂ and db₂.
    Matrix dt = arena::Uninit(m * (k + 1), 1);
    Matrix dp = arena::Zeroed(m, h);
    Matrix w2_part = arena::Zeroed(m, h);
    Matrix b2_part = arena::Uninit(m, 1);
    double* dtd = dt.data();
    ParallelFor(m, kRowGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double* pi = pv.RowPtr(i);
        double* dpi = dp.RowPtr(i);
        double* w2i = w2_part.RowPtr(i);
        dtd[i] = d_match;
        AccumulatePair(pi, qv.RowPtr(i), b1d, w2d, h, d_match, dpi, w2i);
        double db2 = d_match;
        for (size_t c = 0; c < k; ++c) {
          const size_t s = i * k + c;
          const double d = gv * std::exp(td[m + s] - max_v) / sum_e;
          dtd[m + s] = d;
          AccumulatePair(pi, qv.RowPtr(neg[s]), b1d, w2d, h, d, dpi, w2i);
          db2 += d;
        }
        b2_part(i, 0) = db2;
      }
    });
    // Pass 2, over j: the rows of dQ, each reduced over its matched pair and
    // then its mismatched slots in ascending order.
    if (qn->requires_grad) {
      Matrix dq = arena::Zeroed(m, h);
      const int* by_j = pairs->by_j.data();
      const int* by_j_begin = pairs->by_j_begin.data();
      ParallelFor(m, kRowGrain, [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          const double* qj = qv.RowPtr(j);
          double* dqj = dq.RowPtr(j);
          AccumulatePair(pv.RowPtr(j), qj, b1d, w2d, h, dtd[j], dqj, nullptr);
          for (int r = by_j_begin[j]; r < by_j_begin[j + 1]; ++r) {
            const size_t s = static_cast<size_t>(by_j[r]);
            AccumulatePair(pv.RowPtr(s / k), qj, b1d, w2d, h, dtd[m + s], dqj,
                           nullptr);
          }
        }
      });
      qn->AccumulateGrad(std::move(dq));
      arena::Recycle(std::move(dq));
    }
    arena::Recycle(std::move(dt));
    // Serial reductions over the per-row partials, in row order.
    if (b1n->requires_grad) {
      Matrix db1 = arena::Zeroed(1, h);
      for (size_t i = 0; i < m; ++i) {
        const double* row = dp.RowPtr(i);
        for (size_t x = 0; x < h; ++x) db1(0, x) += row[x];
      }
      b1n->AccumulateGrad(std::move(db1));
      arena::Recycle(std::move(db1));
    }
    if (w2n->requires_grad) {
      Matrix dw2 = arena::Zeroed(h, 1);
      for (size_t i = 0; i < m; ++i) {
        const double* row = w2_part.RowPtr(i);
        for (size_t x = 0; x < h; ++x) dw2(x, 0) += row[x];
      }
      w2n->AccumulateGrad(std::move(dw2));
      arena::Recycle(std::move(dw2));
    }
    arena::Recycle(std::move(w2_part));
    if (b2n->requires_grad) {
      Matrix db2 = arena::Zeroed(1, 1);
      for (size_t i = 0; i < m; ++i) db2(0, 0) += b2_part(i, 0);
      b2n->AccumulateGrad(std::move(db2));
      arena::Recycle(std::move(db2));
    }
    arena::Recycle(std::move(b2_part));
    if (pn->requires_grad) pn->AccumulateGrad(std::move(dp));
    arena::Recycle(std::move(dp));
  };
  return AutogradOps::Wrap(std::move(node));
}

}  // namespace

MineEstimator::MineEstimator(int embed_dim, int hidden_dim, Rng* rng) {
  const size_t d = static_cast<size_t>(embed_dim);
  const size_t h = static_cast<size_t>(hidden_dim);
  // The draws of Mlp({2d, h, 1}), in its order: W₁ = [W_a; W_b], then W₂.
  // Biases start at zero.
  const Matrix w1 = GlorotUniform(2 * d, h, rng);
  Matrix w_a(d, h), w_b(d, h);
  std::memcpy(w_a.data(), w1.RowPtr(0), d * h * sizeof(double));
  std::memcpy(w_b.data(), w1.RowPtr(d), d * h * sizeof(double));
  w_a_ = Var(std::move(w_a), /*requires_grad=*/true);
  w_b_ = Var(std::move(w_b), /*requires_grad=*/true);
  b1_ = Var(Matrix(1, h), /*requires_grad=*/true);
  w2_ = Var(GlorotUniform(h, 1, rng), /*requires_grad=*/true);
  b2_ = Var(Matrix(1, 1), /*requires_grad=*/true);
}

Var MineLoss(const MineEstimator& phi, const Var& z_pos, const Var& z_neg,
             int neg_per_sample, Rng* rng) {
  GRGAD_CHECK(rng != nullptr);
  const int m = static_cast<int>(z_pos.rows());
  GRGAD_CHECK_EQ(z_neg.rows(), static_cast<size_t>(m));
  GRGAD_CHECK_GE(m, 2);
  const int k = std::min(neg_per_sample, m - 1);
  GRGAD_CHECK_GE(k, 1);
  if (phi.pairs_ == nullptr || phi.pairs_.use_count() > 1) {
    phi.pairs_ = std::make_shared<MinePairs>();
  }
  FillPairs(phi.pairs_.get(), m, k, rng);
  return FusedMineLoss(MatMul(z_pos, phi.w_a_), MatMul(z_neg, phi.w_b_),
                       phi.b1_, phi.w2_, phi.b2_, phi.pairs_);
}

}  // namespace grgad
