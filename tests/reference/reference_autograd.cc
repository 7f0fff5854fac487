#include "tests/reference/reference_autograd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "src/tensor/arena.h"
#include "src/util/rng.h"

namespace grgad::reference {

namespace {

using internal::VarNode;

Var MakeOpNode(Matrix value, const std::vector<Var>& parents,
               std::function<void(const Matrix&)> backward_fn) {
  auto n = internal::NewInteriorNode(std::move(value), parents);
  if (n->requires_grad) n->backward_fn = std::move(backward_fn);
  return AutogradOps::Wrap(std::move(n));
}

void Acc(const std::shared_ptr<VarNode>& p, const Matrix& g) {
  if (p->requires_grad) p->AccumulateGrad(g);
}

}  // namespace

Var AddRowBroadcast(const Var& a, const Var& bias) {
  GRGAD_CHECK_EQ(bias.rows(), 1u);
  GRGAD_CHECK_EQ(a.cols(), bias.cols());
  Matrix out = arena::CopyOf(a.value());
  const double* brow = bias.value().RowPtr(0);
  for (size_t i = 0; i < out.rows(); ++i) {
    double* row = out.RowPtr(i);
    for (size_t j = 0; j < out.cols(); ++j) row[j] += brow[j];
  }
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(bias);
  return MakeOpNode(std::move(out), {a, bias}, [an, bn](const Matrix& g) {
    Acc(an, g);
    if (bn->requires_grad) {
      Matrix bg = arena::Zeroed(1, g.cols());
      for (size_t i = 0; i < g.rows(); ++i) {
        const double* row = g.RowPtr(i);
        for (size_t j = 0; j < g.cols(); ++j) bg(0, j) += row[j];
      }
      bn->AccumulateGrad(std::move(bg));
      arena::Recycle(std::move(bg));
    }
  });
}

Var BiasReluFused(const Var& a, const Var& bias) {
  GRGAD_CHECK_EQ(bias.rows(), 1u);
  GRGAD_CHECK_EQ(a.cols(), bias.cols());
  Matrix out = arena::Uninit(a.rows(), a.cols());
  const double* brow = bias.value().RowPtr(0);
  for (size_t i = 0; i < out.rows(); ++i) {
    const double* src = a.value().RowPtr(i);
    double* dst = out.RowPtr(i);
    for (size_t j = 0; j < out.cols(); ++j) {
      const double v = src[j] + brow[j];
      dst[j] = v > 0.0 ? v : 0.0;
    }
  }
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(bias);
  auto n = internal::NewInteriorNode(std::move(out), {a, bias});
  if (n->requires_grad) {
    VarNode* self = n.get();
    n->backward_fn = [an, bn, self](const Matrix& g) {
      Matrix gm = arena::CopyOf(g);
      for (size_t i = 0; i < gm.size(); ++i) {
        if (self->value.data()[i] <= 0.0) gm.data()[i] = 0.0;
      }
      if (bn->requires_grad) {
        Matrix bg = arena::Zeroed(1, gm.cols());
        for (size_t i = 0; i < gm.rows(); ++i) {
          const double* row = gm.RowPtr(i);
          for (size_t j = 0; j < gm.cols(); ++j) bg(0, j) += row[j];
        }
        bn->AccumulateGrad(std::move(bg));
        arena::Recycle(std::move(bg));
      }
      if (an->requires_grad) an->AccumulateGrad(std::move(gm));
      arena::Recycle(std::move(gm));
    };
  }
  return AutogradOps::Wrap(std::move(n));
}

Var AddScalar(const Var& a, double s) {
  Matrix out = arena::Uninit(a.rows(), a.cols());
  a.value().MapToFn(&out, [s](double v) { return v + s; });
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a},
                    [an](const Matrix& g) { Acc(an, g); });
}

Var SumAll(const Var& a) {
  double sum = 0.0;
  for (size_t i = 0; i < a.value().size(); ++i) sum += a.value().data()[i];
  Matrix out = arena::Uninit(1, 1);
  out(0, 0) = sum;
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    Matrix gg = arena::Uninit(an->value.rows(), an->value.cols());
    gg.Fill(g(0, 0));
    an->AccumulateGrad(std::move(gg));
    arena::Recycle(std::move(gg));
  });
}

Var MeanAll(const Var& a) {
  const double n = static_cast<double>(a.value().size());
  GRGAD_CHECK_GT(n, 0.0);
  return Scale(SumAll(a), 1.0 / n);
}

Var GatherRows(const Var& a, std::vector<int> rows) {
  Matrix out = arena::Uninit(rows.size(), a.cols());
  a.value().GatherRowsInto(rows, &out);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a},
                    [an, rows = std::move(rows)](const Matrix& g) {
                      if (!an->requires_grad) return;
                      Matrix gg =
                          arena::Zeroed(an->value.rows(), an->value.cols());
                      for (size_t i = 0; i < rows.size(); ++i) {
                        double* dst = gg.RowPtr(rows[i]);
                        const double* src = g.RowPtr(i);
                        for (size_t j = 0; j < g.cols(); ++j) dst[j] += src[j];
                      }
                      an->AccumulateGrad(std::move(gg));
                      arena::Recycle(std::move(gg));
                    });
}

Var ConcatCols(const Var& a, const Var& b) {
  GRGAD_CHECK_EQ(a.rows(), b.rows());
  const size_t r = a.rows(), ca = a.cols(), cb = b.cols();
  Matrix out = arena::Uninit(r, ca + cb);
  for (size_t i = 0; i < r; ++i) {
    std::memcpy(out.RowPtr(i), a.value().RowPtr(i), ca * sizeof(double));
    std::memcpy(out.RowPtr(i) + ca, b.value().RowPtr(i), cb * sizeof(double));
  }
  auto an = AutogradOps::node(a);
  auto bn = AutogradOps::node(b);
  return MakeOpNode(std::move(out), {a, b},
                    [an, bn, r, ca, cb](const Matrix& g) {
                      if (an->requires_grad) {
                        Matrix ga = arena::Uninit(r, ca);
                        for (size_t i = 0; i < r; ++i) {
                          std::memcpy(ga.RowPtr(i), g.RowPtr(i),
                                      ca * sizeof(double));
                        }
                        an->AccumulateGrad(std::move(ga));
                        arena::Recycle(std::move(ga));
                      }
                      if (bn->requires_grad) {
                        Matrix gb = arena::Uninit(r, cb);
                        for (size_t i = 0; i < r; ++i) {
                          std::memcpy(gb.RowPtr(i), g.RowPtr(i) + ca,
                                      cb * sizeof(double));
                        }
                        bn->AccumulateGrad(std::move(gb));
                        arena::Recycle(std::move(gb));
                      }
                    });
}

Var MaskedLogSumExp(const Var& a, const std::vector<uint8_t>& mask) {
  const Matrix& x = a.value();
  GRGAD_CHECK_EQ(mask.size(), x.size());
  double max_v = -HUGE_VAL;
  for (size_t i = 0; i < x.size(); ++i) {
    if (mask[i]) max_v = std::max(max_v, x.data()[i]);
  }
  GRGAD_CHECK(max_v > -HUGE_VAL);  // At least one masked-in entry.
  double sum_e = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (mask[i]) sum_e += std::exp(x.data()[i] - max_v);
  }
  Matrix out = arena::Uninit(1, 1);
  out(0, 0) = max_v + std::log(sum_e);
  auto an = AutogradOps::node(a);
  return MakeOpNode(std::move(out), {a},
                    [an, mask, max_v, sum_e](const Matrix& g) {
                      if (!an->requires_grad) return;
                      const Matrix& x = an->value;
                      Matrix gg = arena::Zeroed(x.rows(), x.cols());
                      const double gv = g(0, 0);
                      for (size_t i = 0; i < x.size(); ++i) {
                        if (!mask[i]) continue;
                        gg.data()[i] =
                            gv * std::exp(x.data()[i] - max_v) / sum_e;
                      }
                      an->AccumulateGrad(std::move(gg));
                      arena::Recycle(std::move(gg));
                    });
}

Var UnfusedMineLoss(const Var& z_pos, const Var& z_neg, const Var& w1,
                    const Var& b1, const Var& w2, const Var& b2,
                    int neg_per_sample, Rng* rng) {
  GRGAD_CHECK(rng != nullptr);
  const int m = static_cast<int>(z_pos.rows());
  GRGAD_CHECK_EQ(z_neg.rows(), static_cast<size_t>(m));
  GRGAD_CHECK_GE(m, 2);
  const int k = std::min(neg_per_sample, m - 1);
  // Pair layout: first m rows are the matched (i, i) pairs, then k
  // mismatched (i, j != i) pairs per i.
  std::vector<int> idx_a, idx_b;
  for (int i = 0; i < m; ++i) {
    idx_a.push_back(i);
    idx_b.push_back(i);
  }
  for (int i = 0; i < m; ++i) {
    if (k == m - 1) {
      for (int j = 0; j < m; ++j) {
        if (j != i) {
          idx_a.push_back(i);
          idx_b.push_back(j);
        }
      }
    } else {
      for (int c = 0; c < k; ++c) {
        int j = static_cast<int>(rng->UniformInt(
            static_cast<uint64_t>(m - 1)));
        if (j >= i) ++j;  // Uniform over {0..m-1} \ {i}.
        idx_a.push_back(i);
        idx_b.push_back(j);
      }
    }
  }
  Var pairs = ConcatCols(GatherRows(z_pos, idx_a), GatherRows(z_neg, idx_b));
  Var hidden = BiasReluFused(MatMul(pairs, w1), b1);
  Var t = AddRowBroadcast(MatMul(hidden, w2), b2);
  std::vector<int> diag_rows(m);
  for (int i = 0; i < m; ++i) diag_rows[i] = i;
  Var term1 = MeanAll(GatherRows(t, diag_rows));
  std::vector<uint8_t> mask(idx_a.size(), 0);
  for (size_t p = m; p < idx_a.size(); ++p) mask[p] = 1;
  Var lse = MaskedLogSumExp(t, mask);
  const double correction =
      std::log(static_cast<double>(m - 1) / static_cast<double>(k)) -
      std::log(static_cast<double>(m));
  return AddScalar(Add(Scale(term1, -1.0), lse), correction);
}

}  // namespace grgad::reference
