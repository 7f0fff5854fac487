#include "src/nn/layers.h"

#include <cmath>

#include "src/tensor/arena.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace grgad {

Var Affine(const Var& x, const Var& w, const Var& b, Activation act) {
  const bool has_bias = b.defined();
  const bool relu = act == Activation::kRelu;
  Matrix out = arena::Uninit(x.rows(), w.cols());
  AffineInto(x.value(), w.value(), has_bias ? &b.value() : nullptr, relu,
             &out);
  auto xn = AutogradOps::node(x);
  auto wn = AutogradOps::node(w);
  auto n = internal::NewInteriorNode(
      std::move(out), has_bias ? std::vector<Var>{x, w, b}
                               : std::vector<Var>{x, w});
  if (n->requires_grad) {
    auto bn = has_bias ? AutogradOps::node(b) : nullptr;
    internal::VarNode* self = n.get();
    n->backward_fn = [xn, wn, bn, self, relu](const Matrix& g) {
      // For ReLU the masked gradient feeds all three parents; otherwise G
      // itself does, uncopied.
      Matrix masked;
      if (relu) {
        masked = arena::Uninit(g.rows(), g.cols());
        ReluMaskInto(self->value, g, &masked);
      }
      const Matrix& gm = relu ? masked : g;
      if (bn != nullptr && bn->requires_grad) {
        Matrix gb = arena::Uninit(1, gm.cols());
        ColumnSumsInto(gm, &gb);
        bn->AccumulateGrad(std::move(gb));
        arena::Recycle(std::move(gb));
      }
      if (xn->requires_grad) {
        Matrix gx = arena::Uninit(xn->value.rows(), xn->value.cols());
        MatMulTransposeBInto(gm, wn->value, &gx);
        xn->AccumulateGrad(std::move(gx));
        arena::Recycle(std::move(gx));
      }
      if (wn->requires_grad) {
        Matrix gw = arena::Uninit(wn->value.rows(), wn->value.cols());
        MatMulTransposeAInto(xn->value, gm, &gw);
        wn->AccumulateGrad(std::move(gw));
        arena::Recycle(std::move(gw));
      }
      arena::Recycle(std::move(masked));
    };
  }
  return AutogradOps::Wrap(std::move(n));
}

Matrix GlorotUniform(size_t in_dim, size_t out_dim, Rng* rng) {
  GRGAD_CHECK(rng != nullptr);
  const double limit = std::sqrt(6.0 / static_cast<double>(in_dim + out_dim));
  Matrix w(in_dim, out_dim);
  for (size_t i = 0; i < in_dim; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      w(i, j) = rng->Uniform(-limit, limit);
    }
  }
  return w;
}

Linear::Linear(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(GlorotUniform(in_dim, out_dim, rng), /*requires_grad=*/true) {
  if (use_bias) {
    bias_ = Var(Matrix(1, out_dim), /*requires_grad=*/true);
  }
}

Var Linear::Forward(const Var& x, Activation act) const {
  GRGAD_CHECK_EQ(x.cols(), in_dim_);
  return Affine(x, weight_, bias_, act);
}

std::vector<Var> Linear::Params() const {
  std::vector<Var> out = {weight_};
  if (bias_.defined()) out.push_back(bias_);
  return out;
}

GcnLayer::GcnLayer(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias)
    : linear_(in_dim, out_dim, rng, use_bias) {}

Var GcnLayer::Forward(const std::shared_ptr<const SparseMatrix>& op,
                      const Var& x) const {
  GRGAD_CHECK(op != nullptr);
  GRGAD_CHECK_EQ(op->cols(), x.rows());
  // (op X) W == op (X W); the right association is cheaper because W is thin.
  return Spmm(op, linear_.Forward(x));
}

Mlp::Mlp(const std::vector<size_t>& dims, Rng* rng, bool use_bias) {
  GRGAD_CHECK_GE(dims.size(), 2u);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng, use_bias);
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool interior = i + 1 < layers_.size();
    h = layers_[i].Forward(h, interior ? Activation::kRelu
                                       : Activation::kIdentity);
  }
  return h;
}

std::vector<Var> Mlp::Params() const {
  std::vector<Var> out;
  for (const Linear& l : layers_) {
    for (const Var& p : l.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace grgad
