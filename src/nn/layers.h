// Neural-network building blocks used by every model in the paper:
// Linear / Mlp (decoders, the MINE estimator Phi) and GcnLayer (the 2-layer
// GCN encoders of MH-GAE, DOMINANT, ComGA, and TPGCL's f_theta).
#ifndef GRGAD_NN_LAYERS_H_
#define GRGAD_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "src/nn/autograd.h"
#include "src/tensor/sparse.h"

namespace grgad {

class Rng;

/// Glorot/Xavier uniform initialization: U(-sqrt(6/(in+out)), +...).
Matrix GlorotUniform(size_t in_dim, size_t out_dim, Rng* rng);

/// The activation of an Affine node.
enum class Activation { kIdentity, kRelu };

/// y = act(x W + b) as one tape node: x is n x in, w is in x out, and b is
/// a 1 x out row vector, or undefined for no bias. The forward is one
/// AffineInto kernel call, which adds b (and clamps) in the MatMul store,
/// so every element gets the single `sum + b` rounding of the unfused
/// MatMul -> AddRowBroadcast (-> Relu) tape. The backward works from the
/// output gradient G directly: it masks G by output > 0 for ReLU (the same
/// test as pre-activation > 0), sums db over ascending rows per column,
/// then accumulates dX = G Wᵀ and dW = Xᵀ G, in that order (the order in
/// which the unfused tape reached each parent, which keeps parameters
/// shared by several nodes bitwise too). Values and all three gradients
/// are bitwise equal to the unfused tape (tests/autograd_test.cc).
Var Affine(const Var& x, const Var& w, const Var& b, Activation act);

/// Fully connected layer: y = x W + b.
class Linear {
 public:
  /// Initializes W with Glorot-uniform and b (if used) with zeros.
  Linear(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias = true);

  /// x: n x in_dim -> act(x W + b), n x out_dim, as one Affine node.
  Var Forward(const Var& x, Activation act = Activation::kIdentity) const;

  /// Trainable parameter handles (shared with the optimizer).
  std::vector<Var> Params() const;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  Var weight_;
  Var bias_;  // Undefined when use_bias == false.
};

/// Graph convolution (Kipf & Welling): H' = op (H W) + b, where `op` is a
/// fixed message-passing operator (normalized adjacency, GraphSNN weights,
/// or a standardized power). The activation is applied by the caller.
class GcnLayer {
 public:
  GcnLayer(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias = true);

  /// op: n x n sparse operator; x: n x in_dim -> n x out_dim.
  Var Forward(const std::shared_ptr<const SparseMatrix>& op,
              const Var& x) const;

  std::vector<Var> Params() const { return linear_.Params(); }

 private:
  Linear linear_;
};

/// Multi-layer perceptron with ReLU between layers and a linear final layer.
class Mlp {
 public:
  /// dims = {in, hidden..., out}; must have >= 2 entries.
  Mlp(const std::vector<size_t>& dims, Rng* rng, bool use_bias = true);

  Var Forward(const Var& x) const;

  std::vector<Var> Params() const;

  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<Linear> layers_;
};

}  // namespace grgad

#endif  // GRGAD_NN_LAYERS_H_
