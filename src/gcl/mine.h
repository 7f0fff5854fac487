// MINE-style mutual-information objective (paper Eqn. (8), after Belghazi
// et al.): a trainable statistic Φ, an MLP over concatenated embeddings,
// plugged into the Donsker–Varadhan form,
//
//   L = -(1/m) Σ_i Φ(zp_i, zn_i) + log (1/m) Σ_i Σ_{j≠i} e^{Φ(zp_i, zn_j)}.
//
// TPGCL minimizes L jointly over the encoder f_theta and Φ. For large m the
// off-diagonal sum is subsampled (K mismatched pairs per i) with the
// corresponding log-count correction.
//
// Factorized form. Φ is MLP({2d, h, 1}) on [z_a || z_b]. Its first layer
// splits by rows, W₁ = [W_a; W_b], so the pre-activation of pair (i, j) is
//
//   [zp_i || zn_j] W₁ + b₁ = (Z_pos W_a)_i + (Z_neg W_b)_j + b₁
//                          = P_i + Q_j + b₁.
//
// This is exact algebra, not an approximation: every pair's pre-activation
// is one row of P plus one row of Q plus b₁, so two m x d x h GEMMs replace
// the m(1+K) x 2d pair matrix and its m(1+K) x 2d x h product. One fused
// tape node (MineLoss) then evaluates relu(P_i + Q_j + b₁) W₂ + b₂ for
// every pair, the matched-pair mean, the masked log-sum-exp and the count
// correction, and differentiates them by hand; of the pair-sized data it
// keeps only the m(1+K) scores. Only the floating-point summation order
// differs from the concatenated form; the parameters are initialized from
// the same Glorot draw and the negatives from the same rng calls.
#ifndef GRGAD_GCL_MINE_H_
#define GRGAD_GCL_MINE_H_

#include <memory>
#include <vector>

#include "src/nn/autograd.h"

namespace grgad {

class Rng;

namespace internal {
struct MinePairs;
}  // namespace internal

/// The trainable statistic Φ(z_a, z_b) = relu(z_a W_a + z_b W_b + b₁) W₂ + b₂:
/// MLP([z_a || z_b]) with its first layer split by input half.
class MineEstimator {
 public:
  /// Both inputs are `embed_dim` wide; hidden layer is `hidden_dim`.
  /// [W_a; W_b] is one Glorot draw of the 2·embed_dim x hidden_dim matrix.
  MineEstimator(int embed_dim, int hidden_dim, Rng* rng);

  /// {W_a, W_b, b₁, W₂, b₂}.
  std::vector<Var> Params() const { return {w_a_, w_b_, b1_, w2_, b2_}; }

 private:
  friend Var MineLoss(const MineEstimator& phi, const Var& z_pos,
                      const Var& z_neg, int neg_per_sample, Rng* rng);

  Var w_a_, w_b_, b1_, w2_, b2_;
  // The last loss's pair layout. The next loss refills it in place unless a
  // live tape still holds it, so an epoch loop draws no new index buffers.
  mutable std::shared_ptr<internal::MinePairs> pairs_;
};

/// Builds the Eqn. (8) loss from positive-view and negative-view embedding
/// matrices (both m x d). `neg_per_sample` mismatched pairs are drawn per
/// sample (clamped to m-1; m-1 gives the exact double sum). 1x1 output.
/// Loss and gradients are bitwise identical at every parallelism degree.
Var MineLoss(const MineEstimator& phi, const Var& z_pos, const Var& z_neg,
             int neg_per_sample, Rng* rng);

}  // namespace grgad

#endif  // GRGAD_GCL_MINE_H_
