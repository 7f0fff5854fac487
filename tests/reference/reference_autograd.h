// Autograd ops the product no longer calls, kept as oracles: the pair-matrix
// form of the MINE objective (Eqn. (8)) that the fused node in
// src/gcl/mine.cc replaced, the generic ops it was built from, and the bias
// ops that the fused Affine node (src/nn/layers.cc) replaced. Tests check
// the fused loss and its gradients against UnfusedMineLoss, Affine against
// MatMul -> AddRowBroadcast (-> Relu), and each op's own gradient against
// finite differences (tests/autograd_test.cc).
// Test-only library, like its companion tests/reference/reference_kernels.h.
#ifndef GRGAD_TESTS_REFERENCE_REFERENCE_AUTOGRAD_H_
#define GRGAD_TESTS_REFERENCE_REFERENCE_AUTOGRAD_H_

#include <cstdint>
#include <vector>

#include "src/nn/autograd.h"

namespace grgad {

class Rng;

namespace reference {

/// Adds the 1 x cols row vector `bias` to every row of a (serial in both
/// directions; the backward hands the output gradient to a unchanged and
/// sums bias's columns over ascending rows).
Var AddRowBroadcast(const Var& a, const Var& bias);

/// Relu(AddRowBroadcast(a, bias)) as one node: the forward adds and clamps
/// per element; the backward masks the gradient by output > 0, then sums
/// the bias columns, then hands the masked gradient to a.
Var BiasReluFused(const Var& a, const Var& bias);

/// a + scalar, elementwise (gradient passes through unchanged).
Var AddScalar(const Var& a, double s);

/// Sum of all entries -> 1x1.
Var SumAll(const Var& a);
/// Mean of all entries -> 1x1.
Var MeanAll(const Var& a);

/// Gathers rows (duplicates allowed); backward scatter-adds.
Var GatherRows(const Var& a, std::vector<int> rows);

/// Horizontal concatenation [a | b]; row counts must match.
Var ConcatCols(const Var& a, const Var& b);

/// log(sum over entries with mask != 0 of exp(a_ij)) -> 1x1, computed
/// stably (serial max, then serial sum). At least one entry must be masked
/// in.
Var MaskedLogSumExp(const Var& a, const std::vector<uint8_t>& mask);

/// The Eqn. (8) loss as the pair-matrix composition: Φ = MLP({2d, h, 1})
/// with first layer `w1` (2d x h) over ConcatCols(GatherRows(z_pos, a),
/// GatherRows(z_neg, b)) for all m(1+k) pairs, then MeanAll of the matched
/// scores, MaskedLogSumExp of the mismatched ones and the log-count
/// correction. Draws the negatives with the same rng calls as MineLoss.
Var UnfusedMineLoss(const Var& z_pos, const Var& z_neg, const Var& w1,
                    const Var& b1, const Var& w2, const Var& b2,
                    int neg_per_sample, Rng* rng);

}  // namespace reference
}  // namespace grgad

#endif  // GRGAD_TESTS_REFERENCE_REFERENCE_AUTOGRAD_H_
