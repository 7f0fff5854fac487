// First-order optimizers over Var parameter handles.
#ifndef GRGAD_NN_OPTIM_H_
#define GRGAD_NN_OPTIM_H_

#include <vector>

#include "src/nn/autograd.h"

namespace grgad {

/// Adam hyperparameters; defaults follow the original paper and the common
/// settings of the reference GAD implementations (lr 5e-3).
struct AdamOptions {
  double lr = 5e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;   ///< Decoupled (AdamW-style) when > 0.
  double clip_grad_norm = 0.0; ///< Global-norm clip when > 0.
};

/// Adam optimizer with optional decoupled weight decay and gradient clipping.
class Adam {
 public:
  Adam(std::vector<Var> params, AdamOptions options = {});

  /// Applies one update from the accumulated gradients. Parameters with no
  /// accumulated gradient are skipped.
  void Step();

  /// Clears gradients of all managed parameters.
  void ZeroGrad();

  int64_t step_count() const { return t_; }

 private:
  std::vector<Var> params_;
  AdamOptions options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  int64_t t_ = 0;
};

}  // namespace grgad

#endif  // GRGAD_NN_OPTIM_H_
