// The one training loop behind every Adam-trained model: GcnGae (MH-GAE,
// DOMINANT, AS-GAE), TPGCL's encoder with its MINE critic, DeepAE, ComGA
// and DeepFD.
//
// A TrainSession is declared before any Var of its fit, so every tape node
// (parameters included) is torn down before the arena it draws from. It
// installs the caller's MatrixArena (else a session-local one) for the
// calling thread and arms the fit's byte budget and stop token on it; Run()
// then owns the epoch loop and its one set of training decisions: Adam with
// global-norm clipping at 5, the per-epoch stop poll, and the loss history.
#ifndef GRGAD_NN_TRAIN_LOOP_H_
#define GRGAD_NN_TRAIN_LOOP_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <vector>

#include "src/nn/autograd.h"
#include "src/tensor/arena.h"
#include "src/util/cancel.h"

namespace grgad {

class TrainSession {
 public:
  /// Installs `arena` (nullptr: a session-local arena) for the calling
  /// thread until destruction. Always arms `byte_budget` on it, so 0
  /// disarms a budget an earlier fit left on a shared arena. With a
  /// `cancel` token, a budget breach fires it and Run() polls it before
  /// every epoch; without one the fit runs every epoch.
  explicit TrainSession(MatrixArena* arena = nullptr,
                        uint64_t byte_budget = 0,
                        const CancelToken* cancel = nullptr);
  TrainSession(const TrainSession&) = delete;
  TrainSession& operator=(const TrainSession&) = delete;

  /// Runs `epochs` epochs of ZeroGrad -> loss = forward(epoch) -> Backward
  /// -> Adam step over the concatenated `params` lists, appending each
  /// epoch's loss to `loss_history` when it is non-null. Returns false when
  /// the stop token fired before an epoch; the fit is then abandoned.
  bool Run(std::initializer_list<std::vector<Var>> params, int epochs,
           double lr, double weight_decay,
           const std::function<Var(int epoch)>& forward,
           std::vector<double>* loss_history = nullptr);

  /// After the last Run: frees the buffers the fit's tape parked on a
  /// session-local arena, so a final forward pass of other shapes does not
  /// stack its fresh buffers on top of them. A caller-owned arena keeps
  /// its warm buffers for the caller's next fit.
  void FreeTrainingBuffers();

 private:
  MatrixArena local_arena_;
  ArenaScope scope_;
  const bool owns_arena_;  ///< No arena was given: local_arena_ serves.
  std::optional<CancelToken> cancel_;
};

}  // namespace grgad

#endif  // GRGAD_NN_TRAIN_LOOP_H_
