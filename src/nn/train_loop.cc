#include "src/nn/train_loop.h"

#include "src/nn/optim.h"

namespace grgad {

namespace {

/// Global gradient-norm clip shared by every model (the reference GAD
/// implementations' setting).
constexpr double kClipGradNorm = 5.0;

}  // namespace

TrainSession::TrainSession(MatrixArena* arena, uint64_t byte_budget,
                           const CancelToken* cancel)
    : scope_(arena != nullptr ? arena : &local_arena_),
      owns_arena_(arena == nullptr) {
  MatrixArena* installed = CurrentArena();
  installed->SetByteBudget(byte_budget);
  if (cancel != nullptr) {
    cancel_ = *cancel;
    installed->SetStopToken(*cancel);
  }
}

bool TrainSession::Run(std::initializer_list<std::vector<Var>> params,
                       int epochs, double lr, double weight_decay,
                       const std::function<Var(int epoch)>& forward,
                       std::vector<double>* loss_history) {
  std::vector<Var> all_params;
  for (const std::vector<Var>& list : params) {
    all_params.insert(all_params.end(), list.begin(), list.end());
  }
  AdamOptions adam_options;
  adam_options.lr = lr;
  adam_options.weight_decay = weight_decay;
  adam_options.clip_grad_norm = kClipGradNorm;
  Adam adam(std::move(all_params), adam_options);
  if (loss_history != nullptr) loss_history->reserve(epochs);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (cancel_.has_value() && cancel_->stop_requested()) return false;
    adam.ZeroGrad();
    Var loss = forward(epoch);
    loss.Backward();
    adam.Step();
    if (loss_history != nullptr) loss_history->push_back(loss.item());
  }
  return true;
}

void TrainSession::FreeTrainingBuffers() {
  if (owns_arena_) local_arena_.FreeParked();
}

}  // namespace grgad
