#include "src/gae/deep_ae.h"

#include <cmath>

#include "src/graph/operators.h"
#include "src/nn/layers.h"
#include "src/nn/train_loop.h"
#include "src/util/rng.h"

namespace grgad {

DeepAe::DeepAe(DeepAeOptions options) : options_(options) {}

std::vector<double> DeepAe::FitNodeScores(const Graph& g) const {
  GRGAD_CHECK(g.has_attributes());
  const int n = g.num_nodes();
  const int d = static_cast<int>(g.attr_dim());
  Rng rng(options_.seed ^ 0x64616521ULL);

  // Structure context: random projection of adjacency rows, A R, computed
  // sparsely. Fixed (non-trainable) so the AE must explain it.
  const int sp = options_.struct_proj_dim;
  Matrix r = Matrix::Gaussian(n, sp, &rng, 0.0, 1.0 / std::sqrt(sp));
  Matrix struct_ctx(n, sp);
  for (int u = 0; u < n; ++u) {
    double* orow = struct_ctx.RowPtr(u);
    for (int v : g.Neighbors(u)) {
      const double* rrow = r.RowPtr(v);
      for (int j = 0; j < sp; ++j) orow[j] += rrow[j];
    }
  }
  // Input = [X | A R].
  Matrix input(n, d + sp);
  for (int i = 0; i < n; ++i) {
    const double* xrow = g.attributes().RowPtr(i);
    const double* srow = struct_ctx.RowPtr(i);
    double* irow = input.RowPtr(i);
    for (int j = 0; j < d; ++j) irow[j] = xrow[j];
    for (int j = 0; j < sp; ++j) irow[d + j] = srow[j];
  }

  TrainSession session;
  const size_t in_dim = static_cast<size_t>(d + sp);
  Mlp autoencoder({in_dim, static_cast<size_t>(options_.hidden_dim),
                   static_cast<size_t>(options_.bottleneck_dim),
                   static_cast<size_t>(options_.hidden_dim), in_dim},
                  &rng);
  const Var x(input, /*requires_grad=*/false);
  Matrix final_recon;
  session.Run({autoencoder.Params()}, options_.epochs, options_.lr,
              /*weight_decay=*/0.0, [&](int epoch) {
                Var recon = autoencoder.Forward(x);
                if (epoch + 1 == options_.epochs) final_recon = recon.value();
                return MseLoss(recon, input);
              });

  std::vector<double> scores = RowL2Errors(final_recon, input);
  MinMaxNormalize(&scores);
  return scores;
}

}  // namespace grgad
