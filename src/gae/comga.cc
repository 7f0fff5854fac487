#include "src/gae/comga.h"

#include <algorithm>

#include "src/graph/operators.h"
#include "src/nn/layers.h"
#include "src/nn/train_loop.h"
#include "src/util/rng.h"

namespace grgad {

ComGa::ComGa(ComGaOptions options) : options_(options) {}

std::vector<double> ComGa::FitNodeScores(const Graph& g) const {
  GRGAD_CHECK(g.has_attributes());
  const int n = g.num_nodes();
  const int d = static_cast<int>(g.attr_dim());
  Rng rng(options_.seed ^ 0x636f6d67ULL);

  TrainSession session;

  const auto a_norm = NormalizedAdjacency(g);
  const Matrix b_proj =
      ModularityProjection(g, options_.modularity_dim, options_.seed ^ 0xb);

  // Community autoencoder over modularity features.
  const size_t md = static_cast<size_t>(options_.modularity_dim);
  Mlp comm_enc({md, static_cast<size_t>(options_.hidden_dim)}, &rng);
  Mlp comm_dec({static_cast<size_t>(options_.hidden_dim), md}, &rng);
  // GCN encoder with community fusion into the hidden layer.
  GcnLayer enc1(d, options_.hidden_dim, &rng);
  GcnLayer enc2(options_.hidden_dim, options_.embed_dim, &rng);
  Mlp attr_dec({static_cast<size_t>(options_.embed_dim),
                static_cast<size_t>(options_.hidden_dim),
                static_cast<size_t>(d)},
               &rng);

  // Structure pairs: adjacency entries + negatives (shared GAE recipe).
  const SparseMatrix adj = AdjacencyMatrix(g);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(g.num_edges()));
  g.ForEachEdge([&pairs](int u, int v) { pairs.emplace_back(u, v); });
  const size_t num_pos = pairs.size();
  const size_t num_neg =
      std::min(num_pos * options_.neg_per_pos,
               options_.max_pairs > num_pos ? options_.max_pairs - num_pos
                                            : size_t{0});
  SampleNegativePairs(
      n, num_neg, [&adj](int u, int v) { return adj.At(u, v) != 0.0; }, &rng,
      &pairs);
  Matrix pair_targets(pairs.size(), 1);
  for (size_t p = 0; p < num_pos; ++p) pair_targets(p, 0) = 1.0;
  const auto shared_pairs =
      std::make_shared<const std::vector<std::pair<int, int>>>(
          std::move(pairs));

  const Var x(g.attributes(), /*requires_grad=*/false);
  const Var b(b_proj, /*requires_grad=*/false);
  Matrix final_pred, final_x_hat, final_b_hat;
  session.Run(
      {comm_enc.Params(), comm_dec.Params(), enc1.Params(), enc2.Params(),
       attr_dec.Params()},
      options_.epochs, options_.lr, /*weight_decay=*/0.0, [&](int epoch) {
        // Community branch.
        Var h_comm = Relu(comm_enc.Forward(b));
        Var b_hat = comm_dec.Forward(h_comm);
        Var loss_comm = MseLoss(b_hat, b_proj);
        // Fused GCN encoder: hidden = ReLU(GCN1(x)) + community hidden.
        Var h = Relu(enc1.Forward(a_norm, x));
        Var h_fused = Add(h, Scale(h_comm, 0.5));
        Var z = enc2.Forward(a_norm, h_fused);
        Var pred = Sigmoid(PairInnerProduct(z, shared_pairs));
        Var loss_stru = MseLoss(pred, pair_targets);
        Var x_hat = attr_dec.Forward(z);
        Var loss_attr = MseLoss(x_hat, g.attributes());
        if (epoch + 1 == options_.epochs) {
          final_pred = pred.value();
          final_x_hat = x_hat.value();
          final_b_hat = b_hat.value();
        }
        return Add(Add(Scale(loss_stru, options_.lambda),
                       Scale(loss_attr, 1.0 - options_.lambda)),
                   Scale(loss_comm, 0.5));
      });

  // Node scores: structure + attribute + community reconstruction errors.
  std::vector<double> stru =
      MeanPairErrors(n, *shared_pairs, final_pred, pair_targets);
  std::vector<double> attr = RowL2Errors(final_x_hat, g.attributes());
  std::vector<double> comm = RowL2Errors(final_b_hat, b_proj);
  MinMaxNormalize(&stru);
  MinMaxNormalize(&attr);
  MinMaxNormalize(&comm);
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = options_.lambda * stru[i] +
                (1.0 - options_.lambda) * attr[i] +
                options_.community_weight * comm[i];
  }
  MinMaxNormalize(&scores);
  return scores;
}

}  // namespace grgad
