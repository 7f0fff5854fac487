#include "src/baselines/deepfd.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/baselines/group_extraction.h"
#include "src/metrics/classification.h"
#include "src/nn/layers.h"
#include "src/nn/train_loop.h"
#include "src/util/rng.h"

namespace grgad {

namespace {

double RowDistance(const Matrix& x, int a, int b) {
  double s = 0.0;
  const double* ra = x.RowPtr(a);
  const double* rb = x.RowPtr(b);
  for (size_t j = 0; j < x.cols(); ++j) {
    const double d = ra[j] - rb[j];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace

std::vector<int> Dbscan(const Matrix& x, const std::vector<int>& items,
                        double eps, int min_pts) {
  const int k = static_cast<int>(items.size());
  // Neighbor lists within the item set (O(k^2), fine at suspect-set sizes).
  std::vector<std::vector<int>> neighbors(k);
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      if (RowDistance(x, items[a], items[b]) <= eps) {
        neighbors[a].push_back(b);
        neighbors[b].push_back(a);
      }
    }
  }
  std::vector<int> label(k, -2);  // -2 unvisited, -1 noise, >=0 cluster.
  int next_cluster = 0;
  for (int a = 0; a < k; ++a) {
    if (label[a] != -2) continue;
    if (static_cast<int>(neighbors[a].size()) + 1 < min_pts) {
      label[a] = -1;
      continue;
    }
    const int cluster = next_cluster++;
    label[a] = cluster;
    std::deque<int> frontier(neighbors[a].begin(), neighbors[a].end());
    while (!frontier.empty()) {
      const int b = frontier.front();
      frontier.pop_front();
      if (label[b] == -1) label[b] = cluster;  // Border point.
      if (label[b] != -2) continue;
      label[b] = cluster;
      if (static_cast<int>(neighbors[b].size()) + 1 >= min_pts) {
        frontier.insert(frontier.end(), neighbors[b].begin(),
                        neighbors[b].end());
      }
    }
  }
  return label;
}

DeepFd::DeepFd(DeepFdOptions options) : options_(options) {}

std::vector<ScoredGroup> DeepFd::DetectGroups(const Graph& g) const {
  GRGAD_CHECK(g.has_attributes());
  const int n = g.num_nodes();
  const int d = static_cast<int>(g.attr_dim());
  Rng rng(options_.seed ^ 0x64656664ULL);

  TrainSession session;

  // --- Embedding model: MLP encoder + decoder (no graph propagation; the
  // structure enters through the pairwise similarity loss). ---
  Mlp encoder({static_cast<size_t>(d), static_cast<size_t>(options_.hidden_dim),
               static_cast<size_t>(options_.embed_dim)},
              &rng);
  Mlp decoder({static_cast<size_t>(options_.embed_dim),
               static_cast<size_t>(options_.hidden_dim),
               static_cast<size_t>(d)},
              &rng);

  // Pairs: edges (similar) + sampled non-edges (dissimilar).
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(g.num_edges()));
  g.ForEachEdge([&pairs](int u, int v) { pairs.emplace_back(u, v); });
  if (pairs.size() > options_.max_pairs / 2) {
    pairs.resize(options_.max_pairs / 2);
  }
  const size_t num_pos = pairs.size();
  SampleNegativePairs(
      n, num_pos * options_.neg_per_pos,
      [&g](int u, int v) { return g.HasEdge(u, v); }, &rng, &pairs);
  Matrix pair_targets(pairs.size(), 1);
  for (size_t p = 0; p < num_pos; ++p) pair_targets(p, 0) = 1.0;
  const auto shared_pairs =
      std::make_shared<const std::vector<std::pair<int, int>>>(
          std::move(pairs));

  const Var x(g.attributes(), /*requires_grad=*/false);
  Matrix final_embed, final_recon, final_pred;
  session.Run(
      {encoder.Params(), decoder.Params()}, options_.epochs, options_.lr,
      /*weight_decay=*/0.0, [&](int epoch) {
        Var z = encoder.Forward(x);
        Var recon = decoder.Forward(z);
        Var loss_attr = MseLoss(recon, g.attributes());
        Var pred = Sigmoid(PairInnerProduct(z, shared_pairs));
        Var loss_pair = MseLoss(pred, pair_targets);
        if (epoch + 1 == options_.epochs) {
          final_embed = z.value();
          final_recon = recon.value();
          final_pred = pred.value();
        }
        return Add(Scale(loss_pair, options_.pairwise_weight),
                   Scale(loss_attr, 1.0 - options_.pairwise_weight));
      });

  // Suspiciousness: attribute + pairwise reconstruction error.
  std::vector<double> score = RowL2Errors(final_recon, g.attributes());
  const std::vector<double> pair_err =
      MeanPairErrors(n, *shared_pairs, final_pred, pair_targets);
  for (int i = 0; i < n; ++i) score[i] += pair_err[i];

  // Suspicious set -> DBSCAN over embeddings -> groups.
  const std::vector<int> labels =
      LabelsAtContamination(score, options_.contamination);
  std::vector<int> suspects;
  for (int v = 0; v < n; ++v) {
    if (labels[v] == 1) suspects.push_back(v);
  }
  if (suspects.size() < 2) {
    std::vector<ScoredGroup> out;
    for (int v : suspects) out.push_back({{v}, score[v]});
    return out;
  }
  // eps = median 3-NN distance among suspects.
  std::vector<double> knn3;
  for (size_t a = 0; a < suspects.size(); ++a) {
    std::vector<double> dists;
    for (size_t b = 0; b < suspects.size(); ++b) {
      if (a != b) {
        dists.push_back(RowDistance(final_embed, suspects[a], suspects[b]));
      }
    }
    const size_t kth = std::min<size_t>(2, dists.size() - 1);
    std::nth_element(dists.begin(), dists.begin() + kth, dists.end());
    knn3.push_back(dists[kth]);
  }
  std::nth_element(knn3.begin(), knn3.begin() + knn3.size() / 2, knn3.end());
  const double eps = std::max(knn3[knn3.size() / 2], 1e-9);
  const std::vector<int> cluster =
      Dbscan(final_embed, suspects, eps, options_.dbscan_min_pts);

  int num_clusters = 0;
  for (int c : cluster) num_clusters = std::max(num_clusters, c + 1);
  std::vector<std::vector<int>> groups(num_clusters);
  std::vector<ScoredGroup> out;
  for (size_t a = 0; a < suspects.size(); ++a) {
    if (cluster[a] >= 0) {
      groups[cluster[a]].push_back(suspects[a]);
    } else {
      out.push_back({{suspects[a]}, score[suspects[a]]});  // Noise.
    }
  }
  for (auto& members : groups) {
    if (members.empty()) continue;
    out.push_back(
        CapAndScoreGroup(std::move(members), score, options_.max_group_size));
  }
  return out;
}

}  // namespace grgad
