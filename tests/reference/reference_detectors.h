// Frozen seed scoring implementations: the pre-scoring-stage detector and
// GraphSNN loops, serial and unshared, kept verbatim as the "before" side
// of bench/micro_benchmarks' grgad-micro-v3 `scoring` table and as
// correctness oracles in tests/scoring_determinism_test.cc. The kNN and
// LOF references deliberately keep the seed's duplicated PairwiseDistances
// computation (that duplication is part of what the scoring stage rebuild
// removed), and the IsolationForest reference keeps the seed's single
// sequential RNG stream threaded through every tree. Test-only library, like
// its companion tests/reference/reference_kernels.h.
#ifndef GRGAD_TESTS_REFERENCE_REFERENCE_DETECTORS_H_
#define GRGAD_TESTS_REFERENCE_REFERENCE_DETECTORS_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/od/iforest.h"
#include "src/tensor/matrix.h"

namespace grgad::reference {

/// Serial scalar diff-square pairwise Euclidean distances (upper triangle
/// mirrored); the seed PairwiseDistances.
Matrix PairwiseDistances(const Matrix& x);

/// Seed KNearestNeighbors: computes its own distance matrix, per-row
/// partial_sort with the (distance, id) tie-break.
std::vector<std::vector<int>> KNearestNeighbors(const Matrix& x, int k);

/// Seed KnnDetector::FitScore — one distance sweep inside
/// KNearestNeighbors plus a SECOND full sweep for the k-th distances.
std::vector<double> KnnFitScore(const Matrix& x, int k);

/// Seed Lof::FitScore — one sweep for the distance matrix plus a second
/// inside KNearestNeighbors.
std::vector<double> LofFitScore(const Matrix& x, int k);

/// Seed Ecod::FitScore — serial column loop.
std::vector<double> EcodFitScore(const Matrix& x);

/// Seed IsolationForest::FitScore — one sequential RNG stream through all
/// trees (tree t+1's draws depend on tree t's), serial build and score.
std::vector<double> IsolationForestFitScore(
    const Matrix& x, const IsolationForestOptions& options);

/// Seed GraphSnnEdgeWeights — serial edge loop with per-edge scratch
/// allocations.
std::vector<double> GraphSnnEdgeWeights(const Graph& g, double lambda);

}  // namespace grgad::reference

#endif  // GRGAD_TESTS_REFERENCE_REFERENCE_DETECTORS_H_
