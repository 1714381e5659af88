#pragma once
// DBSCAN (Ester et al., 1996), as the paper uses for clustering log
// embeddings (§6.3): "a density-based clustering algorithm that can
// identify clusters of arbitrary shapes, is robust to noise, and has only
// two hyperparameters".

#include <vector>

namespace pareval::cluster {

struct DbscanConfig {
  double eps = 0.5;   // neighbourhood radius (Euclidean)
  int min_pts = 3;    // core-point density threshold (incl. self)
};

/// Cluster `points` (row-major, uniform dimension). Returns one label per
/// point: 0..k-1 for clusters, -1 for noise. Bit-identical points share
/// one region query, so the cost is quadratic in the number of *distinct*
/// points; labels equal the textbook scan's exactly.
std::vector<int> dbscan(const std::vector<std::vector<double>>& points,
                        const DbscanConfig& config);

/// Number of clusters in a label vector (max label + 1).
int cluster_count(const std::vector<int>& labels);

}  // namespace pareval::cluster
