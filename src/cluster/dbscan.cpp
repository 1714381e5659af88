#include "cluster/dbscan.hpp"

#include <algorithm>
#include <deque>
#include <string_view>
#include <unordered_map>

namespace pareval::cluster {

namespace {

double dist2(const double* a, std::size_t na, const double* b,
             std::size_t nb) {
  double s = 0;
  for (std::size_t k = 0; k < na && k < nb; ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return s;
}

}  // namespace

std::vector<int> dbscan(const std::vector<std::vector<double>>& points,
                        const DbscanConfig& config) {
  const double eps2 = config.eps * config.eps;
  const std::size_t n = points.size();

  // Collapse bit-identical points into groups: every distance from a
  // group's members is the same, so region queries run over one
  // representative per group, packed back to back. Members are listed in
  // increasing index.
  std::unordered_map<std::string_view, std::size_t> group_by_bits;
  std::vector<std::size_t> group_of(n);
  std::vector<std::vector<int>> members;
  std::vector<double> rep_coords;
  std::vector<std::size_t> rep_begin, rep_size;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view bits(
        reinterpret_cast<const char*>(points[i].data()),
        points[i].size() * sizeof(double));
    const auto [it, fresh] = group_by_bits.try_emplace(bits, members.size());
    if (fresh) {
      members.emplace_back();
      rep_begin.push_back(rep_coords.size());
      rep_size.push_back(points[i].size());
      rep_coords.insert(rep_coords.end(), points[i].begin(),
                        points[i].end());
    }
    group_of[i] = it->second;
    members[it->second].push_back(static_cast<int>(i));
  }
  const std::size_t groups = members.size();

  // The region query of a group runs once, on its first member's visit.
  // It counts the neighbour points and, for a core group, enqueues them in
  // increasing index order. A later visit of the same group answers from
  // `degree` and enqueues nothing: the textbook scan would enqueue the same
  // points again, behind the first copies, so every repeat would be
  // dequeued already labelled and change nothing.
  std::vector<long long> degree(groups, -1);
  std::vector<std::size_t> near;
  std::vector<int> expanded;
  std::deque<int> queue;
  auto region_query = [&](std::size_t g) {
    if (degree[g] >= 0) return degree[g] >= config.min_pts;
    const double* const rep = rep_coords.data() + rep_begin[g];
    near.clear();
    long long count = 0;
    for (std::size_t h = 0; h < groups; ++h) {
      if (dist2(rep, rep_size[g], rep_coords.data() + rep_begin[h],
                rep_size[h]) <= eps2) {
        near.push_back(h);
        count += static_cast<long long>(members[h].size());
      }
    }
    degree[g] = count;
    if (count < config.min_pts) return false;
    expanded.clear();
    for (const std::size_t h : near) {
      expanded.insert(expanded.end(), members[h].begin(), members[h].end());
    }
    // Already sorted when every neighbour group is a single point.
    if (!std::is_sorted(expanded.begin(), expanded.end())) {
      std::sort(expanded.begin(), expanded.end());
    }
    queue.insert(queue.end(), expanded.begin(), expanded.end());
    return true;
  };

  constexpr int kUnvisited = -2;
  std::vector<int> labels(n, kUnvisited);
  int next_cluster = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] != kUnvisited) continue;
    if (!region_query(group_of[i])) {
      labels[i] = -1;  // noise (may be claimed by a cluster later)
      continue;
    }
    const int cluster = next_cluster++;
    labels[i] = cluster;
    while (!queue.empty()) {
      const int j = queue.front();
      queue.pop_front();
      if (labels[j] == -1) labels[j] = cluster;  // border point
      if (labels[j] != kUnvisited) continue;
      labels[j] = cluster;
      region_query(group_of[j]);
    }
  }
  for (auto& l : labels) {
    if (l == kUnvisited) l = -1;
  }
  return labels;
}

int cluster_count(const std::vector<int>& labels) {
  int max_label = -1;
  for (const int l : labels) max_label = std::max(max_label, l);
  return max_label + 1;
}

}  // namespace pareval::cluster
