#ifndef HWF_TESTS_MST_TEST_UTIL_H_
#define HWF_TESTS_MST_TEST_UTIL_H_

// Brute-force references for the merge sort tree probes, plus one-query
// wrappers over the batched kernel for hand-checked cases.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mst/merge_sort_tree.h"

namespace hwf {
namespace test {

/// Entries at positions [lo, hi) of `keys` with key < threshold.
template <typename Index>
size_t LinearCountLess(const std::vector<Index>& keys, size_t lo, size_t hi,
                       Index threshold) {
  return static_cast<size_t>(
      std::count_if(keys.begin() + lo, keys.begin() + hi,
                    [threshold](Index k) { return k < threshold; }));
}

/// Positions, left to right, whose key lies in any of `ranges`.
template <typename Index>
std::vector<size_t> LinearPositionsInRanges(
    const std::vector<Index>& keys, std::span<const KeyRange<Index>> ranges) {
  std::vector<size_t> positions;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (const KeyRange<Index>& r : ranges) {
      if (keys[i] >= r.lo && keys[i] < r.hi) {
        positions.push_back(i);
        break;
      }
    }
  }
  return positions;
}

/// One piece of a count cover: (level, run_begin, count).
using CoverPiece = std::tuple<size_t, size_t, size_t>;

/// The canonical cover of the count query ([lo, hi), threshold) over a
/// tree of `fanout` built on `keys`: [lo, hi) split left to right into
/// maximal aligned runs of fanout^level (a level's last run clipped to n;
/// levels up to the top, the first whose run covers all n entries), each
/// counted by a scan, zero-count pieces omitted. This is the order in which
/// a depth-first walk of the tree meets the covered runs.
template <typename Index>
std::vector<CoverPiece> CanonicalCover(const std::vector<Index>& keys,
                                       size_t fanout, size_t lo, size_t hi,
                                       Index threshold) {
  const size_t n = keys.size();
  size_t top = 0;
  for (size_t len = 1; len < n; len *= fanout) ++top;
  std::vector<CoverPiece> pieces;
  size_t pos = lo;
  while (pos < hi) {
    size_t level = 0;
    size_t len = 1;
    while (level < top && pos % (len * fanout) == 0 &&
           std::min(pos + len * fanout, n) <= hi) {
      ++level;
      len *= fanout;
    }
    const size_t end = std::min(pos + len, n);
    const size_t count = LinearCountLess(keys, pos, end, threshold);
    if (count > 0) pieces.emplace_back(level, pos, count);
    pos = end;
  }
  return pieces;
}

/// `num` random count queries: positions [lo, hi) within [0, n], key
/// thresholds in [0, max_t).
inline std::vector<MergeSortTree<uint32_t>::CountQuery> RandomCountQueries(
    size_t n, uint32_t max_t, int num, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<MergeSortTree<uint32_t>::CountQuery> queries;
  for (int q = 0; q < num; ++q) {
    size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi, rng.Bounded(max_t)});
  }
  return queries;
}

/// CountLessBatch for a single query.
template <typename Index>
size_t CountLessOne(const MergeSortTree<Index>& tree, size_t lo, size_t hi,
                    Index threshold) {
  const typename MergeSortTree<Index>::CountQuery query{lo, hi, threshold};
  size_t out = 0;
  tree.CountLessBatch(std::span(&query, 1), kProbeGroupSize, &out);
  return out;
}

/// SelectBatch for a single query over `ranges`.
template <typename Index>
size_t SelectOne(const MergeSortTree<Index>& tree,
                 std::span<const KeyRange<Index>> ranges, size_t rank) {
  const typename MergeSortTree<Index>::SelectQuery query{
      0, static_cast<uint32_t>(ranges.size()), rank};
  size_t out = 0;
  tree.SelectBatch(ranges, std::span(&query, 1), kProbeGroupSize, &out);
  return out;
}

}  // namespace test
}  // namespace hwf

#endif  // HWF_TESTS_MST_TEST_UTIL_H_
