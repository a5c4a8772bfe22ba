#ifndef HWF_MST_DENSE_RANK_TREE_H_
#define HWF_MST_DENSE_RANK_TREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/search.h"
#include "mst/merge_sort_tree.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"
#include "parallel/thread_pool.h"

namespace hwf {

/// The 3-dimensional range-counting structure for framed DENSE_RANK
/// (paper §4.4): a range tree (Bentley [6, 7]) over the value dimension
/// whose canonical nodes each carry a merge sort tree over the
/// (position, previous-equal-occurrence) plane.
///
/// dense_rank(row) - 1 = |{distinct codes c < code(row) present in the
/// frame}|. A code is "present" iff the frame contains its first in-frame
/// occurrence: position ∈ [a, b) ∧ prevEq < a — a 2-d dominance count,
/// restricted to codes < code(row) — the third dimension.
///
/// Layout: V = positions sorted by (code, position). Level ℓ groups V into
/// aligned blocks of 2^ℓ entries, each re-sorted by position; a per-level
/// merge sort tree over the prevEq keys answers the 2-d counts inside any
/// block sub-range. A query decomposes the code-prefix [0, rank(code)) into
/// O(log n) aligned blocks and runs one narrowed 2-d count per block —
/// O(log² n) per row, O(n log² n) space, exactly the paper's bounds.
template <typename Index>
class DenseRankTree {
 public:
  using Options = MergeSortTreeOptions;

  DenseRankTree() = default;

  /// Builds the tree over per-position value codes (codes need not be
  /// dense; only their order matters).
  static DenseRankTree Build(std::span<const Index> codes,
                             const Options& options = {},
                             ThreadPool& pool = ThreadPool::Default()) {
    DenseRankTree tree;
    const size_t n = codes.size();
    HWF_TRACE_SCOPE_ARG("mst.dense_rank_build", "n", n);
    tree.n_ = n;
    tree.codes_.assign(codes.begin(), codes.end());
    if (n == 0) return tree;

    // V: positions sorted by (code, position) — a strict total order, so
    // the parallel sort is deterministic across thread counts.
    std::vector<Index> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<Index>(i);
    ParallelSort(
        v,
        [&](Index a, Index b) {
          if (codes[a] != codes[b]) return codes[a] < codes[b];
          return a < b;
        },
        pool);

    // Previous occurrence of the same code, encoded +1 (0 = none). Within
    // V, equal codes are adjacent and position-sorted.
    std::vector<Index> prev_enc(n);
    for (size_t j = 0; j < n; ++j) {
      if (j > 0 && codes[v[j]] == codes[v[j - 1]]) {
        prev_enc[v[j]] = static_cast<Index>(v[j - 1] + 1);
      } else {
        prev_enc[v[j]] = 0;
      }
    }

    // sorted_code_[j] = code of V[j]; used to locate code-prefix bounds.
    tree.sorted_codes_.resize(n);
    for (size_t j = 0; j < n; ++j) tree.sorted_codes_[j] = codes[v[j]];

    // Level 0: blocks of size 1 (V itself, trivially position-sorted).
    Level level0;
    level0.positions = std::move(v);
    level0.keys.resize(n);
    for (size_t j = 0; j < n; ++j) {
      level0.keys[j] = prev_enc[level0.positions[j]];
    }
    level0.block_size = 1;
    tree.levels_.push_back(std::move(level0));

    // Higher levels: merge adjacent blocks by position. Blocks are
    // independent, so each level merges (and gathers its prevEq keys) in
    // parallel; positions are unique, making the merge order-deterministic.
    for (size_t width = 1; width < n; width *= 2) {
      const Level& prev_level = tree.levels_.back();
      Level next;
      next.block_size = 2 * width;
      next.positions.resize(n);
      next.keys.resize(n);
      const size_t num_blocks = (n + 2 * width - 1) / (2 * width);
      ParallelFor(
          0, num_blocks,
          [&](size_t block_lo, size_t block_hi) {
            for (size_t b = block_lo; b < block_hi; ++b) {
              const size_t lo = b * 2 * width;
              const size_t mid = std::min(n, lo + width);
              const size_t hi = std::min(n, lo + 2 * width);
              std::merge(prev_level.positions.begin() + lo,
                         prev_level.positions.begin() + mid,
                         prev_level.positions.begin() + mid,
                         prev_level.positions.begin() + hi,
                         next.positions.begin() + lo);
              for (size_t j = lo; j < hi; ++j) {
                next.keys[j] = prev_enc[next.positions[j]];
              }
            }
          },
          pool, /*morsel_size=*/std::max<size_t>(1, 4096 / (2 * width)));
      tree.levels_.push_back(std::move(next));
    }

    // One merge sort tree per level over the prevEq keys (in block-then-
    // position order). Level 0 sub-ranges have length <= 1 and are handled
    // by direct comparison, so no tree is needed there.
    for (size_t level = 1; level < tree.levels_.size(); ++level) {
      tree.levels_[level].tree = MergeSortTree<Index>::Build(
          tree.levels_[level].keys, options, pool);
    }
    return tree;
  }

  size_t size() const { return n_; }

  size_t MemoryUsageBytes() const {
    size_t bytes = sorted_codes_.capacity() * sizeof(Index) +
                   codes_.capacity() * sizeof(Index);
    for (const Level& level : levels_) {
      bytes += level.positions.capacity() * sizeof(Index);
      bytes += level.keys.capacity() * sizeof(Index);
      bytes += level.tree.MemoryUsageBytes();
    }
    return bytes;
  }

  /// One distinct-count query: the number of distinct codes < `code` with
  /// at least one occurrence at positions [pos_lo, pos_hi).
  struct DistinctQuery {
    size_t pos_lo;
    size_t pos_hi;
    Index code;
  };

  /// out[q] = the answer to queries[q]. Decomposes every query's code
  /// prefix into canonical blocks, groups the per-block 2-d counts by
  /// level, and answers each level's group through the merge sort tree's
  /// batched kernel (`group_size` probes in flight).
  void CountDistinctLessBatch(std::span<const DistinctQuery> queries,
                              size_t group_size, size_t* out) const {
    using CountQuery = typename MergeSortTree<Index>::CountQuery;
    std::vector<std::vector<CountQuery>> level_items(levels_.size());
    std::vector<std::vector<size_t>> level_query(levels_.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      const DistinctQuery& dq = queries[q];
      out[q] = 0;
      if (dq.pos_lo >= dq.pos_hi || n_ == 0) continue;
      const size_t prefix = BranchlessLowerBound(sorted_codes_.data(),
                                                 sorted_codes_.size(), dq.code);
      if (prefix == 0) continue;
      const Index threshold = static_cast<Index>(dq.pos_lo + 1);
      // Canonical cover of [0, prefix): shave aligned blocks from the right.
      size_t l = 0;
      size_t r = prefix;
      size_t level = 0;
      while (l < r) {
        const size_t w = size_t{1} << level;
        if (r & w) {
          r -= w;
          const Level& lvl = levels_[level];
          const Index* block = lvl.positions.data() + r;
          const size_t sub_lo =
              r + BranchlessLowerBound(block, w, static_cast<Index>(dq.pos_lo));
          const size_t sub_hi =
              r + BranchlessLowerBound(block, w, static_cast<Index>(dq.pos_hi));
          if (sub_lo < sub_hi) {
            if (level == 0) {
              out[q] += lvl.keys[sub_lo] < threshold ? 1 : 0;
            } else {
              level_items[level].push_back(
                  CountQuery{sub_lo, sub_hi, threshold});
              level_query[level].push_back(q);
            }
          }
        }
        ++level;
      }
    }
    std::vector<size_t> counts;
    for (size_t level = 1; level < levels_.size(); ++level) {
      const std::vector<CountQuery>& items = level_items[level];
      if (items.empty()) continue;
      counts.resize(items.size());
      levels_[level].tree.CountLessBatch(items, group_size, counts.data());
      for (size_t j = 0; j < items.size(); ++j) {
        out[level_query[level][j]] += counts[j];
      }
    }
  }

 private:
  struct Level {
    std::vector<Index> positions;  // Block-concatenated, position-sorted.
    std::vector<Index> keys;       // prevEq (encoded) in the same order.
    MergeSortTree<Index> tree;     // Empty for level 0.
    size_t block_size = 1;
  };

  size_t n_ = 0;
  std::vector<Index> codes_;
  std::vector<Index> sorted_codes_;
  std::vector<Level> levels_;
};

}  // namespace hwf

#endif  // HWF_MST_DENSE_RANK_TREE_H_
