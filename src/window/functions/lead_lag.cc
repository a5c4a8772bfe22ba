#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/profile.h"
#include "window/evaluator.h"
#include "window/functions/selection.h"

namespace hwf {
namespace internal_window {
namespace {

/// Framed LEAD / LAG (§4.6): (1) compute the current row's row number
/// within the frame under the function order, (2) offset it, (3) select the
/// row at the adjusted position, (4) evaluate the argument there.
///
/// When the function order is the frame order (no function-level ORDER BY,
/// or the window's own), the row number is positional and
/// FrameOrderSelect answers the call without a tree. Otherwise both steps
/// use the same selection tree: the row number is the count of
/// tree positions before the current row's function-order rank whose key
/// (filtered partition position) lies in the frame, and the selection is a
/// Select on the same tree. When the current row itself is dropped by the
/// FILTER clause or IGNORE NULLS, its rank is undefined and the result is
/// NULL (documented deviation; standard SQL has no FILTER on lead/lag).
template <typename Index>
Status EvalLeadLagT(const PartitionView& view, const WindowFunctionCall& call,
                    Column* out) {
  StatusOr<std::shared_ptr<const SelectionTree<Index>>> sel_or =
      SelectionTree<Index>::Obtain(view, call,
                                   /*drop_null_args=*/call.ignore_nulls);
  if (!sel_or.ok()) return sel_or.status();
  const SelectionTree<Index>& sel = **sel_or;
  const Column& arg = view.col(*call.argument);

  // Function-order rank of every filtered position: the inverse of the
  // permutation the tree was built over.
  const size_t m = sel.remap.num_surviving();
  std::vector<size_t> rank_of_filtered(m);
  {
    // Bulk-copy the permutation (level 0 of the tree): page-at-a-time when
    // the level was evicted under a memory budget. Inverting it is
    // preprocessing, not probing.
    obs::ScopedPhaseTimer timer(view.options->profile,
                                obs::ProfilePhase::kPreprocess);
    std::vector<Index> perm(m);
    sel.tree.CopyKeys(0, m, perm.data());
    for (size_t j = 0; j < m; ++j) {
      rank_of_filtered[static_cast<size_t>(perm[j])] = j;
    }
  }

  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        KeyRange<Index> ranges[FrameRanges::kMaxRanges];
        // Two batched kernel passes per chunk: first the row-number counts
        // (a CountLess pair per non-empty key range), then the offset
        // selects for rows whose target lands inside the frame.
        using Tree = MergeSortTree<Index>;
        struct RowTask {
          size_t row;
          size_t total;
          uint32_t range_begin;
          uint32_t num_ranges;
          uint32_t count_begin;
          uint32_t num_pairs;
        };
        std::vector<KeyRange<Index>> range_pool;
        std::vector<typename Tree::CountQuery> count_queries;
        std::vector<RowTask> tasks;
        std::vector<size_t> counts;
        std::vector<typename Tree::SelectQuery> selects;
        std::vector<size_t> select_rows;
        std::vector<size_t> selected;
        for (size_t chunk = lo; chunk < hi; chunk += kProbeChunkRows) {
          const size_t chunk_end = std::min(hi, chunk + kProbeChunkRows);
          range_pool.clear();
          count_queries.clear();
          tasks.clear();
          selects.clear();
          select_rows.clear();
          for (size_t i = chunk; i < chunk_end; ++i) {
            const size_t row = view.rows[i];
            if (!sel.remap.Included(i)) {
              out->SetNull(row);
              continue;
            }
            size_t total = 0;
            const size_t num_ranges =
                sel.MapKeyRanges(view.frames[i], ranges, &total);
            if (total == 0) {
              out->SetNull(row);
              continue;
            }
            const size_t own_rank =
                rank_of_filtered[sel.remap.ToFiltered(i)];
            RowTask task{row,
                         total,
                         static_cast<uint32_t>(range_pool.size()),
                         static_cast<uint32_t>(num_ranges),
                         static_cast<uint32_t>(count_queries.size()),
                         0};
            range_pool.insert(range_pool.end(), ranges, ranges + num_ranges);
            for (size_t r = 0; r < num_ranges; ++r) {
              if (ranges[r].lo >= ranges[r].hi) continue;  // counts 0
              count_queries.push_back({0, own_rank, ranges[r].hi});
              count_queries.push_back({0, own_rank, ranges[r].lo});
              ++task.num_pairs;
            }
            tasks.push_back(task);
          }
          counts.resize(count_queries.size());
          sel.tree.CountLessBatch(count_queries, kProbeGroupSize,
                                  counts.data());
          for (const RowTask& task : tasks) {
            // Frame rows strictly before the current row in function order.
            // If the current row is in the frame, `before` is its 0-based
            // index among the frame rows; otherwise it is the insertion
            // position, which generalizes the semantics naturally.
            size_t before = 0;
            for (size_t p = 0; p < task.num_pairs; ++p) {
              before += counts[task.count_begin + 2 * p] -
                        counts[task.count_begin + 2 * p + 1];
            }
            const size_t target = SelectedFrameRank(call, task.total, before);
            if (target >= task.total) {
              out->SetNull(task.row);
              continue;
            }
            selects.push_back({task.range_begin, task.num_ranges, target});
            select_rows.push_back(task.row);
          }
          selected.resize(selects.size());
          sel.SelectPositionsBatch(range_pool, selects, kProbeGroupSize,
                                   selected.data());
          GatherRowsWithPrefetch(view.rows.data(), selected.data(),
                                 selected.size(), selected.data());
          for (size_t q = 0; q < selects.size(); ++q) {
            if (q + kGatherLookahead < selects.size()) {
              arg.PrefetchRow(selected[q + kGatherLookahead]);
            }
            CopyArgumentValue(arg, selected[q], out, select_rows[q]);
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

}  // namespace
}  // namespace internal_window

Status EvalLeadLag(const PartitionView& view, const WindowFunctionCall& call,
                   Column* out) {
  if (internal_window::SelectsInFrameOrder(*view.spec, call)) {
    return internal_window::FrameOrderSelect(view, call, out);
  }
  return internal_window::DispatchIndexWidth(
      view.size(), view.options->force_index_width, [&](auto tag) {
        using Index = decltype(tag);
        return internal_window::EvalLeadLagT<Index>(view, call, out);
      });
}

}  // namespace hwf
