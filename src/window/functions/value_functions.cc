#include <algorithm>
#include <cstdint>
#include <vector>

#include "window/evaluator.h"
#include "window/functions/selection.h"

namespace hwf {
namespace internal_window {
namespace {

/// Framed value functions (§4.5): FIRST_VALUE / LAST_VALUE / NTH_VALUE
/// select the i-th frame row under the function-level ORDER BY and
/// evaluate the argument there. IGNORE NULLS drops rows whose argument is
/// NULL before selection. Without a function-level ORDER BY (or with the
/// window's own), the standard's frame order applies and FrameOrderSelect
/// answers the call positionally, without this tree.
template <typename Index>
Status EvalValueFunctionT(const PartitionView& view,
                          const WindowFunctionCall& call, Column* out) {
  StatusOr<std::shared_ptr<const SelectionTree<Index>>> sel_or =
      SelectionTree<Index>::Obtain(view, call,
                                   /*drop_null_args=*/call.ignore_nulls);
  if (!sel_or.ok()) return sel_or.status();
  const SelectionTree<Index>& sel = **sel_or;
  const Column& arg = view.col(*call.argument);

  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        KeyRange<Index> ranges[FrameRanges::kMaxRanges];
        // One select query per non-null row per chunk, answered in one
        // batched kernel pass.
        std::vector<KeyRange<Index>> range_pool;
        std::vector<typename SelectionTree<Index>::SelectQuery> queries;
        std::vector<size_t> rows;
        std::vector<size_t> selected;
        for (size_t chunk = lo; chunk < hi; chunk += kProbeChunkRows) {
          const size_t chunk_end = std::min(hi, chunk + kProbeChunkRows);
          range_pool.clear();
          queries.clear();
          rows.clear();
          for (size_t i = chunk; i < chunk_end; ++i) {
            const size_t row = view.rows[i];
            size_t total = 0;
            const size_t num_ranges =
                sel.MapKeyRanges(view.frames[i], ranges, &total);
            const size_t idx = SelectedFrameRank(call, total, /*before=*/0);
            if (idx >= total) {
              out->SetNull(row);
              continue;
            }
            const uint32_t range_begin =
                static_cast<uint32_t>(range_pool.size());
            range_pool.insert(range_pool.end(), ranges, ranges + num_ranges);
            queries.push_back(
                {range_begin, static_cast<uint32_t>(num_ranges), idx});
            rows.push_back(row);
          }
          selected.resize(queries.size());
          sel.SelectPositionsBatch(range_pool, queries, kProbeGroupSize,
                                   selected.data());
          GatherRowsWithPrefetch(view.rows.data(), selected.data(),
                                 selected.size(), selected.data());
          for (size_t q = 0; q < queries.size(); ++q) {
            if (q + kGatherLookahead < queries.size()) {
              arg.PrefetchRow(selected[q + kGatherLookahead]);
            }
            CopyArgumentValue(arg, selected[q], out, rows[q]);
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

}  // namespace
}  // namespace internal_window

Status EvalValueFunction(const PartitionView& view,
                         const WindowFunctionCall& call, Column* out) {
  if (internal_window::SelectsInFrameOrder(*view.spec, call)) {
    return internal_window::FrameOrderSelect(view, call, out);
  }
  return internal_window::DispatchIndexWidth(
      view.size(), view.options->force_index_width, [&](auto tag) {
        using Index = decltype(tag);
        return internal_window::EvalValueFunctionT<Index>(view, call, out);
      });
}

}  // namespace hwf
