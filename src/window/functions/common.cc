#include "window/functions/common.h"

#include <algorithm>

#include "common/stop_token.h"
#include "parallel/parallel_for.h"

namespace hwf {
namespace internal_window {

bool SelectsInFrameOrder(const WindowSpec& spec,
                         const WindowFunctionCall& call) {
  return EffectiveOrder(spec, call) == spec.order_by;
}

Status FrameOrderSelect(const PartitionView& view,
                        const WindowFunctionCall& call, Column* out) {
  const IndexRemap remap =
      BuildCallRemap(view, call, /*drop_null_args=*/call.ignore_nulls);
  const Column& arg = view.col(*call.argument);
  const bool lead_lag = call.kind == WindowFunctionKind::kLead ||
                        call.kind == WindowFunctionKind::kLag;
  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        RowRange ranges[FrameRanges::kMaxRanges];
        for (size_t i = lo; i < hi; ++i) {
          const size_t row = view.rows[i];
          // A LEAD/LAG row dropped by FILTER or IGNORE NULLS has no rank
          // of its own, so its result is NULL (as on the tree path).
          if (lead_lag && !remap.Included(i)) {
            out->SetNull(row);
            continue;
          }
          const size_t count =
              MapRangesToFiltered(view.frames[i], remap, ranges);
          const size_t own = remap.ToFiltered(i);
          size_t total = 0;
          size_t before = 0;
          for (size_t r = 0; r < count; ++r) {
            total += ranges[r].size();
            before += std::clamp(own, ranges[r].begin, ranges[r].end) -
                      ranges[r].begin;
          }
          size_t rank = SelectedFrameRank(call, total, before);
          if (rank >= total) {
            out->SetNull(row);
            continue;
          }
          size_t r = 0;
          while (rank >= ranges[r].size()) rank -= ranges[r++].size();
          CopyArgumentValue(
              arg, view.rows[remap.ToOriginal(ranges[r].begin + rank)], out,
              row);
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

uint64_t ModeTieKey(const Column& column, size_t row) {
  switch (column.type()) {
    case DataType::kInt64:
      return EncodeInt64Key(column.GetInt64(row), /*ascending=*/true);
    case DataType::kDouble:
      return EncodeDoubleKey(column.GetDouble(row), /*ascending=*/true);
    case DataType::kString:
      return column.Hash(row);
  }
  return 0;
}

}  // namespace internal_window
}  // namespace hwf
