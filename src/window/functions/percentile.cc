#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ingest/merged_probe.h"
#include "window/evaluator.h"
#include "window/functions/selection.h"

namespace hwf {
namespace internal_window {
namespace {

/// Merged-cursor percentile evaluation for mixed base+delta partitions
/// (streaming ingest): probes the cached base tree plus a small delta
/// side-tree instead of rebuilding over the full partition. Always the
/// scalar loop — the batched probe kernel pipelines descents within one
/// tree, while the merged cursor's rank search alternates between two.
/// Output is bit-identical to the rebuild path (see MergedSelection).
template <typename Index>
Status EvalPercentileMergedT(const PartitionView& view,
                             const WindowFunctionCall& call, Column* out,
                             const ingest::MergedSelection<Index>& sel) {
  const Column& arg = view.col(*call.argument);
  const bool cont = call.kind == WindowFunctionKind::kPercentileCont;
  const double fraction =
      call.kind == WindowFunctionKind::kMedian ? 0.5 : call.fraction;
  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        typename ingest::MergedSelection<Index>::Ranges ranges;
        for (size_t i = lo; i < hi; ++i) {
          const size_t row = view.rows[i];
          size_t total = 0;
          sel.MapKeyRanges(view.frames[i], &ranges, &total);
          if (total == 0) {
            out->SetNull(row);
            continue;
          }
          if (!cont) {
            double pos = std::ceil(fraction * static_cast<double>(total)) - 1;
            size_t idx = pos <= 0 ? 0 : static_cast<size_t>(pos);
            if (idx >= total) idx = total - 1;
            const size_t selected = view.rows[sel.SelectPosition(ranges, idx)];
            if (out->type() == DataType::kInt64) {
              out->SetInt64(row, arg.GetInt64(selected));
            } else {
              out->SetDouble(row, arg.GetNumeric(selected));
            }
          } else {
            const double pos = fraction * static_cast<double>(total - 1);
            const size_t lo_idx = static_cast<size_t>(std::floor(pos));
            const size_t hi_idx = static_cast<size_t>(std::ceil(pos));
            const double lo_val =
                arg.GetNumeric(view.rows[sel.SelectPosition(ranges, lo_idx)]);
            if (hi_idx == lo_idx) {
              out->SetDouble(row, lo_val);
            } else {
              const double hi_val = arg.GetNumeric(
                  view.rows[sel.SelectPosition(ranges, hi_idx)]);
              const double t = pos - static_cast<double>(lo_idx);
              out->SetDouble(row, lo_val + t * (hi_val - lo_val));
            }
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

/// Framed percentiles (§4.5). PERCENTILE_DISC(f) returns the first value
/// whose cumulative distribution reaches f (an actual input value);
/// PERCENTILE_CONT(f) linearly interpolates between the two neighboring
/// values; MEDIAN is PERCENTILE_DISC(0.5). NULL arguments are always
/// ignored, matching the SQL aggregate semantics.
template <typename Index>
Status EvalPercentileT(const PartitionView& view,
                       const WindowFunctionCall& call, Column* out) {
  if (view.delta != nullptr) {
    StatusOr<std::shared_ptr<const ingest::MergedSelection<Index>>> merged =
        ingest::MergedSelection<Index>::TryObtain(view, call,
                                                  /*drop_null_args=*/true);
    if (!merged.ok()) return merged.status();
    if (*merged != nullptr) {
      return EvalPercentileMergedT<Index>(view, call, out, **merged);
    }
    // Cold base tree or unsupported ordering: fall through to the full
    // rebuild, which caches under the combined content key.
  }
  StatusOr<std::shared_ptr<const SelectionTree<Index>>> sel_or =
      SelectionTree<Index>::Obtain(view, call, /*drop_null_args=*/true);
  if (!sel_or.ok()) return sel_or.status();
  const SelectionTree<Index>& sel = **sel_or;
  const Column& arg = view.col(*call.argument);
  const bool cont = call.kind == WindowFunctionKind::kPercentileCont;
  const double fraction =
      call.kind == WindowFunctionKind::kMedian ? 0.5 : call.fraction;

  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        KeyRange<Index> ranges[FrameRanges::kMaxRanges];
        // Gather a chunk of rows' percentile selects, answer them in one
        // batched kernel pass, then emit. PERCENTILE_DISC selects rank
        // ceil(f·N) - 1 clamped into [0, N); PERCENTILE_CONT interpolates
        // between ranks floor and ceil of f·(N-1).
        struct RowTask {
          size_t row;
          uint32_t first_query;
          uint8_t num_queries;
          double pos;  // CONT interpolation position
        };
        std::vector<KeyRange<Index>> range_pool;
        std::vector<typename SelectionTree<Index>::SelectQuery> queries;
        std::vector<RowTask> tasks;
        std::vector<size_t> selected;
        for (size_t chunk = lo; chunk < hi; chunk += kProbeChunkRows) {
          const size_t chunk_end = std::min(hi, chunk + kProbeChunkRows);
          range_pool.clear();
          queries.clear();
          tasks.clear();
          for (size_t i = chunk; i < chunk_end; ++i) {
            const size_t row = view.rows[i];
            size_t total = 0;
            const size_t num_ranges =
                sel.MapKeyRanges(view.frames[i], ranges, &total);
            if (total == 0) {
              out->SetNull(row);
              continue;
            }
            const uint32_t range_begin =
                static_cast<uint32_t>(range_pool.size());
            range_pool.insert(range_pool.end(), ranges, ranges + num_ranges);
            RowTask task{row, static_cast<uint32_t>(queries.size()), 1, 0.0};
            if (!cont) {
              double pos =
                  std::ceil(fraction * static_cast<double>(total)) - 1;
              size_t idx = pos <= 0 ? 0 : static_cast<size_t>(pos);
              if (idx >= total) idx = total - 1;
              queries.push_back({range_begin,
                                 static_cast<uint32_t>(num_ranges), idx});
            } else {
              const double pos = fraction * static_cast<double>(total - 1);
              const size_t lo_idx = static_cast<size_t>(std::floor(pos));
              const size_t hi_idx = static_cast<size_t>(std::ceil(pos));
              task.pos = pos;
              queries.push_back({range_begin,
                                 static_cast<uint32_t>(num_ranges), lo_idx});
              if (hi_idx != lo_idx) {
                queries.push_back({range_begin,
                                   static_cast<uint32_t>(num_ranges),
                                   hi_idx});
                task.num_queries = 2;
              }
            }
            tasks.push_back(task);
          }
          selected.resize(queries.size());
          sel.SelectPositionsBatch(range_pool, queries, kProbeGroupSize,
                                   selected.data());
          GatherRowsWithPrefetch(view.rows.data(), selected.data(),
                                 selected.size(), selected.data());
          for (size_t t = 0; t < tasks.size(); ++t) {
            if (t + kGatherLookahead < tasks.size()) {
              const RowTask& ahead = tasks[t + kGatherLookahead];
              arg.PrefetchRow(selected[ahead.first_query]);
              if (ahead.num_queries == 2) {
                arg.PrefetchRow(selected[ahead.first_query + 1]);
              }
            }
            const RowTask& task = tasks[t];
            if (!cont) {
              const size_t sel_row = selected[task.first_query];
              if (out->type() == DataType::kInt64) {
                out->SetInt64(task.row, arg.GetInt64(sel_row));
              } else {
                out->SetDouble(task.row, arg.GetNumeric(sel_row));
              }
            } else {
              const double lo_val =
                  arg.GetNumeric(selected[task.first_query]);
              if (task.num_queries == 1) {
                out->SetDouble(task.row, lo_val);
              } else {
                const double hi_val =
                    arg.GetNumeric(selected[task.first_query + 1]);
                const double t_frac = task.pos - std::floor(task.pos);
                out->SetDouble(task.row,
                               lo_val + t_frac * (hi_val - lo_val));
              }
            }
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

}  // namespace
}  // namespace internal_window

Status EvalPercentile(const PartitionView& view,
                      const WindowFunctionCall& call, Column* out) {
  return internal_window::DispatchIndexWidth(
      view.size(), view.options->force_index_width, [&](auto tag) {
        using Index = decltype(tag);
        return internal_window::EvalPercentileT<Index>(view, call, out);
      });
}

}  // namespace hwf
