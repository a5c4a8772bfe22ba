#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stop_token.h"
#include "mst/aggregate_ops.h"
#include "mst/annotated_mst.h"
#include "mst/merge_sort_tree.h"
#include "mst/preprocess.h"
#include "obs/profile.h"
#include "window/evaluator.h"
#include "window/functions/common.h"

namespace hwf {

namespace internal_window {

std::vector<uint64_t> GatherArgumentCodes(const PartitionView& view,
                                          size_t argument,
                                          const IndexRemap& remap) {
  const Column& column = view.col(argument);
  const size_t m = remap.num_surviving();
  std::vector<uint64_t> codes(m);
  ParallelFor(
      0, m,
      [&](size_t lo, size_t hi) {
        for (size_t j = lo; j < hi; ++j) {
          codes[j] = column.Hash(view.rows[remap.ToOriginal(j)]);
        }
      },
      *view.pool);
  return codes;
}

namespace {

/// Shared preprocessing front half of the distinct evaluators: hash the
/// argument column, then derive prevIdcs (and nextIdcs under exclusion)
/// through the fused single-sort pipeline. Caller wraps this in the
/// kPreprocess phase timer.
template <typename Index>
void DistinctPreprocess(const PartitionView& view, size_t argument,
                        const IndexRemap& remap, bool has_exclusion,
                        std::vector<uint64_t>* codes, std::vector<Index>* prev,
                        std::vector<Index>* next) {
  obs::ExecutionProfile* profile = view.options->profile;
  {
    obs::ScopedPreprocessStepTimer gather_timer(
        profile, obs::PreprocessStep::kGatherCodes);
    *codes = GatherArgumentCodes(view, argument, remap);
  }
  PreprocessRequest req;
  req.want_prev = true;
  req.want_next = has_exclusion;
  PreprocessResult<Index> pre =
      PreprocessHashedCodes<Index>(*codes, req, *view.pool, profile);
  *prev = std::move(pre.prev);
  *next = std::move(pre.next);
}

}  // namespace

namespace {

/// Walks the exclusion gaps of a multi-range frame and reports, for every
/// distinct value whose *first* in-frame-window occurrence lies inside a
/// gap but which re-appears inside a later range, one representative
/// position inside that range.
///
/// Rationale (extension of §4.7; the paper only sketches exclusion
/// support): per-range counting with the union's begin as threshold counts
/// exactly the values whose first occurrence within W = [union begin,
/// union end) lies inside a range. Values first occurring inside a gap are
/// missed even when they re-appear in a later range, because the
/// re-appearance's backreference points into the gap. This walk adds those
/// back. Cost is O(gap size) per row — constant for EXCLUDE CURRENT ROW.
///
/// `ranges` are the filtered frame ranges (ascending); prev/next are the
/// encoded previous- and plain next-occurrence arrays over the filtered
/// domain. Calls `found(range_position)` once per missed value.
template <typename Index, typename Found>
void ForEachGapCorrection(const RowRange* ranges, size_t num_ranges,
                          const std::vector<Index>& prev,
                          const std::vector<Index>& next, Found&& found) {
  if (num_ranges < 2) return;
  const size_t union_begin = ranges[0].begin;
  const size_t union_end = ranges[num_ranges - 1].end;
  const Index first_threshold = static_cast<Index>(union_begin + 1);
  auto in_some_range = [&](size_t pos) {
    for (size_t r = 0; r < num_ranges; ++r) {
      if (pos >= ranges[r].begin && pos < ranges[r].end) return true;
    }
    return false;
  };
  for (size_t g = 0; g + 1 < num_ranges; ++g) {
    for (size_t q = ranges[g].end; q < ranges[g + 1].begin; ++q) {
      if (prev[q] >= first_threshold) continue;  // Not first-in-W.
      // Walk the occurrence chain forward until it leaves the window or
      // hits a range.
      size_t r = static_cast<size_t>(next[q]);
      while (r < union_end) {
        if (in_some_range(r)) {
          found(r);
          break;
        }
        r = static_cast<size_t>(next[r]);
      }
    }
  }
}

template <typename Index>
Status EvalCountDistinctT(const PartitionView& view,
                          const WindowFunctionCall& call, Column* out) {
  const IndexRemap remap = BuildCallRemap(view, call, /*drop_null_args=*/true);
  const bool has_exclusion =
      view.spec->frame.exclusion != FrameExclusion::kNoOthers;
  // Code/prevIdcs construction is Algorithm 1 preprocessing (kPreprocess);
  // kProbe then measures the per-row counts only.
  std::vector<uint64_t> codes;
  std::vector<Index> prev;
  std::vector<Index> next;
  {
    obs::ScopedPhaseTimer timer(view.options->profile,
                                obs::ProfilePhase::kPreprocess);
    DistinctPreprocess<Index>(view, *call.argument, remap, has_exclusion,
                              &codes, &prev, &next);
  }

  const MergeSortTree<Index> tree =
      MergeSortTree<Index>::Build(prev, view.options->tree, *view.pool);
  // A build cut short by cancellation must never be probed: its level data
  // and cascade offsets are garbage.
  if (Status stop = CheckStop(); !stop.ok()) return stop;

  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        RowRange ranges[FrameRanges::kMaxRanges];
        // One batched CountLess query per frame range per chunk row; counts
        // are integer sums, so the per-range addition order is immaterial.
        // Gap corrections stay scalar (O(gap) walks).
        struct RowTask {
          size_t view_index;
          uint32_t range_begin;
          uint32_t num_ranges;
        };
        std::vector<typename MergeSortTree<Index>::CountQuery> queries;
        std::vector<RowRange> range_pool;
        std::vector<RowTask> tasks;
        std::vector<size_t> counts;
        for (size_t chunk = lo; chunk < hi; chunk += kProbeChunkRows) {
          const size_t chunk_end = std::min(hi, chunk + kProbeChunkRows);
          queries.clear();
          range_pool.clear();
          tasks.clear();
          for (size_t i = chunk; i < chunk_end; ++i) {
            const size_t num_ranges =
                MapRangesToFiltered(view.frames[i], remap, ranges);
            if (num_ranges == 0) {
              out->SetInt64(view.rows[i], 0);
              continue;
            }
            const Index threshold = static_cast<Index>(ranges[0].begin + 1);
            tasks.push_back({i, static_cast<uint32_t>(range_pool.size()),
                             static_cast<uint32_t>(num_ranges)});
            range_pool.insert(range_pool.end(), ranges,
                              ranges + num_ranges);
            for (size_t r = 0; r < num_ranges; ++r) {
              queries.push_back(
                  {ranges[r].begin, ranges[r].end, threshold});
            }
          }
          counts.resize(queries.size());
          tree.CountLessBatch(queries, kProbeGroupSize, counts.data());
          size_t q = 0;
          for (const RowTask& task : tasks) {
            size_t count = 0;
            for (size_t r = 0; r < task.num_ranges; ++r) count += counts[q++];
            ForEachGapCorrection<Index>(range_pool.data() + task.range_begin,
                                        task.num_ranges, prev, next,
                                        [&](size_t) { ++count; });
            out->SetInt64(view.rows[task.view_index],
                          static_cast<int64_t>(count));
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

/// Generic distinct aggregate: annotated tree + per-range prefix merging +
/// gap corrections. `get_input(filtered_pos)` produces the Ops input;
/// `write(row, state_or_null)` stores the result.
template <typename Index, typename Ops, typename GetInput, typename Write>
Status EvalDistinctAggregateT(const PartitionView& view,
                              const WindowFunctionCall& call,
                              GetInput&& get_input, Write&& write) {
  using State = typename Ops::State;
  const IndexRemap remap = BuildCallRemap(view, call, /*drop_null_args=*/true);
  const size_t m = remap.num_surviving();
  const bool has_exclusion =
      view.spec->frame.exclusion != FrameExclusion::kNoOthers;
  // Code/prevIdcs/input gathering is Algorithm 1 preprocessing
  // (kPreprocess); kProbe then measures the per-row aggregation only.
  std::vector<uint64_t> codes;
  std::vector<Index> prev;
  std::vector<Index> next;
  std::vector<typename Ops::Input> inputs(m);
  {
    obs::ScopedPhaseTimer timer(view.options->profile,
                                obs::ProfilePhase::kPreprocess);
    DistinctPreprocess<Index>(view, *call.argument, remap, has_exclusion,
                              &codes, &prev, &next);
    for (size_t j = 0; j < m; ++j) inputs[j] = get_input(j);
  }

  // Keep a copy of prev for the correction walks (the build consumes it).
  std::vector<Index> prev_copy;
  if (has_exclusion) prev_copy = prev;
  const AnnotatedMergeSortTree<Index, Ops> tree =
      AnnotatedMergeSortTree<Index, Ops>::Build(
          std::move(prev), std::move(inputs), view.options->tree, *view.pool);
  // A build cut short by cancellation must never be probed (see above).
  if (Status stop = CheckStop(); !stop.ok()) return stop;

  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        RowRange ranges[FrameRanges::kMaxRanges];
        // One batched AggregateLess query per frame range per chunk row.
        // The kernel merges each query's cover pieces in the scalar visit
        // order and the per-row merge below folds the per-range states in
        // range order, so floating-point states are bit-identical to the
        // scalar AggregateLess. Gap corrections stay scalar.
        struct RowTask {
          size_t view_index;
          uint32_t range_begin;
          uint32_t num_ranges;
        };
        std::vector<typename MergeSortTree<Index>::CountQuery> queries;
        std::vector<RowRange> range_pool;
        std::vector<RowTask> tasks;
        std::vector<std::optional<State>> pieces;
        for (size_t chunk = lo; chunk < hi; chunk += kProbeChunkRows) {
          const size_t chunk_end = std::min(hi, chunk + kProbeChunkRows);
          queries.clear();
          range_pool.clear();
          tasks.clear();
          for (size_t i = chunk; i < chunk_end; ++i) {
            const size_t num_ranges =
                MapRangesToFiltered(view.frames[i], remap, ranges);
            if (num_ranges == 0) {
              write(view.rows[i], std::optional<State>());
              continue;
            }
            const Index threshold = static_cast<Index>(ranges[0].begin + 1);
            tasks.push_back({i, static_cast<uint32_t>(range_pool.size()),
                             static_cast<uint32_t>(num_ranges)});
            range_pool.insert(range_pool.end(), ranges,
                              ranges + num_ranges);
            for (size_t r = 0; r < num_ranges; ++r) {
              queries.push_back(
                  {ranges[r].begin, ranges[r].end, threshold});
            }
          }
          pieces.assign(queries.size(), std::optional<State>());
          tree.AggregateLessBatch(queries, kProbeGroupSize, pieces.data());
          size_t q = 0;
          for (const RowTask& task : tasks) {
            std::optional<State> state;
            for (size_t r = 0; r < task.num_ranges; ++r) {
              const std::optional<State>& piece = pieces[q++];
              if (piece.has_value()) {
                if (state.has_value()) {
                  Ops::Merge(*state, *piece);
                } else {
                  state = *piece;
                }
              }
            }
            ForEachGapCorrection<Index>(
                range_pool.data() + task.range_begin, task.num_ranges,
                prev_copy, next, [&](size_t pos) {
                  const State piece = Ops::MakeState(get_input(pos));
                  if (state.has_value()) {
                    Ops::Merge(*state, piece);
                  } else {
                    state = piece;
                  }
                });
            write(view.rows[task.view_index], state);
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

template <typename Index>
Status EvalDistinctDispatch(const PartitionView& view,
                            const WindowFunctionCall& call, Column* out) {
  const Column& arg = view.col(*call.argument);
  const bool arg_is_int = arg.type() == DataType::kInt64;

  // Input getters need the remap, which EvalDistinctAggregateT builds
  // internally; rebuild here for value access (cheap relative to sorting).
  const IndexRemap remap = BuildCallRemap(view, call, /*drop_null_args=*/true);
  auto int_input = [&](size_t j) {
    return arg.GetInt64(view.rows[remap.ToOriginal(j)]);
  };
  auto dbl_input = [&](size_t j) {
    return arg.GetNumeric(view.rows[remap.ToOriginal(j)]);
  };

  switch (call.kind) {
    case WindowFunctionKind::kCountDistinct:
      return EvalCountDistinctT<Index>(view, call, out);
    case WindowFunctionKind::kSumDistinct:
      if (arg_is_int) {
        return EvalDistinctAggregateT<Index, SumInt64Ops>(
            view, call, int_input,
            [&](size_t row, const std::optional<int64_t>& state) {
              if (state.has_value()) {
                out->SetInt64(row, *state);
              } else {
                out->SetNull(row);
              }
            });
      }
      return EvalDistinctAggregateT<Index, SumOps>(
          view, call, dbl_input,
          [&](size_t row, const std::optional<double>& state) {
            if (state.has_value()) {
              out->SetDouble(row, *state);
            } else {
              out->SetNull(row);
            }
          });
    case WindowFunctionKind::kAvgDistinct:
      return EvalDistinctAggregateT<Index, AvgOps>(
          view, call, dbl_input,
          [&](size_t row, const std::optional<AvgOps::State>& state) {
            if (state.has_value() && state->count > 0) {
              out->SetDouble(row, state->sum /
                                      static_cast<double>(state->count));
            } else {
              out->SetNull(row);
            }
          });
    case WindowFunctionKind::kMinDistinct:
    case WindowFunctionKind::kMaxDistinct: {
      const bool is_min = call.kind == WindowFunctionKind::kMinDistinct;
      auto write_numeric = [&](size_t row, const std::optional<double>& s) {
        if (!s.has_value()) {
          out->SetNull(row);
        } else if (out->type() == DataType::kInt64) {
          out->SetInt64(row, static_cast<int64_t>(*s));
        } else {
          out->SetDouble(row, *s);
        }
      };
      if (is_min) {
        return EvalDistinctAggregateT<Index, MinOps>(view, call, dbl_input,
                                                     write_numeric);
      }
      return EvalDistinctAggregateT<Index, MaxOps>(view, call, dbl_input,
                                                   write_numeric);
    }
    default:
      return Status::Internal("not a distinct aggregate");
  }
}

}  // namespace
}  // namespace internal_window

Status EvalDistinctAggregate(const PartitionView& view,
                             const WindowFunctionCall& call, Column* out) {
  return internal_window::DispatchIndexWidth(
      view.size(), view.options->force_index_width, [&](auto tag) {
        using Index = decltype(tag);
        return internal_window::EvalDistinctDispatch<Index>(view, call, out);
      });
}

}  // namespace hwf
