#ifndef HWF_WINDOW_EVALUATOR_H_
#define HWF_WINDOW_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "mst/remap.h"
#include "mst/tree_cache.h"
#include "parallel/thread_pool.h"
#include "storage/table.h"
#include "window/executor.h"
#include "window/frame.h"
#include "window/spec.h"

namespace hwf {

/// Internal: one partition as seen by a window function evaluator.
///
/// Positions are 0..n within the partition's sort order; `rows[i]` maps a
/// position back to the input table row. Evaluators write their result for
/// position i into out row `rows[i]`.
struct PartitionView {
  const Table* table = nullptr;
  const WindowSpec* spec = nullptr;
  std::span<const size_t> rows;
  std::span<const FrameRanges> frames;
  const WindowExecutorOptions* options = nullptr;
  ThreadPool* pool = nullptr;

  /// Cross-query artifact cache; null when caching is disabled. When set,
  /// `cache_prefix` identifies the (table version, sort spec, partition row
  /// range) and evaluators append their own build parameters to form exact
  /// keys. Cached artifacts must be self-contained (no per-query budget
  /// reservations) and are shared across threads, so probes must be const.
  mst::TreeCache* cache = nullptr;
  std::string cache_prefix;

  size_t size() const { return rows.size(); }
  const Column& col(size_t index) const { return table->column(index); }
};

// -- Shared evaluator helpers (window/executor.cc) --------------------------

/// Three-way comparison of two table rows under a sequence of sort keys
/// (direction + NULL placement per key). Returns <0, 0, >0.
int CompareRowsBy(const Table& table, size_t row_a, size_t row_b,
                  std::span<const SortKey> keys);

/// The function-level ordering of a call, falling back to the window's
/// ORDER BY per the standard's semantics, or to ordering by the argument
/// for percentiles.
std::vector<SortKey> EffectiveOrder(const WindowSpec& spec,
                                    const WindowFunctionCall& call);

/// Builds the inclusion remap for a call: drops rows failing the FILTER
/// clause and, when `drop_null_args` is set, rows whose argument is NULL.
IndexRemap BuildCallRemap(const PartitionView& view,
                          const WindowFunctionCall& call, bool drop_null_args);

/// Maps frame ranges from original partition positions to filtered
/// positions. Returns the number of ranges written to `out` (≤ 3); empty
/// mapped ranges are dropped.
size_t MapRangesToFiltered(const FrameRanges& frames, const IndexRemap& remap,
                           RowRange* out);

/// Serializes every call property that determines a build artifact (the
/// effective ORDER BY, FILTER, argument/NULL handling, and the tree build
/// parameters) into a cache-key fragment. Evaluators append a site tag and
/// the index width to form the full key under `view.cache_prefix`.
std::string CallCacheKey(const PartitionView& view,
                         const WindowFunctionCall& call, bool drop_null_args);

// -- Per-family evaluators (window/functions/*.cc), merge sort tree engine --

Status EvalDistinctAggregate(const PartitionView& view,
                             const WindowFunctionCall& call, Column* out);
Status EvalRankFunction(const PartitionView& view,
                        const WindowFunctionCall& call, Column* out);
Status EvalDenseRank(const PartitionView& view, const WindowFunctionCall& call,
                     Column* out);
Status EvalPercentile(const PartitionView& view,
                      const WindowFunctionCall& call, Column* out);
Status EvalValueFunction(const PartitionView& view,
                         const WindowFunctionCall& call, Column* out);
Status EvalLeadLag(const PartitionView& view, const WindowFunctionCall& call,
                   Column* out);
Status EvalDistributive(const PartitionView& view,
                        const WindowFunctionCall& call, Column* out);

// -- Competitor engines (src/baselines/) ------------------------------------

Status EvalNaive(const PartitionView& view, const WindowFunctionCall& call,
                 Column* out);
Status EvalIncremental(const PartitionView& view,
                       const WindowFunctionCall& call, Column* out);
Status EvalOrderStatisticTree(const PartitionView& view,
                              const WindowFunctionCall& call, Column* out);

}  // namespace hwf

#endif  // HWF_WINDOW_EVALUATOR_H_
