#ifndef HWF_WINDOW_FUNCTIONS_SELECTION_H_
#define HWF_WINDOW_FUNCTIONS_SELECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stop_token.h"
#include "mst/merge_sort_tree.h"
#include "mst/preprocess.h"
#include "mst/remap.h"
#include "mst/tree_cache.h"
#include "obs/profile.h"
#include "window/evaluator.h"
#include "window/functions/common.h"

namespace hwf {
namespace internal_window {

/// Shared machinery for percentiles, value functions and LEAD/LAG (§4.5,
/// §4.6): a merge sort tree over the permutation array (Fig. 6). Value
/// functions and LEAD/LAG use it only when their function order differs
/// from the frame order (see SelectsInFrameOrder).
///
/// Tree positions are the function-order ranks (0 = smallest under the
/// function's ORDER BY); keys are filtered partition positions. Selecting
/// the i-th tree entry whose key falls into the frame's position ranges
/// yields the i-th frame row in function order.
template <typename Index>
struct SelectionTree {
  IndexRemap remap;
  MergeSortTree<Index> tree;

  static SelectionTree Build(const PartitionView& view,
                             const WindowFunctionCall& call,
                             bool drop_null_args) {
    SelectionTree result;
    result.remap = BuildCallRemap(view, call, drop_null_args);
    const std::vector<SortKey> order = EffectiveOrder(*view.spec, call);
    // The permutation sort is Algorithm 1 preprocessing, charged to
    // kPreprocess so kProbe measures query answering only.
    std::vector<Index> perm;
    {
      obs::ScopedPhaseTimer timer(view.options->profile,
                                  obs::ProfilePhase::kPreprocess);
      PreprocessRequest req;
      req.want_perm = true;
      perm = PreprocessOrder<Index>(view, order, result.remap, req).perm;
    }
    result.tree = MergeSortTree<Index>::Build(std::move(perm),
                                              view.options->tree, *view.pool);
    return result;
  }

  /// Build, routed through the partition's cross-query cache when one is
  /// attached. The tree depends only on the remap inputs (FILTER, NULL
  /// dropping), the effective order and the tree build parameters — all
  /// serialized into the key — so every call with the same configuration
  /// shares one tree, across functions and across queries. Returns a non-OK
  /// Status when the build was cut short by cancellation (a partially-built
  /// tree must never be probed or cached: its cascade offsets are garbage).
  static StatusOr<std::shared_ptr<const SelectionTree>> Obtain(
      const PartitionView& view, const WindowFunctionCall& call,
      bool drop_null_args) {
    if (view.cache == nullptr) {
      SelectionTree built = Build(view, call, drop_null_args);
      if (Status stop = CheckStop(); !stop.ok()) return stop;
      return std::make_shared<const SelectionTree>(std::move(built));
    }
    const std::string key = view.cache_prefix + "|sel" +
                            CallCacheKey(view, call, drop_null_args) + "|w" +
                            std::to_string(sizeof(Index));
    return view.cache->GetOrBuild<SelectionTree>(
        key, [&]() -> StatusOr<mst::TreeCache::Built<SelectionTree>> {
          SelectionTree built = Build(view, call, drop_null_args);
          if (Status stop = CheckStop(); !stop.ok()) return stop;
          const size_t bytes =
              built.tree.MemoryUsageBytes() + built.remap.ApproxBytes();
          return mst::TreeCache::Built<SelectionTree>{
              std::make_shared<const SelectionTree>(std::move(built)), bytes};
        });
  }

  /// Maps the frame of position i to filtered key ranges. Returns the
  /// number of ranges; `*total` receives the number of qualifying rows.
  size_t MapKeyRanges(const FrameRanges& frames, KeyRange<Index>* out,
                      size_t* total) const {
    RowRange mapped[FrameRanges::kMaxRanges];
    const size_t count = MapRangesToFiltered(frames, remap, mapped);
    size_t rows = 0;
    for (size_t r = 0; r < count; ++r) {
      out[r] = KeyRange<Index>{static_cast<Index>(mapped[r].begin),
                               static_cast<Index>(mapped[r].end)};
      rows += mapped[r].size();
    }
    *total = rows;
    return count;
  }

  using SelectQuery = typename MergeSortTree<Index>::SelectQuery;

  /// Answers `queries` (each referencing a slice of `range_pool`; query q
  /// asks for the rank-th frame row in function order) through the
  /// prefetch-pipelined probe kernel with `group_size` queries in flight,
  /// then maps every selected tree position back to an original partition
  /// position in `out`.
  void SelectPositionsBatch(std::span<const KeyRange<Index>> range_pool,
                            std::span<const SelectQuery> queries,
                            size_t group_size, size_t* out) const {
    tree.SelectBatch(range_pool, queries, group_size, out);
    // Mapping the answered positions back is two more dependent random
    // reads per query (the level-0 key, then the survivor table); pipeline
    // each hop with a prefetch distance so those misses overlap too.
    const size_t n = queries.size();
    for (size_t q = 0; q < n; ++q) {
      if (q + kGatherLookahead < n) tree.PrefetchKey(out[q + kGatherLookahead]);
      out[q] = static_cast<size_t>(tree.KeyAt(out[q]));
    }
    if (remap.is_identity()) return;
    for (size_t q = 0; q < n; ++q) {
      if (q + kGatherLookahead < n) {
        remap.PrefetchToOriginal(out[q + kGatherLookahead]);
      }
      out[q] = remap.ToOriginal(out[q]);
    }
  }
};

}  // namespace internal_window
}  // namespace hwf

#endif  // HWF_WINDOW_FUNCTIONS_SELECTION_H_
