#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stop_token.h"
#include "mst/merge_sort_tree.h"
#include "mst/preprocess.h"
#include "mst/tree_cache.h"
#include "obs/profile.h"
#include "window/evaluator.h"
#include "window/functions/common.h"

namespace hwf {
namespace internal_window {
namespace {

/// The cacheable build product of the rank functions: the FILTER remap, the
/// function-order codes over all partition positions (the per-row query
/// thresholds) and the tree over the surviving positions' codes.
template <typename Index>
struct RankArtifact {
  IndexRemap remap;
  std::vector<Index> codes;
  MergeSortTree<Index> tree;

  static RankArtifact Build(const PartitionView& view,
                            const WindowFunctionCall& call, bool dense) {
    RankArtifact result;
    const size_t n = view.size();
    result.remap = BuildCallRemap(view, call, /*drop_null_args=*/false);
    const size_t m = result.remap.num_surviving();
    const std::vector<SortKey> order = EffectiveOrder(*view.spec, call);
    // Code construction is Algorithm 1 preprocessing (kPreprocess); kProbe
    // then measures the per-row rank counts only.
    std::vector<Index> keys(m);
    {
      obs::ScopedPhaseTimer timer(view.options->profile,
                                  obs::ProfilePhase::kPreprocess);
      PreprocessRequest req;
      req.want_dense = dense;
      req.want_unique = !dense;
      PreprocessResult<Index> pre =
          PreprocessOrder<Index>(view, order, IndexRemap::Identity(n), req);
      result.codes =
          dense ? std::move(pre.dense_codes) : std::move(pre.unique_codes);
      for (size_t j = 0; j < m; ++j) {
        keys[j] = result.codes[result.remap.ToOriginal(j)];
      }
    }
    result.tree = MergeSortTree<Index>::Build(std::move(keys),
                                              view.options->tree, *view.pool);
    return result;
  }

  static StatusOr<std::shared_ptr<const RankArtifact>> Obtain(
      const PartitionView& view, const WindowFunctionCall& call, bool dense) {
    if (view.cache == nullptr) {
      RankArtifact built = Build(view, call, dense);
      if (Status stop = CheckStop(); !stop.ok()) return stop;
      return std::make_shared<const RankArtifact>(std::move(built));
    }
    const std::string key =
        view.cache_prefix + "|rank" +
        CallCacheKey(view, call, /*drop_null_args=*/false) +
        (dense ? "|d" : "|u") + "|w" + std::to_string(sizeof(Index));
    return view.cache->GetOrBuild<RankArtifact>(
        key, [&]() -> StatusOr<mst::TreeCache::Built<RankArtifact>> {
          RankArtifact built = Build(view, call, dense);
          if (Status stop = CheckStop(); !stop.ok()) return stop;
          const size_t bytes = built.tree.MemoryUsageBytes() +
                               built.remap.ApproxBytes() +
                               built.codes.capacity() * sizeof(Index);
          return mst::TreeCache::Built<RankArtifact>{
              std::make_shared<const RankArtifact>(std::move(built)), bytes};
        });
  }
};

/// Writes one row's rank-family result from its frame size and `count`,
/// the number of frame rows whose code lies below the row's threshold.
void WriteRankResult(const WindowFunctionCall& call, size_t row, size_t count,
                     size_t frame_rows, Column* out) {
  switch (call.kind) {
    case WindowFunctionKind::kRank:
    case WindowFunctionKind::kRowNumber:
      out->SetInt64(row, static_cast<int64_t>(1 + count));
      break;
    case WindowFunctionKind::kPercentRank:
      out->SetDouble(row, frame_rows <= 1
                              ? 0.0
                              : static_cast<double>(count) /
                                    static_cast<double>(frame_rows - 1));
      break;
    case WindowFunctionKind::kCumeDist:
      // The threshold is code + 1, so `count` includes the row's peers.
      if (frame_rows == 0) {
        out->SetNull(row);
      } else {
        out->SetDouble(row, static_cast<double>(count) /
                                static_cast<double>(frame_rows));
      }
      break;
    case WindowFunctionKind::kNtile: {
      if (frame_rows == 0) {
        out->SetNull(row);
        break;
      }
      const size_t buckets = static_cast<size_t>(call.param);
      // 0-based index of the current row among the frame rows in function
      // order (insertion position when the row itself is outside the frame).
      const size_t rn = std::min(count, frame_rows - 1);
      int64_t tile;
      if (buckets >= frame_rows) {
        tile = static_cast<int64_t>(rn) + 1;
      } else {
        // SQL NTILE: the first (frame_rows % buckets) buckets get one extra
        // row.
        const size_t big = frame_rows % buckets;
        const size_t small_size = frame_rows / buckets;
        const size_t big_total = big * (small_size + 1);
        if (rn < big_total) {
          tile = static_cast<int64_t>(rn / (small_size + 1)) + 1;
        } else {
          tile = static_cast<int64_t>(big + (rn - big_total) / small_size) + 1;
        }
      }
      out->SetInt64(row, tile);
      break;
    }
    default:
      HWF_CHECK_MSG(false, "not a rank function");
  }
}

/// Shared machinery of the MST-based rank functions (§4.4).
///
/// The function-level ORDER BY is preprocessed into integer codes over all
/// partition positions (Fig. 8): dense codes for RANK / CUME_DIST (peers
/// share a code), unique codes for ROW_NUMBER / NTILE (ties broken by
/// position). The tree is built over the codes of the FILTER-surviving
/// positions; the current row's own code works as the query threshold even
/// when the row itself is filtered out.
template <typename Index>
Status EvalRankT(const PartitionView& view, const WindowFunctionCall& call,
                 Column* out) {
  const size_t n = view.size();
  const bool dense = call.kind == WindowFunctionKind::kRank ||
                     call.kind == WindowFunctionKind::kPercentRank ||
                     call.kind == WindowFunctionKind::kCumeDist;
  const bool count_peers = call.kind == WindowFunctionKind::kCumeDist;
  StatusOr<std::shared_ptr<const RankArtifact<Index>>> artifact_or =
      RankArtifact<Index>::Obtain(view, call, dense);
  if (!artifact_or.ok()) return artifact_or.status();
  const IndexRemap& remap = (*artifact_or)->remap;
  const std::vector<Index>& codes = (*artifact_or)->codes;
  const MergeSortTree<Index>& tree = (*artifact_or)->tree;

  ParallelFor(
      0, n,
      [&](size_t lo, size_t hi) {
        RowRange ranges[FrameRanges::kMaxRanges];
        // One batched count query per frame range per chunk row; counts
        // are integer sums, so the per-range addition order is immaterial.
        struct RowTask {
          size_t view_index;
          size_t frame_rows;
          size_t num_ranges;
        };
        std::vector<typename MergeSortTree<Index>::CountQuery> queries;
        std::vector<RowTask> tasks;
        std::vector<size_t> counts;
        for (size_t chunk = lo; chunk < hi; chunk += kProbeChunkRows) {
          const size_t chunk_end = std::min(hi, chunk + kProbeChunkRows);
          queries.clear();
          tasks.clear();
          for (size_t i = chunk; i < chunk_end; ++i) {
            const size_t num_ranges =
                MapRangesToFiltered(view.frames[i], remap, ranges);
            const Index threshold =
                count_peers ? static_cast<Index>(codes[i] + 1) : codes[i];
            size_t frame_rows = 0;
            for (size_t r = 0; r < num_ranges; ++r) {
              frame_rows += ranges[r].size();
              queries.push_back({ranges[r].begin, ranges[r].end, threshold});
            }
            tasks.push_back({i, frame_rows, num_ranges});
          }
          counts.resize(queries.size());
          tree.CountLessBatch(queries, kProbeGroupSize, counts.data());
          size_t q = 0;
          for (const RowTask& task : tasks) {
            size_t count = 0;
            for (size_t r = 0; r < task.num_ranges; ++r) count += counts[q++];
            WriteRankResult(call, view.rows[task.view_index], count,
                            task.frame_rows, out);
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

}  // namespace
}  // namespace internal_window

Status EvalRankFunction(const PartitionView& view,
                        const WindowFunctionCall& call, Column* out) {
  return internal_window::DispatchIndexWidth(
      view.size(), view.options->force_index_width, [&](auto tag) {
        using Index = decltype(tag);
        return internal_window::EvalRankT<Index>(view, call, out);
      });
}

}  // namespace hwf
