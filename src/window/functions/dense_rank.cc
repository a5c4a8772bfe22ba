#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stop_token.h"
#include "mst/dense_rank_tree.h"
#include "mst/preprocess.h"
#include "mst/tree_cache.h"
#include "obs/profile.h"
#include "window/evaluator.h"
#include "window/functions/common.h"

namespace hwf {
namespace internal_window {
namespace {

/// The cacheable build product of DENSE_RANK: the FILTER remap, the dense
/// codes over all partition positions and the 3-d range tree over the
/// surviving positions' codes.
template <typename Index>
struct DenseRankArtifact {
  IndexRemap remap;
  std::vector<Index> codes;
  DenseRankTree<Index> tree;

  static DenseRankArtifact Build(const PartitionView& view,
                                 const WindowFunctionCall& call) {
    DenseRankArtifact result;
    const size_t n = view.size();
    result.remap = BuildCallRemap(view, call, /*drop_null_args=*/false);
    const size_t m = result.remap.num_surviving();
    const std::vector<SortKey> order = EffectiveOrder(*view.spec, call);
    // Dense-code construction is Algorithm 1 preprocessing (kPreprocess)
    // and the range tree times itself as kTreeBuild; kProbe then measures
    // the per-row distinct counts only.
    std::vector<Index> filtered_codes(m);
    {
      obs::ScopedPhaseTimer timer(view.options->profile,
                                  obs::ProfilePhase::kPreprocess);
      PreprocessRequest req;
      req.want_dense = true;
      result.codes =
          PreprocessOrder<Index>(view, order, IndexRemap::Identity(n), req)
              .dense_codes;
      for (size_t j = 0; j < m; ++j) {
        filtered_codes[j] = result.codes[result.remap.ToOriginal(j)];
      }
    }
    result.tree = DenseRankTree<Index>::Build(
        std::span<const Index>(filtered_codes), view.options->tree,
        *view.pool);
    return result;
  }

  static StatusOr<std::shared_ptr<const DenseRankArtifact>> Obtain(
      const PartitionView& view, const WindowFunctionCall& call) {
    if (view.cache == nullptr) {
      DenseRankArtifact built = Build(view, call);
      if (Status stop = CheckStop(); !stop.ok()) return stop;
      return std::make_shared<const DenseRankArtifact>(std::move(built));
    }
    const std::string key =
        view.cache_prefix + "|drank" +
        CallCacheKey(view, call, /*drop_null_args=*/false) + "|w" +
        std::to_string(sizeof(Index));
    return view.cache->GetOrBuild<DenseRankArtifact>(
        key, [&]() -> StatusOr<mst::TreeCache::Built<DenseRankArtifact>> {
          DenseRankArtifact built = Build(view, call);
          if (Status stop = CheckStop(); !stop.ok()) return stop;
          const size_t bytes = built.tree.MemoryUsageBytes() +
                               built.remap.ApproxBytes() +
                               built.codes.capacity() * sizeof(Index);
          return mst::TreeCache::Built<DenseRankArtifact>{
              std::make_shared<const DenseRankArtifact>(std::move(built)),
              bytes};
        });
  }
};

/// Framed DENSE_RANK (§4.4): count of distinct values ordered strictly
/// before the current row within the frame, plus one. Backed by the 3-d
/// range tree; exclusion clauses are rejected during validation.
template <typename Index>
Status EvalDenseRankT(const PartitionView& view,
                      const WindowFunctionCall& call, Column* out) {
  const size_t n = view.size();
  StatusOr<std::shared_ptr<const DenseRankArtifact<Index>>> artifact_or =
      DenseRankArtifact<Index>::Obtain(view, call);
  if (!artifact_or.ok()) return artifact_or.status();
  const IndexRemap& remap = (*artifact_or)->remap;
  const std::vector<Index>& codes = (*artifact_or)->codes;
  const DenseRankTree<Index>& tree = (*artifact_or)->tree;

  ParallelFor(
      0, n,
      [&](size_t lo, size_t hi) {
        RowRange ranges[FrameRanges::kMaxRanges];
        // Each chunk's distinct counts run through the range tree's
        // lockstep kernel (the chunk's queries descend the planes together).
        std::vector<typename DenseRankTree<Index>::DistinctQuery> queries;
        std::vector<size_t> rows;
        std::vector<size_t> smaller;
        for (size_t chunk = lo; chunk < hi; chunk += kProbeChunkRows) {
          const size_t chunk_end = std::min(hi, chunk + kProbeChunkRows);
          queries.clear();
          rows.clear();
          for (size_t i = chunk; i < chunk_end; ++i) {
            const size_t num_ranges =
                MapRangesToFiltered(view.frames[i], remap, ranges);
            HWF_CHECK_MSG(num_ranges <= 1,
                          "dense_rank does not support frame exclusion");
            if (num_ranges == 0) {
              out->SetInt64(view.rows[i], 1);
              continue;
            }
            queries.push_back(
                {ranges[0].begin, ranges[0].end, codes[i]});
            rows.push_back(view.rows[i]);
          }
          smaller.resize(queries.size());
          tree.CountDistinctLessBatch(queries, kProbeGroupSize, smaller.data());
          for (size_t q = 0; q < queries.size(); ++q) {
            out->SetInt64(rows[q], static_cast<int64_t>(smaller[q]) + 1);
          }
        }
      },
      *view.pool, view.options->morsel_size);
  return CheckStop();
}

}  // namespace
}  // namespace internal_window

Status EvalDenseRank(const PartitionView& view, const WindowFunctionCall& call,
                     Column* out) {
  return internal_window::DispatchIndexWidth(
      view.size(), view.options->force_index_width, [&](auto tag) {
        using Index = decltype(tag);
        return internal_window::EvalDenseRankT<Index>(view, call, out);
      });
}

}  // namespace hwf
