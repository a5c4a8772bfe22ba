#ifndef HWF_INGEST_MERGED_PROBE_H_
#define HWF_INGEST_MERGED_PROBE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stop_token.h"
#include "mst/merge_sort_tree.h"
#include "mst/remap.h"
#include "mst/tree_cache.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "window/evaluator.h"
#include "window/frame.h"
#include "window/functions/common.h"
#include "window/functions/selection.h"

namespace hwf {
namespace ingest {

/// Merged two-tree selection cursor for partitions that mix base and
/// freshly-appended (delta) rows.
///
/// A plain append would otherwise force an O(m log m) rebuild of the
/// partition's merge sort tree even though all but a few of its rows are
/// unchanged. Instead, when the pre-append base subset's SelectionTree is
/// still cached (under PartitionDelta::main_prefix — exact across appends
/// because the key pins the row-id set), we build only a small tree over
/// the delta rows plus three interleave arrays, and answer count/select
/// probes against both trees jointly:
///
///  - `dp[x]`     = how many of the first x combined filtered entries are
///                  delta rows. Splits any combined filtered range [lo,hi)
///                  into a main range [lo-dp[lo], hi-dp[hi]) and a delta
///                  range [dp[lo], dp[hi]) — counting needs no tree probes
///                  at all, just the range widths.
///  - `mrank[r]`  = how many delta entries precede the main entry of main
///                  function rank r in the combined function order, so the
///                  combined rank of main entry r is r + mrank[r] (strictly
///                  increasing in r — the pivot of the rank search below).
///  - `mf_to_cf` / `df_to_cf` map each side's local filtered positions to
///                  combined filtered positions.
///
/// Selecting the idx-th frame row in function order binary-searches the
/// smallest combined rank prefix holding idx+1 qualifying entries; each
/// probe splits the prefix across the trees via mrank (an inner binary
/// search) and sums two CountInKeyRange calls per frame range. That is
/// O(log^2) per select instead of the single tree's O(log), but it replaces
/// the O(m log m) rebuild with O(d log d + m) setup — the win the paper's
/// cost split predicts whenever the delta is small, which the compactor's
/// ratio bound guarantees.
///
/// Crossover policy: the scalar merged select never matches the batched
/// cascaded kernel's per-probe constants, so a workload that keeps
/// re-querying the SAME delta state would eventually be better served by
/// rebuilding the combined tree once and probing it warm. TryObtain
/// enforces that crossover — each cached cursor serves at most
/// kMaxServedQueries queries; past that it reports "no merged path" so the
/// caller's fallback performs the one-time combined rebuild (cheap by then:
/// the executor's delta-merge already cached the combined sort artifact),
/// and later queries find the combined tree first and never reach the
/// cursor again. Appends thus stay rebuild-free on the ingest path while
/// sustained re-querying re-amortizes to full batched-kernel speed.
///
/// Bit-identity with the cold rebuild: the gate below admits only the
/// fused encoded ordering, where function order is (null rank, encoded
/// key, filtered position). Base and delta filtered positions are monotone
/// subsequences of the combined filtered positions, so merging the two
/// sides by (encoded key, combined filtered position) reproduces the cold
/// fused order entry-for-entry — every select returns the exact row the
/// rebuilt tree would have returned, ties included.
template <typename Index>
struct MergedSelection {
  using SelTree = internal_window::SelectionTree<Index>;

  std::shared_ptr<const SelTree> main;   // Cached base-subset tree.
  std::shared_ptr<const SelTree> delta;  // Fresh tree over the delta rows.
  IndexRemap remap;                      // Combined FILTER / null-drop remap.
  std::vector<Index> dp;                 // Size m+1 (m = combined filtered).
  std::vector<Index> mrank;              // Size main_m+1.
  std::vector<Index> mf_to_cf;           // Main-local filtered -> combined.
  std::vector<Index> df_to_cf;           // Delta-local filtered -> combined.

  /// Queries served by this cursor (see the crossover policy above). Held
  /// behind a shared_ptr so the struct stays movable; relaxed ordering is
  /// enough — the count only steers a heuristic.
  std::shared_ptr<std::atomic<uint32_t>> served =
      std::make_shared<std::atomic<uint32_t>>(0);

  /// Queries a cached cursor serves before TryObtain redirects callers to
  /// the combined rebuild. Covers the first post-append query plus a couple
  /// of immediate repeats — enough that an append/query/append/query stream
  /// never rebuilds, while a repeat-heavy stream converges after three.
  static constexpr uint32_t kMaxServedQueries = 3;

  size_t combined_filtered() const {
    return mf_to_cf.size() + df_to_cf.size();
  }

  /// A frame's filtered ranges, pre-split into per-tree coordinates.
  struct Ranges {
    KeyRange<Index> main[FrameRanges::kMaxRanges];
    KeyRange<Index> delta[FrameRanges::kMaxRanges];
    size_t count = 0;
  };

  /// Maps the frame of one position to split key ranges. `*total` receives
  /// the number of qualifying rows (range widths — no probes).
  size_t MapKeyRanges(const FrameRanges& frames, Ranges* out,
                      size_t* total) const {
    RowRange mapped[FrameRanges::kMaxRanges];
    const size_t count = hwf::MapRangesToFiltered(
        frames, remap, mapped);
    size_t rows = 0;
    for (size_t r = 0; r < count; ++r) {
      const size_t lo = mapped[r].begin;
      const size_t hi = mapped[r].end;
      out->main[r] = KeyRange<Index>{static_cast<Index>(lo - dp[lo]),
                                     static_cast<Index>(hi - dp[hi])};
      out->delta[r] = KeyRange<Index>{dp[lo], dp[hi]};
      rows += hi - lo;
    }
    out->count = count;
    *total = rows;
    return count;
  }

  /// Number of main entries whose combined function rank is < g.
  size_t MainBelow(size_t g) const {
    size_t lo = 0;
    size_t hi = mf_to_cf.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (mid + static_cast<size_t>(mrank[mid]) < g) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Number of qualifying entries with combined function rank < g.
  size_t CountBelow(const Ranges& ranges, size_t g) const {
    const size_t r = MainBelow(g);
    const size_t t = g - r;
    size_t count = 0;
    for (size_t i = 0; i < ranges.count; ++i) {
      count += main->tree.CountInKeyRange(0, r, ranges.main[i].lo,
                                          ranges.main[i].hi);
      count += delta->tree.CountInKeyRange(0, t, ranges.delta[i].lo,
                                           ranges.delta[i].hi);
    }
    return count;
  }

  /// The original partition position of the idx-th (0-based, combined
  /// function order) frame row. Requires idx < total.
  size_t SelectPosition(const Ranges& ranges, size_t idx) const {
    // Smallest combined rank prefix containing idx+1 qualifying entries;
    // the entry at combined rank g-1 is then the idx-th qualifier.
    size_t glo = 1;
    size_t ghi = combined_filtered();
    while (glo < ghi) {
      const size_t mid = glo + (ghi - glo) / 2;
      if (CountBelow(ranges, mid) >= idx + 1) {
        ghi = mid;
      } else {
        glo = mid + 1;
      }
    }
    const size_t answer_rank = glo - 1;
    const size_t r = MainBelow(answer_rank);
    if (r < mf_to_cf.size() &&
        r + static_cast<size_t>(mrank[r]) == answer_rank) {
      // The entry at the answer rank is main entry r.
      const size_t local = static_cast<size_t>(main->tree.KeyAt(r));
      return remap.ToOriginal(static_cast<size_t>(mf_to_cf[local]));
    }
    const size_t t = answer_rank - r;
    const size_t local = static_cast<size_t>(delta->tree.KeyAt(t));
    return remap.ToOriginal(static_cast<size_t>(df_to_cf[local]));
  }

  /// Obtains the merged cursor for this (partition, call), or nullptr when
  /// the merged path does not apply — no delta census, cache disabled, the
  /// base tree is not cached (cold start), a non-encoded ordering, or an
  /// index-width mismatch. Callers fall back to SelectionTree::Obtain,
  /// which rebuilds over the full partition and caches under the combined
  /// content key.
  static StatusOr<std::shared_ptr<const MergedSelection>> TryObtain(
      const PartitionView& view, const WindowFunctionCall& call,
      bool drop_null_args) {
    using internal_window::PositionLess;
    std::shared_ptr<const MergedSelection> none;
    if (view.delta == nullptr || view.cache == nullptr) return none;

    const std::string call_key =
        hwf::CallCacheKey(view, call, drop_null_args) + "|w" +
        std::to_string(sizeof(Index));
    // Once some query has crossed the rebuild threshold the combined-state
    // tree is cached; probing it through the batched kernel beats any
    // merged select, so the cursor steps aside for good at this state.
    if (view.cache->template Get<SelTree>(view.cache_prefix + "|sel" +
                                          call_key) != nullptr) {
      return none;
    }
    const std::string merged_key = view.cache_prefix + "|mergedsel" + call_key;
    if (std::shared_ptr<const MergedSelection> hit =
            view.cache->template Get<MergedSelection>(merged_key)) {
      if (hit->served->fetch_add(1, std::memory_order_relaxed) + 1 >=
          kMaxServedQueries) {
        return none;  // Crossover: let the caller rebuild the combined tree.
      }
      return hit;
    }
    std::shared_ptr<const SelTree> main_tree =
        view.cache->template Get<SelTree>(view.delta->main_prefix + "|sel" +
                                          call_key);
    if (main_tree == nullptr) return none;

    const std::vector<SortKey> order =
        hwf::EffectiveOrder(*view.spec, call);
    MergedSelection ms;
    ms.main = std::move(main_tree);
    std::vector<size_t> delta_rows;
    std::optional<PositionLess> less;
    {
      obs::ScopedPhaseTimer timer(view.options->profile,
                                  obs::ProfilePhase::kPreprocess);
      less.emplace(&view, order);
      if (!less->encoded()) return none;

      // One partition-order pass: classify rows, build dp and the
      // local-to-combined filtered position maps.
      ms.remap = hwf::BuildCallRemap(view, call, drop_null_args);
      const size_t n = view.size();
      const size_t m = ms.remap.num_surviving();
      const size_t base_limit = view.delta->base_rows;
      ms.dp.resize(m + 1);
      delta_rows.reserve(view.delta->delta_in_partition);
      size_t cf = 0;
      Index delta_seen = 0;
      for (size_t p = 0; p < n; ++p) {
        const bool is_delta = view.rows[p] >= base_limit;
        if (is_delta) delta_rows.push_back(view.rows[p]);
        if (!ms.remap.Included(p)) continue;
        ms.dp[cf] = delta_seen;
        if (is_delta) {
          ms.df_to_cf.push_back(static_cast<Index>(cf));
          ++delta_seen;
        } else {
          ms.mf_to_cf.push_back(static_cast<Index>(cf));
        }
        ++cf;
      }
      HWF_DCHECK(cf == m);
      ms.dp[m] = delta_seen;
      // The base state filtered the exact same base rows, so its tree must
      // hold exactly our main-side survivors; anything else means the
      // cached artifact is not the base subset we think it is.
      if (ms.main->tree.size() != ms.mf_to_cf.size()) return none;
    }
    if (Status stop = CheckStop(); !stop.ok()) return stop;

    // Build the delta side-tree through the regular machinery over a
    // delta-only sub-view (charges its own kPreprocess / kTreeBuild; its
    // remap re-applies the FILTER to just the delta rows, and its function
    // order restricted to the delta matches the combined order's).
    PartitionView dview = view;
    dview.rows = std::span<const size_t>(delta_rows);
    dview.frames = {};
    dview.cache = nullptr;
    dview.cache_prefix.clear();
    dview.delta = nullptr;
    SelTree delta_built = SelTree::Build(dview, call, drop_null_args);
    if (Status stop = CheckStop(); !stop.ok()) return stop;
    ms.delta = std::make_shared<const SelTree>(std::move(delta_built));
    if (ms.delta->tree.size() != ms.df_to_cf.size()) return none;

    {
      obs::ScopedPhaseTimer timer(view.options->profile,
                                  obs::ProfilePhase::kPreprocess);
      // Interleave the two sides' function orders into mrank. Both sides
      // visit strictly increasing (null rank, encoded key, combined
      // filtered position) triples, so a single merge pass suffices; the
      // filtered-position tiebreak reproduces the fused cold order exactly.
      const size_t mm = ms.mf_to_cf.size();
      const size_t dd = ms.df_to_cf.size();
      auto key_of = [&](Index cf_pos) {
        const size_t p = ms.remap.ToOriginal(static_cast<size_t>(cf_pos));
        const std::pair<uint8_t, uint64_t> ek = less->EncodedKey(p);
        return std::make_tuple(ek.first, ek.second, cf_pos);
      };
      ms.mrank.resize(mm + 1);
      size_t t = 0;
      for (size_t r = 0; r < mm; ++r) {
        const auto main_key =
            key_of(ms.mf_to_cf[static_cast<size_t>(ms.main->tree.KeyAt(r))]);
        while (t < dd &&
               key_of(ms.df_to_cf[static_cast<size_t>(
                   ms.delta->tree.KeyAt(t))]) < main_key) {
          ++t;
        }
        ms.mrank[r] = static_cast<Index>(t);
        if ((r & 0x3FFF) == 0) {
          if (Status stop = CheckStop(); !stop.ok()) return stop;
        }
      }
      ms.mrank[mm] = static_cast<Index>(dd);
    }

    // The shared main tree is accounted for by its own cache entry; charge
    // only the delta side and the interleave arrays here.
    const size_t bytes =
        (ms.dp.capacity() + ms.mrank.capacity() + ms.mf_to_cf.capacity() +
         ms.df_to_cf.capacity()) *
            sizeof(Index) +
        ms.remap.ApproxBytes() + ms.delta->tree.MemoryUsageBytes() +
        ms.delta->remap.ApproxBytes();
    std::shared_ptr<const MergedSelection> built =
        std::make_shared<const MergedSelection>(std::move(ms));
    view.cache->template Put<MergedSelection>(merged_key, {built, bytes});
    built->served->store(1, std::memory_order_relaxed);  // This query.
    obs::Add(obs::Counter::kIngestMergedCursorBuilds);
    return built;
  }
};

}  // namespace ingest
}  // namespace hwf

#endif  // HWF_INGEST_MERGED_PROBE_H_
