#ifndef HWF_MST_MERGE_SORT_TREE_H_
#define HWF_MST_MERGE_SORT_TREE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/search.h"
#include "mem/memory_budget.h"
#include "mem/spill_file.h"
#include "mem/spillable_vector.h"
#include "mst/loser_tree.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace hwf {

/// Tuning parameters of a merge sort tree (paper §5.1, §6.6).
struct MergeSortTreeOptions {
  /// Fanout f: each tree level merges `fanout` runs of the level below.
  /// Larger fanouts shrink the tree height (and thus memory) exponentially
  /// at the cost of more binary searches per level.
  size_t fanout = 32;

  /// Sampling interval k: only every k-th element of a level is annotated
  /// with fractional-cascading pointers. Larger k reduces memory bandwidth
  /// pressure; between samples the query re-searches a window of at most k
  /// elements, which keeps per-level work O(1) for constant k.
  size_t sampling = 32;

  /// Disables fractional cascading entirely (every child run is located via
  /// a full binary search). Only used by the ablation benchmark; turns the
  /// O(n log n) query phase into O(n log² n) as discussed in §4.2.
  bool use_cascading = true;

  /// When non-null, the build reports into this profile: per-level
  /// wall-clock seconds via AddTreeLevelSeconds (index 0 = level 1 and so
  /// on, accumulating across multiple builds) and the kTreeBuild phase
  /// total. The window executor points this at the profile handed to it via
  /// WindowExecutorOptions; benchmarks attach their own.
  obs::ExecutionProfile* profile = nullptr;

  /// Memory governance. When `mem.budget` is set, every level's data and
  /// cascade bytes are reserved against it; when `mem.can_spill()`, the
  /// build evicts completed lower levels to a spill file whenever the next
  /// level's allocation would not fit, and probes re-materialize evicted
  /// entries page-wise through the thread-local spill cache (at most one
  /// page read per level per probe — the cascading windows never span a
  /// page more than once). The level currently being merged from and the
  /// top level are never evicted.
  mem::MemoryContext mem{};
};

/// A half-open key interval [lo, hi) used in tree queries.
template <typename Index>
struct KeyRange {
  Index lo;
  Index hi;
};

/// Queries the window-function evaluators keep in flight per batched probe
/// (the `group_size` of SelectBatch / CountLessBatch / VisitCountCoverBatch).
/// Each descent is a chain of dependent cache misses; throughput saturates
/// around the line-fill-buffer depth (10-16 on most cores).
inline constexpr size_t kProbeGroupSize = 16;

namespace internal_mst {

/// Merges `num_children` sorted child runs into `out`, breaking key ties by
/// child index (which equals position order, making every level a stable
/// sort of level 0). When `cascade_out` is non-null, the current child
/// offsets are recorded every `sampling` output elements. When `kHasPayload`,
/// payload values travel with their keys.
///
/// To merge one CHUNK of a larger run in parallel (§5.2 upper-level
/// strategy), pass the chunk's starting position within the run as
/// `out_offset` and the per-child starting offsets (from MultiwaySelect)
/// as `start_offsets`; `out`/`cascade_out` still point at the run start.
///
/// Applies the small-arity fast paths of the loser-tree kernel:
///   - `leaf_children` (level 1, every child a single element): merging is
///     sorting — std::copy + std::sort for plain keys, an index sort with
///     payload gather otherwise. Level 1 never carries cascade pointers.
///   - 1 and 2 children: straight copy / branchless 2-way merge inside
///     MergeRunLoserTree.
template <typename Index, typename Payload, bool kHasPayload>
void MergeRunDispatch(bool leaf_children,
                      MergeScratch<Index, Payload>& scratch,
                      const Index* const* child_data, const size_t* child_lens,
                      size_t num_children, Index* out, size_t out_len,
                      Index* cascade_out, size_t sampling, size_t fanout,
                      const Payload* const* child_payload,
                      Payload* out_payload, size_t out_offset = 0,
                      const size_t* start_offsets = nullptr) {
  if (leaf_children && start_offsets == nullptr && cascade_out == nullptr) {
    if constexpr (kHasPayload) {
      // Sort a permutation by (key, child index) — the stable merge order —
      // then gather keys and payloads through it.
      std::vector<uint32_t>& idx = scratch.sort_idx;
      idx.resize(out_len);
      for (size_t i = 0; i < out_len; ++i) idx[i] = static_cast<uint32_t>(i);
      std::sort(idx.begin(), idx.end(), [&](uint32_t x, uint32_t y) {
        const Index kx = child_data[x][0];
        const Index ky = child_data[y][0];
        if (kx != ky) return kx < ky;
        return x < y;
      });
      for (size_t o = 0; o < out_len; ++o) {
        out[o] = child_data[idx[o]][0];
        out_payload[o] = child_payload[idx[o]][0];
      }
    } else {
      // Leaf children are adjacent elements of the source level, so child 0
      // points at a contiguous block of out_len keys.
      std::copy(child_data[0], child_data[0] + out_len, out);
      std::sort(out, out + out_len);
    }
    return;
  }
  MergeRunLoserTree<Index, Payload, kHasPayload>(
      scratch, child_data, child_lens, num_children, out, out_len, cascade_out,
      sampling, fanout, child_payload, out_payload, out_offset, start_offsets);
}

/// Computes, for each child run, the input offset at which the k-th output
/// element of the (tie-by-child-index) merge is produced — the balanced
/// multiway merge split of Francis et al. [18] (§5.2). Exploits that keys
/// are integers: binary search over the key domain, then distribute the
/// elements equal to the split key to the children in index order.
template <typename Index>
void MultiwaySelect(const Index* const* child_data, const size_t* child_lens,
                    size_t num_children, size_t k, size_t* offsets_out) {
  auto count_less = [&](Index v) {
    size_t count = 0;
    for (size_t c = 0; c < num_children; ++c) {
      count += BranchlessLowerBound(child_data[c], child_lens[c], v);
    }
    return count;
  };
  // Clamp the binary search to the actual [min, max] key range of the
  // children instead of the full Index domain: count_less is 0 below the
  // minimum and the split key never exceeds the maximum (for k < total),
  // so the clamped search finds the same key in ~log(range) instead of
  // 32/64 iterations, each of which costs f binary searches.
  size_t total = 0;
  Index min_first = std::numeric_limits<Index>::max();
  Index max_last = 0;
  for (size_t c = 0; c < num_children; ++c) {
    if (child_lens[c] == 0) continue;
    min_first = std::min(min_first, child_data[c][0]);
    max_last = std::max(max_last, child_data[c][child_lens[c] - 1]);
    total += child_lens[c];
  }
  HWF_DCHECK(k <= total);
  if (k >= total) {
    for (size_t c = 0; c < num_children; ++c) offsets_out[c] = child_lens[c];
    return;
  }
  // Largest key v with count_less(v) <= k.
  Index lo = min_first;
  Index hi = max_last;
  while (lo < hi) {
    const Index mid = lo + (hi - lo) / 2 + 1;  // Round up: search for max.
    if (count_less(mid) <= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const Index split_key = lo;
  size_t remaining = k;
  for (size_t c = 0; c < num_children; ++c) {
    offsets_out[c] =
        BranchlessLowerBound(child_data[c], child_lens[c], split_key);
    remaining -= offsets_out[c];
  }
  // Distribute the elements equal to split_key in child-index order, the
  // same order the tie-breaking merge emits them.
  for (size_t c = 0; c < num_children && remaining > 0; ++c) {
    const size_t eq =
        BranchlessUpperBound(child_data[c] + offsets_out[c],
                             child_lens[c] - offsets_out[c], split_key);
    const size_t take = std::min(remaining, eq);
    offsets_out[c] += take;
    remaining -= take;
  }
  HWF_DCHECK(remaining == 0);
}

}  // namespace internal_mst

/// The paper's merge sort tree (§4): a static index over an integer array
/// that answers two-dimensional range queries.
///
/// Level 0 stores the input array in its original ("frame") order; level ℓ
/// stores the same values as sorted runs of length fanout^ℓ, exactly the
/// intermediate state of a bottom-up merge sort. Fractional-cascading
/// pointers recorded during the merges let a query reuse one top-level
/// binary search across all levels.
///
/// Two query shapes cover all framed holistic aggregates:
///   - CountLess(pos_lo, pos_hi, t): how many entries within a position
///     range have a key < t. Drives COUNT(DISTINCT), RANK, ROW_NUMBER,
///     CUME_DIST etc. (§4.2, §4.4).
///   - Select(key_ranges, i): the i-th position (left to right) whose key
///     falls into the given key ranges. Drives percentiles, NTH_VALUE,
///     LEAD/LAG (§4.5, §4.6).
///
/// Index is uint32_t or uint64_t; the caller picks the narrowest type that
/// fits the partition size (§5.1). Keys must be <= max(Index).
template <typename Index>
class MergeSortTree {
 public:
  using Options = MergeSortTreeOptions;

  MergeSortTree() = default;

  /// Builds the tree over `keys` (consumed). O(n log n) time; the merge of
  /// each output run is an independent task executed on `pool`.
  static MergeSortTree Build(std::vector<Index> keys,
                             const Options& options = {},
                             ThreadPool& pool = ThreadPool::Default()) {
    return BuildWithPayload<char>(std::move(keys), options, pool, nullptr,
                                  nullptr);
  }

  /// Like Build, but additionally permutes `payload` (one value per key)
  /// alongside the keys of every level: on return, (*level_payloads)[ℓ][i]
  /// is the payload of key level ℓ position i. Used by the aggregate-
  /// annotated tree (§4.3). `level_payloads` may be null.
  template <typename Payload>
  static MergeSortTree BuildWithPayload(
      std::vector<Index> keys, const Options& options, ThreadPool& pool,
      std::vector<Payload>* payload,
      std::vector<std::vector<Payload>>* level_payloads);

  /// Number of entries in the tree.
  size_t size() const { return n_; }

  /// Entry `i` of the level-0 array (input order). Spill-aware: resident
  /// level 0 is a plain vector index, an evicted level 0 costs at most one
  /// page read through the thread-local spill cache.
  Index KeyAt(size_t i) const { return levels_.front().data.Get(i); }

  /// Hints that KeyAt(i) is about to be called: prefetches the resident
  /// cache line, or warms the spill page when level 0 is evicted.
  void PrefetchKey(size_t i) const { levels_.front().data.PrefetchElement(i); }

  /// Copies level-0 entries [lo, hi) into `out` (bulk, page-at-a-time when
  /// spilled — for sequential consumers like LEAD/LAG's rank scan).
  void CopyKeys(size_t lo, size_t hi, Index* out) const {
    levels_.front().data.ReadRange(lo, hi, out);
  }

  /// Bytes held in RAM by all levels including cascading pointers.
  size_t MemoryUsageBytes() const;

  /// Bytes of levels currently evicted to the spill file.
  size_t SpilledBytes() const;

  /// Number of levels (including level 0).
  size_t num_levels() const { return levels_.size(); }

  /// Read-only access to a level's concatenated run data (tests/debugging).
  /// Resident levels only — budgeted trees may have evicted lower levels.
  const std::vector<Index>& level_data(size_t level) const {
    HWF_CHECK(level < levels_.size());
    return levels_[level].data.Vector();
  }

  /// Counts entries at positions [pos_lo, pos_hi) with key < threshold.
  /// O(f·log n) with cascading, O(f·log² n) without.
  size_t CountLess(size_t pos_lo, size_t pos_hi, Index threshold) const {
    size_t count = 0;
    VisitCountCover(pos_lo, pos_hi, threshold,
                    [&count](size_t /*level*/, size_t /*run_begin*/,
                             size_t count_in_run) { count += count_in_run; });
    return count;
  }

  /// Counts entries at positions [pos_lo, pos_hi) with key in [klo, khi).
  size_t CountInKeyRange(size_t pos_lo, size_t pos_hi, Index klo,
                         Index khi) const {
    if (klo >= khi) return 0;
    return CountLess(pos_lo, pos_hi, khi) - CountLess(pos_lo, pos_hi, klo);
  }

  /// Visits the canonical cover of the CountLess query: calls
  /// `visit(level, run_begin, count)` for every covered run piece, where
  /// `count` entries at global positions [run_begin, run_begin + count)
  /// within the run's sorted data have keys < threshold. Summing the counts
  /// yields CountLess; the annotated tree uses the (level, run_begin,
  /// count) triples to look up prefix aggregates.
  template <typename Visitor>
  void VisitCountCover(size_t pos_lo, size_t pos_hi, Index threshold,
                       Visitor&& visit) const;

  /// Maximum number of disjoint key ranges a Select query may carry.
  static constexpr size_t kSelectMaxRanges = 8;

  /// Top-level descent state shared between CountKeysInRanges and Select
  /// calls over the same ranges. Both queries start with one lower-bound
  /// bisection of the fully-sorted top run per range boundary; a row that
  /// counts its frame and then selects into it (percentile, value
  /// functions) pays those ~2·log n dependent cache misses once instead of
  /// twice by threading a cursor through the pair of calls.
  struct ProbeCursor {
    bool valid = false;
    size_t pos_lo[kSelectMaxRanges];
    size_t pos_hi[kSelectMaxRanges];
  };

  /// Counts entries (over all positions) whose key lies in any of `ranges`.
  /// The ranges must be disjoint. O(log n) per range. When `cursor` is
  /// non-null the per-range top positions are recorded (or reused when
  /// already valid) so a following Select skips its top-level searches.
  size_t CountKeysInRanges(std::span<const KeyRange<Index>> ranges,
                           ProbeCursor* cursor = nullptr) const;

  /// Returns the position of the i-th entry (0-based, scanning positions
  /// left to right) whose key lies in any of `ranges` (disjoint). Requires
  /// i < CountKeysInRanges(ranges). O(f·log n) with cascading. A valid
  /// `cursor` (from CountKeysInRanges or a prior Select over the same
  /// ranges) skips the top-level bisections; an invalid one is filled.
  size_t Select(std::span<const KeyRange<Index>> ranges, size_t i,
                ProbeCursor* cursor = nullptr) const;

  /// Convenience: Select with a single key range.
  size_t Select(Index key_lo, Index key_hi, size_t i) const {
    KeyRange<Index> range{key_lo, key_hi};
    return Select(std::span<const KeyRange<Index>>(&range, 1), i);
  }

  // --- Batched probe kernel (probe_batch.h) ------------------------------

  /// One Select query of a batch: the `rank`-th entry whose key lies in
  /// ranges[range_begin, range_begin + num_ranges) of the shared range
  /// pool. Queries may share range pool entries.
  struct SelectQuery {
    uint32_t range_begin;
    uint32_t num_ranges;
    size_t rank;
  };

  /// One CountLess / cover query of a batch: entries at positions
  /// [pos_lo, pos_hi) with key < threshold.
  struct CountQuery {
    size_t pos_lo;
    size_t pos_hi;
    Index threshold;
  };

  /// Batched Select: out[q] = Select(ranges of queries[q], queries[q].rank)
  /// for every q, bit-identical to the scalar path. Up to `group_size`
  /// queries are walked through the tree in lockstep (AMAC-style state
  /// machine): each round advances every in-flight query by one level and
  /// prefetches its next level's cascade/data cache lines before any of
  /// them is touched; retired queries are backfilled from the batch.
  void SelectBatch(std::span<const KeyRange<Index>> range_pool,
                   std::span<const SelectQuery> queries, size_t group_size,
                   size_t* out) const;

  /// Batched CountLess: out[q] = CountLess(queries[q]). Same lockstep
  /// group-prefetching machinery as SelectBatch.
  void CountLessBatch(std::span<const CountQuery> queries, size_t group_size,
                      size_t* out) const;

  /// Batched VisitCountCover: invokes visit(q, level, run_begin, count) for
  /// every covered run piece of every query — per query in exactly the
  /// order the scalar VisitCountCover emits (the annotated tree's
  /// floating-point merges depend on it), though queries retire
  /// interleaved. All of a query's pieces are delivered consecutively when
  /// it retires.
  template <typename Visitor>
  void VisitCountCoverBatch(std::span<const CountQuery> queries,
                            size_t group_size, Visitor&& visit) const;

 private:
  struct Level {
    /// All runs of this level, concatenated; size n. Spillable: lower
    /// levels of a budgeted tree may live in the spill file.
    mem::SpillableVector<Index> data;
    /// Cascading pointers: for every run, for sample s (output offset s·k),
    /// `fanout` child offsets. Runs are strided by samples_per_full_run.
    /// Empty for levels 0 and 1 and when cascading is disabled. Evicted
    /// together with `data` (at f = k they are the same order of size).
    mem::SpillableVector<Index> cascade;
    /// Run length fanout^level (last run may be shorter).
    size_t run_len = 1;
    /// Cascade samples per full run: floor((run_len-1)/k) + 1.
    size_t samples_per_full_run = 0;
  };

  /// Number of cascade samples for a run of `len` entries.
  size_t SamplesForLen(size_t len) const {
    return (len - 1) / opts_.sampling + 1;
  }

  /// Lower-bound position of `t` in the (single, fully sorted) top run.
  /// The top level is never evicted, so this is always a resident search.
  size_t TopLowerBoundImpl(Index t) const {
    return levels_.back().data.LowerBound(0, n_, t);
  }

  /// Evicts the lowest resident level with index <= `max_level` (data +
  /// cascade) to the spill file. Returns false when nothing is evictable.
  bool EvictOneLevel(size_t max_level) {
    if (spill_file_ == nullptr) {
      StatusOr<std::unique_ptr<mem::SpillFile>> file =
          mem::SpillFile::Create();
      if (!file.ok()) return false;
      spill_file_ = std::move(file).value();
    }
    for (size_t l = 0; l <= max_level && l < levels_.size(); ++l) {
      Level& level = levels_[l];
      if (level.data.spilled() || level.data.empty()) continue;
      obs::ScopedPhaseTimer spill_timer(opts_.mem.profile,
                                        obs::ProfilePhase::kSpill);
      if (!level.data.Spill(spill_file_.get()).ok()) return false;
      // Cascade eviction failing after data eviction is fine: probes
      // handle mixed residency per vector.
      (void)level.cascade.Spill(spill_file_.get());
      obs::Add(obs::Counter::kMemMstLevelsEvicted);
      return true;
    }
    return false;
  }

  /// Sheds completed levels (lowest first, up to `max_level`) until the
  /// budget could grant `need_bytes` more. Best-effort: when nothing is
  /// left to evict the caller proceeds with ForceReserve and the overshoot
  /// shows up in the forced-over-budget counter.
  void EnsureRoom(size_t need_bytes, size_t max_level) {
    if (!opts_.mem.can_spill()) return;
    while (opts_.mem.budget->available_bytes() < need_bytes) {
      if (!EvictOneLevel(max_level)) break;
    }
  }

  /// Given the lower-bound position `p` of `t` within the run of `level`
  /// starting at `run_begin` (actual length `run_len_actual`), returns the
  /// lower-bound position of `t` within child `child` of that run
  /// (relative to the child run start). Uses the fractional-cascading
  /// window when available, a full binary search otherwise.
  size_t CascadeToChild(size_t level, size_t run_begin, size_t run_len_actual,
                        size_t p, Index t, size_t child,
                        size_t child_len) const;

  /// Recursive worker for VisitCountCover. [lo, hi) is clamped to the run.
  template <typename Visitor>
  void VisitCountCoverInRun(size_t level, size_t run_begin,
                            size_t run_len_actual, size_t p, Index t,
                            size_t lo, size_t hi, Visitor& visit) const;

  /// Shared lockstep worker behind CountLessBatch / VisitCountCoverBatch
  /// (probe_batch.h). The emitter receives the cover pieces.
  template <typename Emitter>
  void RunCountCoverBatch(std::span<const CountQuery> queries,
                          size_t group_size, Emitter& emitter) const;

  size_t n_ = 0;
  Options opts_;
  std::vector<Level> levels_;
  /// Shared destination of all evicted levels; created on first eviction.
  std::unique_ptr<mem::SpillFile> spill_file_;
};

// ---------------------------------------------------------------------------
// Implementation.
// ---------------------------------------------------------------------------

template <typename Index>
template <typename Payload>
MergeSortTree<Index> MergeSortTree<Index>::BuildWithPayload(
    std::vector<Index> keys, const Options& options, ThreadPool& pool,
    std::vector<Payload>* payload,
    std::vector<std::vector<Payload>>* level_payloads) {
  HWF_CHECK(options.fanout >= 2);
  HWF_CHECK(options.sampling >= 1);
  const bool has_payload = payload != nullptr;
  HWF_CHECK(!has_payload || payload->size() == keys.size());
  MergeSortTree tree;
  tree.n_ = keys.size();
  tree.opts_ = options;
  mem::MemoryBudget* budget = options.mem.budget;
  {
    Level level0;
    level0.run_len = 1;
    level0.data.Attach(budget);
    level0.data.AssignResident(std::move(keys));
    tree.levels_.push_back(std::move(level0));
  }
  if (has_payload && level_payloads != nullptr) {
    level_payloads->clear();
    level_payloads->push_back(std::move(*payload));
  }
  const size_t n = tree.n_;
  if (n <= 1) return tree;

  HWF_TRACE_SCOPE_ARG("mst.build", "n", n);
  const size_t f = options.fanout;
  const size_t k = options.sampling;
  // Per-level wall timing only runs when someone consumes it: a profile is
  // attached or spans are being recorded.
  const bool time_levels =
      options.profile != nullptr || obs::Tracer::IsEnabled();
  size_t child_run_len = 1;
  while (child_run_len < n) {
    std::chrono::steady_clock::time_point level_start;
    if (time_levels) level_start = std::chrono::steady_clock::now();
    const size_t run_len = child_run_len * f;
    const size_t level = tree.levels_.size();
    HWF_TRACE_SCOPE_ARG("mst.build_level", "level", level);
    const bool want_cascade = options.use_cascading && level >= 2;
    Level out;
    out.run_len = run_len;
    const size_t num_runs = (n + run_len - 1) / run_len;
    size_t cascade_elems = 0;
    if (want_cascade) {
      out.samples_per_full_run = tree.SamplesForLen(std::min(run_len, n));
      // The last (possibly short) run still reserves a full stride; the
      // surplus slots are never read.
      cascade_elems = num_runs * out.samples_per_full_run * f;
    }
    // Make room for this level under the budget by evicting completed
    // levels below the merge source (level - 2 and down). The source level
    // must stay resident — it is being read by every merge task.
    {
      size_t need = (n + cascade_elems) * sizeof(Index);
      if (has_payload) need += n * sizeof(Payload);
      if (level >= 2) tree.EnsureRoom(need, level - 2);
    }
    out.data.Attach(budget);
    out.data.ResizeResident(n);
    out.cascade.Attach(budget);
    if (want_cascade) out.cascade.ResizeResident(cascade_elems);
    std::vector<Payload> out_payload;
    const Payload* src_payload_data = nullptr;
    if (has_payload) {
      out_payload.resize(n);
      src_payload_data = (*level_payloads)[level - 1].data();
    }
    const Level& src = tree.levels_.back();
    const size_t parallelism = static_cast<size_t>(pool.parallelism());
    const bool leaf_children = child_run_len == 1;
    if (num_runs >= parallelism || pool.num_workers() == 0) {
      // Lower levels: many independent runs — one task merges whole runs
      // (§5.2 lower-level strategy). All scratch (child descriptors plus
      // the loser tree's node arrays) lives per task and is reused across
      // every run the task claims.
      ParallelFor(
          0, num_runs,
          [&](size_t run_lo, size_t run_hi) {
            MergeScratch<Index, Payload> scratch;
            scratch.child_data.resize(f);
            scratch.child_lens.resize(f);
            scratch.child_payload.resize(has_payload ? f : 0);
            for (size_t r = run_lo; r < run_hi; ++r) {
              const size_t begin = r * run_len;
              const size_t end = std::min(n, begin + run_len);
              size_t num_children = 0;
              for (size_t c = 0; c < f; ++c) {
                const size_t cb = begin + c * child_run_len;
                if (cb >= end) break;
                const size_t ce = std::min(end, cb + child_run_len);
                scratch.child_data[num_children] = src.data.ResidentData() + cb;
                scratch.child_lens[num_children] = ce - cb;
                if (has_payload) {
                  scratch.child_payload[num_children] = src_payload_data + cb;
                }
                ++num_children;
              }
              Index* cascade_out =
                  want_cascade
                      ? out.cascade.MutableData() + r * out.samples_per_full_run * f
                      : nullptr;
              if (has_payload) {
                internal_mst::MergeRunDispatch<Index, Payload, true>(
                    leaf_children, scratch, scratch.child_data.data(),
                    scratch.child_lens.data(), num_children,
                    out.data.MutableData() + begin, end - begin, cascade_out, k, f,
                    scratch.child_payload.data(), out_payload.data() + begin);
              } else {
                internal_mst::MergeRunDispatch<Index, Payload, false>(
                    leaf_children, scratch, scratch.child_data.data(),
                    scratch.child_lens.data(), num_children,
                    out.data.MutableData() + begin, end - begin, cascade_out, k, f,
                    nullptr, nullptr);
              }
            }
          },
          pool, /*morsel_size=*/1);
    } else {
      // Upper levels: fewer runs than workers — threads collaborate on
      // each run by merging co-selected chunks (§5.2 upper-level
      // strategy, balanced splits via MultiwaySelect). Chunk scratch is
      // hoisted out of the run loop: chunk slot `i` is only ever used by
      // one in-flight task at a time (runs are processed sequentially).
      std::vector<MergeScratch<Index, Payload>> chunk_scratch(parallelism);
      std::vector<std::vector<size_t>> chunk_offsets(parallelism);
      std::vector<const Index*> child_data(f);
      std::vector<size_t> child_lens(f);
      std::vector<const Payload*> child_payload(has_payload ? f : 0);
      for (size_t r = 0; r < num_runs; ++r) {
        const size_t begin = r * run_len;
        const size_t end = std::min(n, begin + run_len);
        const size_t run_actual = end - begin;
        size_t num_children = 0;
        for (size_t c = 0; c < f; ++c) {
          const size_t cb = begin + c * child_run_len;
          if (cb >= end) break;
          const size_t ce = std::min(end, cb + child_run_len);
          child_data[num_children] = src.data.ResidentData() + cb;
          child_lens[num_children] = ce - cb;
          if (has_payload) child_payload[num_children] = src_payload_data + cb;
          ++num_children;
        }
        Index* cascade_out =
            want_cascade
                ? out.cascade.MutableData() + r * out.samples_per_full_run * f
                : nullptr;
        const size_t num_chunks =
            std::min(parallelism, std::max<size_t>(1, run_actual / 4096));
        TaskGroup group(pool);
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          const size_t k0 = run_actual * chunk / num_chunks;
          const size_t k1 = run_actual * (chunk + 1) / num_chunks;
          if (k0 >= k1) continue;
          chunk_offsets[chunk].resize(num_children);
          internal_mst::MultiwaySelect<Index>(child_data.data(),
                                              child_lens.data(), num_children,
                                              k0, chunk_offsets[chunk].data());
          group.Run([&, chunk, k0, k1] {
            if (has_payload) {
              internal_mst::MergeRunDispatch<Index, Payload, true>(
                  leaf_children, chunk_scratch[chunk],
                  child_data.data(), child_lens.data(), num_children,
                  out.data.MutableData() + begin, k1 - k0, cascade_out, k, f,
                  child_payload.data(), out_payload.data() + begin, k0,
                  chunk_offsets[chunk].data());
            } else {
              internal_mst::MergeRunDispatch<Index, Payload, false>(
                  leaf_children, chunk_scratch[chunk],
                  child_data.data(), child_lens.data(), num_children,
                  out.data.MutableData() + begin, k1 - k0, cascade_out, k, f,
                  nullptr, nullptr, k0, chunk_offsets[chunk].data());
            }
          });
        }
        group.Wait();
      }
    }
    obs::Add(obs::Counter::kMstLevelsBuilt);
    obs::Add(obs::Counter::kMstMergeElementsMoved, n);
    obs::Add(obs::Counter::kMstLevelBytesAllocated,
             out.data.resident_bytes() + out.cascade.resident_bytes());
    tree.levels_.push_back(std::move(out));
    if (has_payload) {
      level_payloads->push_back(std::move(out_payload));
    }
    child_run_len = run_len;
    if (options.profile != nullptr) {
      options.profile->AddTreeLevelSeconds(
          level - 1, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - level_start)
                         .count());
    }
  }
  // Post-build shed: the merge frontier is gone, so every level below the
  // top is evictable. Bring reservations back under the soft limit so the
  // probe phase (and sibling partitions) have headroom.
  if (options.mem.can_spill()) {
    while (options.mem.budget->over_soft_limit() &&
           tree.EvictOneLevel(tree.levels_.size() - 2)) {
    }
  }
  return tree;
}

template <typename Index>
size_t MergeSortTree<Index>::MemoryUsageBytes() const {
  size_t bytes = 0;
  for (const Level& level : levels_) {
    bytes += level.data.resident_bytes();
    bytes += level.cascade.resident_bytes();
  }
  return bytes;
}

template <typename Index>
size_t MergeSortTree<Index>::SpilledBytes() const {
  size_t bytes = 0;
  for (const Level& level : levels_) {
    bytes += level.data.spilled_bytes();
    bytes += level.cascade.spilled_bytes();
  }
  return bytes;
}

template <typename Index>
size_t MergeSortTree<Index>::CascadeToChild(size_t level, size_t run_begin,
                                            size_t run_len_actual, size_t p,
                                            Index t, size_t child,
                                            size_t child_len) const {
  const Level& lvl = levels_[level];
  const Level& child_lvl = levels_[level - 1];
  const size_t child_begin = run_begin + child * child_lvl.run_len;

  size_t window_lo = 0;
  size_t window_hi = child_len;
  if (!lvl.cascade.empty()) {
    obs::Add(obs::Counter::kMstCascadeLookups);
    const size_t k = opts_.sampling;
    const size_t f = opts_.fanout;
    const size_t run_index = run_begin / lvl.run_len;
    const size_t num_samples = SamplesForLen(run_len_actual);
    const size_t s = std::min(p / k, num_samples - 1);
    const size_t base = (run_index * lvl.samples_per_full_run + s) * f;
    window_lo = static_cast<size_t>(lvl.cascade.Get(base + child));
    if (s + 1 < num_samples) {
      window_hi = std::min<size_t>(
          static_cast<size_t>(lvl.cascade.Get(base + f + child)), child_len);
    }
  } else {
    obs::Add(obs::Counter::kMstBinarySearchFallbacks);
  }
  return child_lvl.data.LowerBound(child_begin + window_lo,
                                   child_begin + window_hi, t) -
         child_begin;
}

template <typename Index>
template <typename Visitor>
void MergeSortTree<Index>::VisitCountCoverInRun(size_t level, size_t run_begin,
                                                size_t run_len_actual,
                                                size_t p, Index t, size_t lo,
                                                size_t hi,
                                                Visitor& visit) const {
  HWF_DCHECK(lo >= run_begin && hi <= run_begin + run_len_actual);
  if (lo >= hi) return;
  if (lo == run_begin && hi == run_begin + run_len_actual) {
    // The whole run qualifies: p is exactly the count of keys < t.
    if (p > 0) visit(level, run_begin, p);
    return;
  }
  HWF_DCHECK(level > 0);
  const Level& child_lvl = levels_[level - 1];
  const size_t child_run_len = child_lvl.run_len;
  const size_t run_end = run_begin + run_len_actual;
  // Only children overlapping [lo, hi) are inspected.
  const size_t first_child = (lo - run_begin) / child_run_len;
  const size_t last_child = (hi - 1 - run_begin) / child_run_len;
  for (size_t c = first_child; c <= last_child; ++c) {
    const size_t cb = run_begin + c * child_run_len;
    const size_t ce = std::min(run_end, cb + child_run_len);
    size_t pc;
    if (level == 1) {
      // Children are single elements: direct comparison.
      pc = levels_[0].data.Get(cb) < t ? 1 : 0;
    } else {
      pc = CascadeToChild(level, run_begin, run_len_actual, p, t, c, ce - cb);
    }
    if (cb >= lo && ce <= hi) {
      if (pc > 0) visit(level - 1, cb, pc);
    } else {
      VisitCountCoverInRun(level - 1, cb, ce - cb, pc, t, std::max(lo, cb),
                           std::min(hi, ce), visit);
    }
  }
}

template <typename Index>
template <typename Visitor>
void MergeSortTree<Index>::VisitCountCover(size_t pos_lo, size_t pos_hi,
                                           Index threshold,
                                           Visitor&& visit) const {
  HWF_CHECK(pos_hi <= n_);
  if (pos_lo >= pos_hi) return;
  if (n_ == 1) {
    if (levels_[0].data.Get(0) < threshold) {
      visit(size_t{0}, size_t{0}, size_t{1});
    }
    return;
  }
  const size_t top = levels_.size() - 1;
  const size_t p = TopLowerBoundImpl(threshold);
  VisitCountCoverInRun(top, 0, n_, p, threshold, pos_lo, pos_hi, visit);
}

template <typename Index>
size_t MergeSortTree<Index>::CountKeysInRanges(
    std::span<const KeyRange<Index>> ranges, ProbeCursor* cursor) const {
  HWF_CHECK(ranges.size() <= kSelectMaxRanges);
  const mem::SpillableVector<Index>& top = levels_.back().data;
  size_t count = 0;
  if (cursor != nullptr && cursor->valid) {
    for (size_t r = 0; r < ranges.size(); ++r) {
      count += cursor->pos_hi[r] - cursor->pos_lo[r];
    }
    return count;
  }
  for (size_t r = 0; r < ranges.size(); ++r) {
    const size_t lo = top.LowerBound(0, n_, ranges[r].lo);
    const size_t hi = top.LowerBound(lo, n_, ranges[r].hi);
    count += hi - lo;
    if (cursor != nullptr) {
      cursor->pos_lo[r] = lo;
      cursor->pos_hi[r] = hi;
    }
  }
  if (cursor != nullptr) cursor->valid = true;
  return count;
}

template <typename Index>
size_t MergeSortTree<Index>::Select(std::span<const KeyRange<Index>> ranges,
                                    size_t i, ProbeCursor* cursor) const {
  HWF_CHECK(n_ > 0);
  if (n_ == 1) return 0;
  // Cascaded lower-bound positions for every range boundary within the
  // current run (2 per range).
  HWF_CHECK(ranges.size() <= kSelectMaxRanges);
  size_t pos_lo[kSelectMaxRanges];
  size_t pos_hi[kSelectMaxRanges];

  const mem::SpillableVector<Index>& top_data = levels_.back().data;
  if (cursor != nullptr && cursor->valid) {
    for (size_t r = 0; r < ranges.size(); ++r) {
      pos_lo[r] = cursor->pos_lo[r];
      pos_hi[r] = cursor->pos_hi[r];
    }
  } else {
    for (size_t r = 0; r < ranges.size(); ++r) {
      pos_lo[r] = top_data.LowerBound(0, n_, ranges[r].lo);
      pos_hi[r] = top_data.LowerBound(0, n_, ranges[r].hi);
      if (cursor != nullptr) {
        cursor->pos_lo[r] = pos_lo[r];
        cursor->pos_hi[r] = pos_hi[r];
      }
    }
    if (cursor != nullptr) cursor->valid = true;
  }

  size_t level = levels_.size() - 1;
  size_t run_begin = 0;
  size_t run_len_actual = n_;
  while (level > 0) {
    const Level& child_lvl = levels_[level - 1];
    const size_t child_run_len = child_lvl.run_len;
    const size_t run_end = run_begin + run_len_actual;
    const size_t num_children =
        (run_len_actual + child_run_len - 1) / child_run_len;
    bool descended = false;
    for (size_t c = 0; c < num_children; ++c) {
      const size_t cb = run_begin + c * child_run_len;
      const size_t ce = std::min(run_end, cb + child_run_len);
      size_t child_lo[kSelectMaxRanges];
      size_t child_hi[kSelectMaxRanges];
      size_t count = 0;
      for (size_t r = 0; r < ranges.size(); ++r) {
        if (level == 1) {
          const Index key = levels_[0].data.Get(cb);
          const bool in = key >= ranges[r].lo && key < ranges[r].hi;
          child_lo[r] = 0;
          child_hi[r] = in ? 1 : 0;
        } else {
          child_lo[r] = CascadeToChild(level, run_begin, run_len_actual,
                                       pos_lo[r], ranges[r].lo, c, ce - cb);
          child_hi[r] = CascadeToChild(level, run_begin, run_len_actual,
                                       pos_hi[r], ranges[r].hi, c, ce - cb);
        }
        count += child_hi[r] - child_lo[r];
      }
      if (i < count) {
        // Descend into this child.
        for (size_t r = 0; r < ranges.size(); ++r) {
          pos_lo[r] = child_lo[r];
          pos_hi[r] = child_hi[r];
        }
        run_begin = cb;
        run_len_actual = ce - cb;
        --level;
        descended = true;
        break;
      }
      i -= count;
    }
    HWF_CHECK_MSG(descended, "MergeSortTree::Select: i out of range");
  }
  return run_begin;
}

}  // namespace hwf

// Out-of-line definitions of the batched probe kernel (SelectBatch,
// CountLessBatch, VisitCountCoverBatch). Tail-included so the kernel can
// live in its own file while remaining member templates of MergeSortTree.
#include "mst/probe_batch.h"  // IWYU pragma: keep

#endif  // HWF_MST_MERGE_SORT_TREE_H_
