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
/// Two query shapes cover all framed holistic aggregates, both answered
/// in batches by the prefetch-pipelined kernel (probe_batch.h):
///   - CountLessBatch: how many entries within a position range have a
///     key < t. Drives COUNT(DISTINCT), RANK, ROW_NUMBER, CUME_DIST etc.
///     (§4.2, §4.4); VisitCountCoverBatch exposes the same descent's cover
///     pieces to the aggregate-annotated tree (§4.3).
///   - SelectBatch: the i-th position (left to right) whose key falls into
///     the given key ranges. Drives percentiles, NTH_VALUE, LEAD/LAG (§4.5,
///     §4.6).
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

  // --- Probes: the batched kernel (probe_batch.h) ------------------------

  /// Maximum number of disjoint key ranges one SelectQuery may carry.
  static constexpr size_t kSelectMaxRanges = 8;

  /// One Select query of a batch: the `rank`-th entry (0-based, scanning
  /// positions left to right) whose key lies in ranges[range_begin,
  /// range_begin + num_ranges) of the shared range pool. The ranges must be
  /// disjoint and hold more than `rank` entries. Queries may share range
  /// pool entries.
  struct SelectQuery {
    uint32_t range_begin;
    uint32_t num_ranges;
    size_t rank;
  };

  /// One count / cover query of a batch: entries at positions
  /// [pos_lo, pos_hi) with key < threshold.
  struct CountQuery {
    size_t pos_lo;
    size_t pos_hi;
    Index threshold;
  };

  /// out[q] = the position answering queries[q]. O(f·log n) per query with
  /// cascading. Up to `group_size` queries are walked through the tree in
  /// lockstep (AMAC-style state machine): each round advances every
  /// in-flight query by one level and prefetches its next level's
  /// cascade/data cache lines before any of them is touched; retired
  /// queries are backfilled from the batch. Results do not depend on
  /// `group_size`.
  void SelectBatch(std::span<const KeyRange<Index>> range_pool,
                   std::span<const SelectQuery> queries, size_t group_size,
                   size_t* out) const;

  /// out[q] = number of entries at positions [pos_lo, pos_hi) of
  /// queries[q] with key < threshold. O(f·log n) per query with cascading,
  /// O(f·log² n) without. Same lockstep group-prefetching machinery as
  /// SelectBatch.
  void CountLessBatch(std::span<const CountQuery> queries, size_t group_size,
                      size_t* out) const;

  /// Visits the canonical cover of every count query: calls
  /// visit(q, level, run_begin, count) for every covered run piece, where
  /// `count` entries at global positions [run_begin, run_begin + count)
  /// within the run's sorted data have keys < threshold. A query's pieces
  /// are the maximal aligned runs of [pos_lo, pos_hi), delivered left to
  /// right (zero-count pieces omitted) and consecutively when the query
  /// retires; queries retire interleaved. Summing the counts yields
  /// CountLessBatch; the annotated tree uses the (level, run_begin, count)
  /// triples to look up prefix aggregates, and its floating-point merges
  /// rely on the fixed piece order.
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

}  // namespace hwf

// Out-of-line definitions of the batched probe kernel (SelectBatch,
// CountLessBatch, VisitCountCoverBatch). Tail-included so the kernel can
// live in its own file while remaining member templates of MergeSortTree.
#include "mst/probe_batch.h"  // IWYU pragma: keep

#endif  // HWF_MST_MERGE_SORT_TREE_H_
