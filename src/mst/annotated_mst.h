#ifndef HWF_MST_ANNOTATED_MST_H_
#define HWF_MST_ANNOTATED_MST_H_

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "mem/memory_budget.h"
#include "mem/spill_file.h"
#include "mem/spillable_vector.h"
#include "mst/merge_sort_tree.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace hwf {

/// An aggregate-annotated merge sort tree (paper §4.3, Fig. 5).
///
/// Every element of every sorted run carries the running aggregate of its
/// run prefix. A framed distinct aggregate then (1) covers the frame with
/// sorted runs, (2) locates the frame's lower bound inside each run via the
/// shared cascading machinery, and (3) merges the prefix aggregates at
/// those boundaries — O(f·log n) per frame, no inverse function needed.
///
/// `Ops` follows the concept documented in aggregate_ops.h.
template <typename Index, typename Ops>
class AnnotatedMergeSortTree {
 public:
  using Input = typename Ops::Input;
  using State = typename Ops::State;
  using Options = MergeSortTreeOptions;

  AnnotatedMergeSortTree() = default;

  /// Builds the tree over `keys` with one aggregate `input` per key (both
  /// consumed). Prefix states are computed level by level in parallel.
  ///
  /// Under a memory budget (options.mem) the per-level input permutations
  /// and prefix-state arrays are accounted; inputs are freed as soon as
  /// their level's prefixes exist, and prefix levels are evicted to a spill
  /// file (lowest level first) when the budget is over its soft limit.
  static AnnotatedMergeSortTree Build(std::vector<Index> keys,
                                      std::vector<Input> inputs,
                                      const Options& options = {},
                                      ThreadPool& pool = ThreadPool::Default()) {
    HWF_CHECK(keys.size() == inputs.size());
    AnnotatedMergeSortTree result;
    mem::MemoryBudget* budget = options.mem.budget;
    std::vector<std::vector<Input>> level_inputs;
    result.tree_ = MergeSortTree<Index>::template BuildWithPayload<Input>(
        std::move(keys), options, pool, &inputs, &level_inputs);
    // The prefix-state annotation is part of tree construction cost-wise:
    // report it into the profile's tree-build phase (not per level — the
    // per-level slots hold the merge times from BuildWithPayload).
    HWF_TRACE_SCOPE_ARG("mst.annotate", "n", result.tree_.size());
    std::chrono::steady_clock::time_point annotate_start;
    if (options.profile != nullptr) {
      annotate_start = std::chrono::steady_clock::now();
    }
    const size_t n = result.tree_.size();
    // The level input permutations were built un-accounted inside
    // BuildWithPayload (they are transient); account them here for the
    // stretch they still live.
    mem::MemoryReservation inputs_bytes;
    inputs_bytes.ForceReserve(budget,
                              level_inputs.size() * n * sizeof(Input));
    result.prefixes_.resize(level_inputs.size());
    for (size_t level = 0; level < level_inputs.size(); ++level) {
      std::vector<Input>& in = level_inputs[level];
      mem::SpillableVector<State>& pref = result.prefixes_[level];
      pref.Attach(budget);
      pref.ResizeResident(n);
      State* pref_data = pref.MutableData();
      const size_t run_len = RunLen(options.fanout, level);
      const size_t num_runs = run_len == 0 ? 1 : (n + run_len - 1) / run_len;
      ParallelFor(
          0, num_runs,
          [&](size_t run_lo, size_t run_hi) {
            for (size_t r = run_lo; r < run_hi; ++r) {
              const size_t begin = r * run_len;
              const size_t end = std::min(n, begin + run_len);
              if (begin >= end) continue;
              State acc = Ops::MakeState(in[begin]);
              pref_data[begin] = acc;
              for (size_t i = begin + 1; i < end; ++i) {
                Ops::Merge(acc, Ops::MakeState(in[i]));
                pref_data[i] = acc;
              }
            }
          },
          pool, /*morsel_size=*/1);
      // This level's inputs are no longer needed — free them eagerly so
      // peak memory tracks (prefix levels + remaining inputs), not both in
      // full.
      in.clear();
      in.shrink_to_fit();
      inputs_bytes.ReleasePartial(n * sizeof(Input));
    }
    // Shed prefix levels (lowest first — lower levels are probed via the
    // page cache anyway) while over the soft limit.
    if (options.mem.can_spill()) {
      for (size_t level = 0; level + 1 < result.prefixes_.size() &&
                             budget->over_soft_limit();
           ++level) {
        if (!result.EnsureSpillFile()) break;
        obs::ScopedPhaseTimer spill_timer(options.mem.profile,
                                          obs::ProfilePhase::kSpill);
        if (!result.prefixes_[level].Spill(result.spill_file_.get()).ok()) {
          break;
        }
        obs::Add(obs::Counter::kMemMstLevelsEvicted);
      }
    }
    if (options.profile != nullptr) {
      options.profile->AddPhaseSeconds(
          obs::ProfilePhase::kTreeBuild,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        annotate_start)
              .count());
    }
    return result;
  }

  /// Number of entries.
  size_t size() const { return tree_.size(); }

  /// The underlying (un-annotated) tree, e.g. for count queries.
  const MergeSortTree<Index>& tree() const { return tree_; }

  using CountQuery = typename MergeSortTree<Index>::CountQuery;

  /// For every query, merges the states of all entries at positions
  /// [pos_lo, pos_hi) whose key is < threshold, through the prefetch-
  /// pipelined cover kernel with `group_size` queries in flight. `out[q]`
  /// (which must start as nullopt) receives query q's merged state, or
  /// stays nullopt when no entry qualifies. The kernel delivers each
  /// query's cover pieces in one fixed left-to-right order, so
  /// floating-point states are bit-identical across group sizes.
  void AggregateLessBatch(std::span<const CountQuery> queries,
                          size_t group_size,
                          std::optional<State>* out) const {
    tree_.VisitCountCoverBatch(
        queries, group_size,
        [&](size_t q, size_t level, size_t run_begin, size_t count) {
          const State piece = prefixes_[level].Get(run_begin + count - 1);
          std::optional<State>& result = out[q];
          if (result.has_value()) {
            Ops::Merge(*result, piece);
          } else {
            result = piece;
          }
        });
  }

  /// Bytes held in RAM by tree levels plus prefix annotations.
  size_t MemoryUsageBytes() const {
    size_t bytes = tree_.MemoryUsageBytes();
    for (const mem::SpillableVector<State>& pref : prefixes_) {
      bytes += pref.resident_bytes();
    }
    return bytes;
  }

 private:
  static size_t RunLen(size_t fanout, size_t level) {
    size_t len = 1;
    for (size_t i = 0; i < level; ++i) len *= fanout;
    return len;
  }

  bool EnsureSpillFile() {
    if (spill_file_ != nullptr) return true;
    StatusOr<std::unique_ptr<mem::SpillFile>> file = mem::SpillFile::Create();
    if (!file.ok()) return false;
    spill_file_ = std::move(file).value();
    return true;
  }

  MergeSortTree<Index> tree_;
  std::vector<mem::SpillableVector<State>> prefixes_;
  std::unique_ptr<mem::SpillFile> spill_file_;
};

}  // namespace hwf

#endif  // HWF_MST_ANNOTATED_MST_H_
