#ifndef HWF_OBS_COUNTERS_H_
#define HWF_OBS_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hwf {
namespace obs {

/// Process-wide event counters, one relaxed atomic per slot.
///
/// Counters are always compiled in (unlike trace spans): each increment is a
/// single relaxed fetch_add on a dedicated cache line, cheap enough for the
/// library's per-task / per-run granularity. Hot loops batch their deltas
/// (e.g. one add per merged run, not per element). Counters only ever grow;
/// consumers that want per-execution numbers capture a snapshot before and
/// after and subtract (ExecutionProfile does exactly that).
enum class Counter : size_t {
  // Parallel runtime.
  kPoolTasksSubmitted,    // tasks enqueued on a ThreadPool
  kPoolTasksRunByCaller,  // queued tasks executed by a waiting/helping thread
  kPoolIdleWakeups,       // waits that woke up and found nothing to do
  kParallelForMorsels,    // morsels claimed by ParallelFor runners

  // Parallel sort (offset-value-coded merge kernel).
  kSortComparisons,   // element comparisons performed by OVC-coded merges
  kSortOvcResolved,   // comparisons resolved by the code compare alone

  // Merge sort tree build.
  kMstLevelsBuilt,          // tree levels constructed (above level 0)
  kMstMergeElementsMoved,   // elements written by level merges
  kMstLevelBytesAllocated,  // bytes allocated for level data + cascades
  kMstPreprocessFusedRows,  // rows preprocessed by the fused pipeline

  // Merge sort tree probe.
  kMstCascadeLookups,           // child searches narrowed by cascade samples
  kMstBinarySearchFallbacks,    // child searches over the full child run
  kMstProbeBatches,             // batched probe kernel invocations
  kMstProbeBatchQueries,        // queries answered by the batch kernel
  kMstProbeBatchRounds,         // lockstep rounds executed by the kernel
  kMstProbePrefetches,          // software prefetches issued by the kernel

  // Window executor.
  kExecutorPartitions,        // partitions processed
  kExecutorIndex32Dispatches, // per-partition 32-bit index-width decisions
  kExecutorIndex64Dispatches, // per-partition 64-bit index-width decisions
  kExecutorSortsShared,       // specs served by another spec's sort (any reuse)
  kExecutorSortsElided,       // subset reused verbatim (identical ORDER BY)
  kExecutorHashPartitionedRows, // rows routed through the hash partitioner

  // Memory governance / spilling.
  kMemSpillFilesCreated,          // temp files opened for spilled runs/levels
  kMemSpillBytesWritten,          // bytes written to spill files
  kMemSpillBytesRead,             // bytes read back from spill files
  kMemBudgetDeniedReservations,   // TryReserve calls rejected by the budget
  kMemForcedOverBudgetBytes,      // bytes reserved past the limit (degrade)
  kMemMstLevelsEvicted,           // MST levels evicted to spill files
  kMemExternalSortRuns,           // sorted runs written by the external sort

  // Cross-query tree cache (src/mst/tree_cache.h).
  kCacheHits,         // lookups answered from the cache
  kCacheMisses,       // lookups that had to build
  kCacheEvictions,    // entries evicted by the byte cap
  kCacheInsertBytes,  // bytes admitted into the cache

  // Query service (src/service/).
  kServiceQueriesAdmitted,   // queries accepted into the run queue
  kServiceQueriesRejected,   // queries refused by admission control
  kServiceQueriesCancelled,  // queries stopped by cancel or deadline
  kServiceQueriesCompleted,  // queries finished successfully
  kServiceRejectedQueueFull, // rejections caused by a full admission queue
  kServiceRejectedMemory,    // rejections caused by the memory reservation

  // Streaming ingest (src/ingest/).
  kIngestRowsAppended,        // rows accepted by APPEND batches
  kIngestRowsUpserted,        // rows accepted by UPSERT batches
  kIngestBatches,             // APPEND/UPSERT batches applied
  kIngestCompactions,         // delta-into-base compactions completed
  kIngestCompactionsFailed,   // compactions cancelled or errored
  kIngestDeltaMerges,         // sort artifacts built by delta merge (not cold)
  // Always 0: nothing builds a merged two-tree cursor any more. Kept only
  // because the repository benchmark's harness still reads it.
  kIngestMergedCursorBuilds,

  kNumCounters,
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

/// Stable snake_case name of a counter ("pool.tasks_submitted", ...), used
/// as the JSON key in profile emission.
const char* CounterName(Counter counter);

namespace internal_counters {

/// One counter per cache line so concurrent increments of different
/// counters never false-share.
struct alignas(64) Slot {
  std::atomic<uint64_t> value{0};
};

extern Slot g_counters[kNumCounters];

}  // namespace internal_counters

/// Adds `delta` to `counter`. Relaxed; safe from any thread.
inline void Add(Counter counter, uint64_t delta = 1) noexcept {
  internal_counters::g_counters[static_cast<size_t>(counter)].value.fetch_add(
      delta, std::memory_order_relaxed);
}

/// Current value of `counter`.
inline uint64_t Value(Counter counter) noexcept {
  return internal_counters::g_counters[static_cast<size_t>(counter)]
      .value.load(std::memory_order_relaxed);
}

/// A plain copy of every counter at one point in time.
struct CounterSnapshot {
  std::array<uint64_t, kNumCounters> values{};

  uint64_t operator[](Counter counter) const {
    return values[static_cast<size_t>(counter)];
  }
};

/// Captures all counters.
CounterSnapshot SnapshotCounters() noexcept;

/// Per-counter difference `after - before` (counters are monotonic, so this
/// is the activity between the two snapshots).
CounterSnapshot SnapshotDelta(const CounterSnapshot& before,
                              const CounterSnapshot& after) noexcept;

/// Resets every counter to zero. Test-only: concurrent increments during a
/// reset are not atomically accounted; production readers should use
/// snapshots + deltas instead.
void ResetCountersForTest() noexcept;

/// Tracks counter activity since a baseline snapshot.
///
/// The shared snapshot-diff helper behind per-query attribution (what did
/// THIS query add to the process counters?) and the STATS / slow-query-log
/// reporting paths. Construction captures the baseline; Delta() reads the
/// live counters and subtracts; Rebase() moves the baseline to "now".
class CounterDeltaTracker {
 public:
  CounterDeltaTracker() : baseline_(SnapshotCounters()) {}

  /// Activity on every counter since the baseline.
  CounterSnapshot Delta() const {
    return SnapshotDelta(baseline_, SnapshotCounters());
  }

  /// Activity on one counter since the baseline.
  uint64_t DeltaOf(Counter counter) const {
    return Value(counter) - baseline_[counter];
  }

  /// Moves the baseline to the current counter values.
  void Rebase() { baseline_ = SnapshotCounters(); }

  const CounterSnapshot& baseline() const { return baseline_; }

 private:
  CounterSnapshot baseline_;
};

}  // namespace obs
}  // namespace hwf

#endif  // HWF_OBS_COUNTERS_H_
