#ifndef HWF_WINDOW_EXECUTOR_H_
#define HWF_WINDOW_EXECUTOR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "mst/merge_sort_tree.h"
#include "mst/tree_cache.h"
#include "obs/profile.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "storage/table.h"
#include "window/spec.h"

namespace hwf {

/// Evaluation engine for the window operator. kMergeSortTree is the paper's
/// contribution and the production default; the others are the evaluated
/// competitors (§5.5) and share the executor's partitioning / sorting /
/// frame-resolution phases so that benchmark comparisons isolate the
/// aggregation algorithm itself.
enum class WindowEngine {
  kMergeSortTree,
  kNaive,               // per-frame re-evaluation (Wesley & Xu "naive")
  kIncremental,         // Wesley & Xu incremental state maintenance
  kOrderStatisticTree,  // counted B-tree (percentile / rank only)
};

/// Regime switch for the PARTITION BY hash partitioner. Under kAuto the
/// executor samples the partition-key hashes, estimates the partition
/// cardinality by inverting the expected-distinct curve, and takes the hash
/// path when partitions are numerous (>= hash_partition_min_partitions) and
/// small (average <= hash_partition_max_avg_rows): rows are scattered into
/// hash buckets morsel-parallel and each bucket is sorted independently —
/// O(n log(n/B)) with embarrassing parallelism — instead of paying one
/// global O(n log n) comparison sort. Partition key equality implies hash
/// equality, so every partition lands whole in one bucket and the partition
/// boundary scan is unchanged; within a partition the order is the same
/// canonical (ORDER BY, row id) sequence as the global sort, which is what
/// keeps results bit-identical between the regimes.
enum class HashPartitionMode {
  kAuto,   // cardinality-estimated cost threshold (the default)
  kOff,    // always the global sort
  kForce,  // always hash-partition when a PARTITION BY is present
};

struct WindowExecutorOptions {
  /// Merge sort tree tuning (fanout, cascading sampling; §5.1, §6.6).
  MergeSortTreeOptions tree;

  /// Task size for morsel-driven parallelism (§5.5: Hyper uses 20 000).
  size_t morsel_size = kDefaultMorselSize;

  WindowEngine engine = WindowEngine::kMergeSortTree;

  /// High-cardinality PARTITION BY regime (see HashPartitionMode). The
  /// kAuto thresholds: take the hash path when the estimated partition
  /// count is at least `hash_partition_min_partitions` AND the average
  /// partition is at most `hash_partition_max_avg_rows` rows (0 = default
  /// to morsel_size — partitions small enough that the partition-parallel
  /// schedule applies). The hash path is budget-aware: when the memory
  /// budget cannot take the partitioner's scratch (row hashes + scatter
  /// histograms), it falls back to the global sort, which can spill.
  HashPartitionMode hash_partition = HashPartitionMode::kAuto;
  size_t hash_partition_min_partitions = 64;
  size_t hash_partition_max_avg_rows = 0;

  /// Force the tree index width: 0 = choose per partition (§5.1: 32-bit
  /// when the partition fits, else 64-bit), 32 or 64 to override.
  int force_index_width = 0;

  /// Memory budget for the execution in bytes; 0 = unlimited. When set,
  /// every large allocation (sort scratch, tree levels, prefix-aggregate
  /// annotations) is accounted against one process-local budget, and the
  /// executor degrades to disk — external-merge sorts, tree-level eviction
  /// with page-wise re-materialization — instead of exceeding it. Budgets
  /// too small for the irreducible working set (the sorted row permutation)
  /// fail fast with ResourceExhausted before any work is done; above that
  /// floor execution always completes, with any unsheddable overshoot
  /// (frame descriptors) recorded in mem.forced_over_budget_bytes. When 0,
  /// the HWF_TEST_MEMORY_LIMIT environment
  /// variable (same syntax as hwf_cli --memory_limit: bytes with an
  /// optional K/M/G suffix) supplies the limit — a CI hook that forces the
  /// spill path under the regular test suite.
  size_t memory_limit_bytes = 0;

  /// Cross-query build-artifact cache (sort permutations, merge sort trees,
  /// rank codes). Engaged only when BOTH `tree_cache` is non-null and
  /// `cache_key` is non-empty — the key must uniquely identify the table
  /// *contents* (the service uses a globally monotonic table-version epoch;
  /// reusing a key after the rows change serves stale results). Caching is
  /// additionally disabled for budgeted executions (memory_limit_bytes >
  /// 0): cached artifacts outlive the query, so they must not be accounted
  /// against — or spill through — a per-query budget. The
  /// HWF_TEST_MEMORY_LIMIT hook does not disable it; cached executions then
  /// build their trees unbudgeted, as they do without the hook.
  mst::TreeCache* tree_cache = nullptr;
  std::string cache_key;

  /// Streaming-ingest execution (src/ingest/), set by the service when the
  /// catalog snapshot may carry un-compacted appended rows. All three are
  /// inert unless the cache is engaged.
  ///
  ///  - `content_cache_key` identifies the table *content* ("t<epoch>.g<gen>"):
  ///    row values are a pure function of it, and appends only extend the id
  ///    range. Per-partition artifacts are then keyed by content + the
  ///    partition's (first sorted row id, row count, last sorted row id) —
  ///    coordinates that pin down the exact row set — so partitions untouched
  ///    by an append re-hit their cached trees, and compaction (which keeps
  ///    ids, epoch and gen stable) invalidates nothing.
  ///  - `delta_base_rows` / `delta_base_key`: ids in [delta_base_rows, n) are
  ///    appended since the last compaction. When the base state's sort
  ///    artifact (under `delta_base_key`) is cached, the combined artifact is
  ///    derived by sorting just the delta and stably merging — O(d log d + n)
  ///    charged to kDeltaMerge instead of an O(n log n) re-sort — with a
  ///    result bit-identical to the cold sort (the row-id tiebreak makes the
  ///    sort a unique total order, so any merge of sorted subsets reproduces
  ///    it exactly).
  size_t delta_base_rows = 0;
  std::string delta_base_key;
  std::string content_cache_key;

  /// When non-null, cleared on entry and filled with the execution's cost
  /// breakdown: per-phase wall seconds (sort, partition, frame resolution,
  /// tree build with per-level detail, probe), row/partition counts, and
  /// the counter activity of the run. The object must outlive the call;
  /// the executor also routes it into MergeSortTreeOptions::profile so
  /// tree builds report their per-level timings.
  obs::ExecutionProfile* profile = nullptr;
};

/// One group of calls sharing one OVER clause, for multi-spec execution.
/// `spec` must outlive the call; `calls` may be empty (the spec's sort
/// still participates in the sharing plan).
struct WindowSpecGroup {
  const WindowSpec* spec = nullptr;
  std::span<const WindowFunctionCall> calls;
};

/// Evaluates several groups of window function calls — a whole query's
/// worth of distinct OVER clauses — in one execution.
///
/// The executor runs the shared-sort optimizer (window/shared_sort.h) over
/// the specs: specs whose ordering requirement is covered by another spec's
/// sort reuse that sort's permutation and partition boundaries instead of
/// paying their own (verbatim for identical ORDER BY, via an O(n)
/// tie-group row-id re-sort when the producer's ordering is strictly
/// finer), and per-partition tree artifacts are cached under the canonical
/// ordering key so they are shared across frames and PARTITION BY
/// permutations. Producers with a high-cardinality PARTITION BY take the
/// hash-partitioning path (see HashPartitionMode). Results are bit-identical
/// to evaluating every group independently.
///
/// Returns one vector of result columns per group, aligned with the input
/// groups and, within a group, with its calls.
StatusOr<std::vector<std::vector<Column>>> EvaluateWindowSpecGroups(
    const Table& table, std::span<const WindowSpecGroup> groups,
    const WindowExecutorOptions& options = {},
    ThreadPool& pool = ThreadPool::Default());

/// Evaluates several window function calls sharing one OVER clause.
///
/// Partitioning, sorting and frame resolution are performed once and shared
/// across the calls (the optimization of Kohn et al. [24] / Cao et al. [11]
/// at the granularity this library needs). Returns one result column per
/// call, aligned with the input table's row order.
StatusOr<std::vector<Column>> EvaluateWindowFunctions(
    const Table& table, const WindowSpec& spec,
    std::span<const WindowFunctionCall> calls,
    const WindowExecutorOptions& options = {},
    ThreadPool& pool = ThreadPool::Default());

/// Single-call convenience wrapper.
StatusOr<Column> EvaluateWindowFunction(
    const Table& table, const WindowSpec& spec,
    const WindowFunctionCall& call,
    const WindowExecutorOptions& options = {},
    ThreadPool& pool = ThreadPool::Default());

}  // namespace hwf

#endif  // HWF_WINDOW_EXECUTOR_H_
