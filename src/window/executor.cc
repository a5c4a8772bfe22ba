#include "window/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "common/stop_token.h"
#include "mem/external_sort.h"
#include "mem/memory_budget.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/parallel_sort.h"
#include "window/evaluator.h"
#include "window/frame.h"
#include "window/shared_sort.h"
#include "window/sort_keys.h"

namespace hwf {

namespace {

DataType ArgType(const Table& table, const WindowFunctionCall& call) {
  HWF_CHECK(call.argument.has_value());
  return table.column(*call.argument).type();
}

DataType ResultType(const Table& table, const WindowFunctionCall& call) {
  switch (call.kind) {
    case WindowFunctionKind::kCountStar:
    case WindowFunctionKind::kCount:
    case WindowFunctionKind::kCountDistinct:
    case WindowFunctionKind::kRank:
    case WindowFunctionKind::kDenseRank:
    case WindowFunctionKind::kRowNumber:
    case WindowFunctionKind::kNtile:
      return DataType::kInt64;
    case WindowFunctionKind::kAvg:
    case WindowFunctionKind::kAvgDistinct:
    case WindowFunctionKind::kPercentRank:
    case WindowFunctionKind::kCumeDist:
    case WindowFunctionKind::kPercentileCont:
      return DataType::kDouble;
    case WindowFunctionKind::kSum:
    case WindowFunctionKind::kSumDistinct:
    case WindowFunctionKind::kMin:
    case WindowFunctionKind::kMax:
    case WindowFunctionKind::kMinDistinct:
    case WindowFunctionKind::kMaxDistinct:
    case WindowFunctionKind::kPercentileDisc:
    case WindowFunctionKind::kMedian:
    case WindowFunctionKind::kFirstValue:
    case WindowFunctionKind::kLastValue:
    case WindowFunctionKind::kNthValue:
    case WindowFunctionKind::kLead:
    case WindowFunctionKind::kLag:
    case WindowFunctionKind::kMode:
      return ArgType(table, call);
  }
  return DataType::kInt64;
}

Status DispatchMergeSortTree(const PartitionView& view,
                             const WindowFunctionCall& call, Column* out) {
  switch (call.kind) {
    case WindowFunctionKind::kCountStar:
    case WindowFunctionKind::kCount:
    case WindowFunctionKind::kSum:
    case WindowFunctionKind::kMin:
    case WindowFunctionKind::kMax:
    case WindowFunctionKind::kAvg:
      return EvalDistributive(view, call, out);
    case WindowFunctionKind::kCountDistinct:
    case WindowFunctionKind::kSumDistinct:
    case WindowFunctionKind::kAvgDistinct:
    case WindowFunctionKind::kMinDistinct:
    case WindowFunctionKind::kMaxDistinct:
      return EvalDistinctAggregate(view, call, out);
    case WindowFunctionKind::kRank:
    case WindowFunctionKind::kRowNumber:
    case WindowFunctionKind::kPercentRank:
    case WindowFunctionKind::kCumeDist:
    case WindowFunctionKind::kNtile:
      return EvalRankFunction(view, call, out);
    case WindowFunctionKind::kDenseRank:
      return EvalDenseRank(view, call, out);
    case WindowFunctionKind::kPercentileDisc:
    case WindowFunctionKind::kPercentileCont:
    case WindowFunctionKind::kMedian:
      return EvalPercentile(view, call, out);
    case WindowFunctionKind::kFirstValue:
    case WindowFunctionKind::kLastValue:
    case WindowFunctionKind::kNthValue:
      return EvalValueFunction(view, call, out);
    case WindowFunctionKind::kLead:
    case WindowFunctionKind::kLag:
      return EvalLeadLag(view, call, out);
    case WindowFunctionKind::kMode:
      return Status::NotImplemented(
          "mode is not covered by the merge sort tree (paper §1); use "
          "WindowEngine::kIncremental or kNaive");
  }
  return Status::Internal("unhandled window function kind");
}

Status DispatchEngine(const PartitionView& view,
                      const WindowFunctionCall& call, Column* out) {
  switch (view.options->engine) {
    case WindowEngine::kMergeSortTree:
      return DispatchMergeSortTree(view, call, out);
    case WindowEngine::kNaive:
      return EvalNaive(view, call, out);
    case WindowEngine::kIncremental:
      return EvalIncremental(view, call, out);
    case WindowEngine::kOrderStatisticTree:
      return EvalOrderStatisticTree(view, call, out);
  }
  return Status::Internal("unhandled window engine");
}

/// The shared, input-order-independent result of the executor's phases 1–2:
/// the globally sorted row permutation and the partition boundaries. This is
/// the coarsest cacheable artifact — identical for every query against the
/// same table version with the same PARTITION BY / ORDER BY.
struct SortArtifact {
  std::vector<size_t> sorted;
  std::vector<size_t> partition_starts;

  /// True when `sorted` is exactly the spec's canonical global total order
  /// (partition keys asc nulls-first in declared order, order keys, row
  /// id) — the precondition for delta-merging appended rows into it with
  /// std::merge. Hash-partitioned artifacts (bucket-major arrangement) and
  /// artifacts derived from a PARTITION BY-permuted producer keep the
  /// canonical *intra-partition* order but arrange whole partitions
  /// differently, so they carry false and the ingest delta-merge path
  /// rebuilds instead of merging against them.
  bool canonical = true;

  size_t ApproxBytes() const {
    return (sorted.capacity() + partition_starts.capacity()) * sizeof(size_t);
  }
};

/// Serializes the sort specification (partition keys + order keys with
/// direction and NULL placement) into a cache-key fragment. Unlike
/// OrderingKey (window/shared_sort.h), partition columns keep their
/// declared sequence: the *global arrangement* of a sort artifact depends
/// on it, so artifacts of PARTITION BY permutations must not collide.
std::string SortSpecKey(const WindowSpec& spec) {
  std::string key = "pb";
  for (size_t column : spec.partition_by) {
    key += ':';
    key += std::to_string(column);
  }
  key += "|ob";
  for (const SortKey& sort_key : spec.order_by) {
    key += ':';
    key += std::to_string(sort_key.column);
    key += sort_key.ascending ? 'a' : 'd';
    key += sort_key.nulls_first ? 'f' : 'l';
  }
  return key;
}

const char* EngineName(WindowEngine engine) {
  switch (engine) {
    case WindowEngine::kMergeSortTree:
      return "merge_sort_tree";
    case WindowEngine::kNaive:
      return "naive";
    case WindowEngine::kIncremental:
      return "incremental";
    case WindowEngine::kOrderStatisticTree:
      return "order_statistic_tree";
  }
  return "unknown";
}

/// Per-spec execution state derived once per run: cache identities and the
/// sort-regime decisions.
struct SpecExecState {
  const WindowSpec* spec = nullptr;
  /// Declared-order sort key: identity of the artifact's arrangement.
  std::string spec_key;
  /// Canonical ordering key: identity of the per-partition row sequences
  /// (shared across frames and PARTITION BY permutations).
  std::string ordering_key;
  /// Hash-partition regime (producers only).
  bool hash_partition = false;
  size_t hash_est_partitions = 0;
  /// Sort-artifact cache key; empty when caching is off. Hash-regime
  /// artifacts get a "|hp" suffix so the two arrangements never collide.
  std::string sort_cache_key;
  bool delta_merge_possible = false;
  std::string base_sort_key;
};

/// A spec's sort words over every table row: its partition keys (declared
/// order, asc, nulls first), then its ORDER BY keys.
struct SpecWords {
  SortKeyWords words;
  size_t num_partition_keys = 0;
  mem::MemoryReservation bytes;

  /// Where the partition words change between neighbours in `sorted`, with
  /// 0 first and sorted.size() last.
  std::vector<size_t> PartitionStarts(const std::vector<size_t>& sorted) const {
    std::vector<size_t> starts;
    starts.push_back(0);
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (!words.EqualOnKeys(sorted[i - 1], sorted[i], num_partition_keys)) {
        starts.push_back(i);
      }
    }
    starts.push_back(sorted.size());
    return starts;
  }
};

}  // namespace

int CompareRowsBy(const Table& table, size_t row_a, size_t row_b,
                  std::span<const SortKey> keys) {
  for (const SortKey& key : keys) {
    const Column& column = table.column(key.column);
    const bool null_a = column.IsNull(row_a);
    const bool null_b = column.IsNull(row_b);
    if (null_a != null_b) {
      // The NULL side sorts first under NULLS FIRST, last otherwise.
      return null_a == key.nulls_first ? -1 : 1;
    }
    if (null_a) continue;
    const int cmp = column.Compare(row_a, row_b);
    if (cmp != 0) return key.ascending ? cmp : -cmp;
  }
  return 0;
}

std::vector<SortKey> EffectiveOrder(const WindowSpec& spec,
                                    const WindowFunctionCall& call) {
  if (!call.order_by.empty()) return call.order_by;
  switch (call.kind) {
    case WindowFunctionKind::kPercentileDisc:
    case WindowFunctionKind::kPercentileCont:
    case WindowFunctionKind::kMedian:
      // Percentiles order by their argument by default.
      if (call.argument.has_value()) {
        return {SortKey{*call.argument, true, false}};
      }
      break;
    default:
      break;
  }
  return spec.order_by;
}

IndexRemap BuildCallRemap(const PartitionView& view,
                          const WindowFunctionCall& call,
                          bool drop_null_args) {
  const bool has_filter = call.filter.has_value();
  const bool drop_nulls = drop_null_args && call.argument.has_value();
  if (!has_filter && !drop_nulls) {
    return IndexRemap::Identity(view.size());
  }
  std::vector<uint8_t> include(view.size(), 1);
  const Column* filter_col = has_filter ? &view.col(*call.filter) : nullptr;
  const Column* arg_col = drop_nulls ? &view.col(*call.argument) : nullptr;
  for (size_t i = 0; i < view.size(); ++i) {
    const size_t row = view.rows[i];
    if (filter_col != nullptr &&
        (filter_col->IsNull(row) || filter_col->GetInt64(row) == 0)) {
      include[i] = 0;
    } else if (arg_col != nullptr && arg_col->IsNull(row)) {
      include[i] = 0;
    }
  }
  return IndexRemap::Build(include);
}

size_t MapRangesToFiltered(const FrameRanges& frames, const IndexRemap& remap,
                           RowRange* out) {
  size_t count = 0;
  for (size_t r = 0; r < frames.count(); ++r) {
    const size_t begin = remap.ToFiltered(frames[r].begin);
    const size_t end = remap.ToFiltered(frames[r].end);
    if (begin < end) out[count++] = RowRange{begin, end};
  }
  return count;
}

std::string CallCacheKey(const PartitionView& view,
                         const WindowFunctionCall& call, bool drop_null_args) {
  const bool drop_nulls = drop_null_args && call.argument.has_value();
  std::string key;
  key += drop_nulls ? "|dn:" + std::to_string(*call.argument) : "|dn-";
  key += call.filter.has_value() ? "|f:" + std::to_string(*call.filter)
                                 : "|f-";
  key += "|eo";
  for (const SortKey& sort_key : EffectiveOrder(*view.spec, call)) {
    key += ':';
    key += std::to_string(sort_key.column);
    key += sort_key.ascending ? 'a' : 'd';
    key += sort_key.nulls_first ? 'f' : 'l';
  }
  const MergeSortTreeOptions& tree = view.options->tree;
  key += "|t:" + std::to_string(tree.fanout) + ":" +
         std::to_string(tree.sampling) + ":" + (tree.use_cascading ? "c" : "n");
  return key;
}

StatusOr<std::vector<std::vector<Column>>> EvaluateWindowSpecGroups(
    const Table& table, std::span<const WindowSpecGroup> groups,
    const WindowExecutorOptions& options, ThreadPool& pool) {
  for (const WindowSpecGroup& group : groups) {
    if (group.spec == nullptr) {
      return Status::InvalidArgument("WindowSpecGroup carries a null spec");
    }
    Status status = ValidateWindowSpec(table, *group.spec);
    if (!status.ok()) return status;
    for (const WindowFunctionCall& call : group.calls) {
      status = ValidateWindowCall(table, *group.spec, call);
      if (!status.ok()) return status;
    }
  }
  const size_t num_groups = groups.size();
  if (num_groups == 0) return std::vector<std::vector<Column>>{};

  const size_t n = table.num_rows();
  HWF_TRACE_SCOPE_ARG("window.execute", "rows", n);

  // A local copy of the options lets the executor route the attached
  // profile into every tree build (MergeSortTreeOptions::profile) without
  // mutating the caller's struct.
  WindowExecutorOptions exec_options = options;
  obs::ExecutionProfile* profile = options.profile;
  exec_options.tree.profile = profile;
  obs::CounterSnapshot counters_before;
  std::chrono::steady_clock::time_point run_start;
  if (profile != nullptr) {
    profile->Clear();
    counters_before = obs::SnapshotCounters();
    run_start = std::chrono::steady_clock::now();
  }

  // Memory governance: one budget per execution. The limit comes from the
  // options, or — when unset — from HWF_TEST_MEMORY_LIMIT, the hook the
  // forced-spill CI job uses to route the whole regular test suite through
  // the spill paths. Budgets that cannot cover even the irreducible working
  // set (the sorted row permutation, which has no out-of-core
  // representation) fail fast with a clean Status instead of thrashing.
  // Above that floor the executor always completes: sort scratch and tree
  // levels degrade to spill files, and the remaining unsheddable
  // allocations (per-partition frame descriptors) use forced reservations
  // whose overshoot is visible in mem.forced_over_budget_bytes.
  size_t memory_limit = options.memory_limit_bytes;
  if (memory_limit == 0) {
    if (const char* env = std::getenv("HWF_TEST_MEMORY_LIMIT")) {
      size_t parsed = 0;
      if (mem::ParseMemorySize(env, &parsed)) memory_limit = parsed;
    }
  }
  mem::MemoryBudget budget(memory_limit);
  const mem::MemoryContext mem_ctx{&budget,
                                   /*allow_spill=*/memory_limit > 0, profile};
  if (memory_limit > 0) {
    const size_t irreducible = n * sizeof(size_t) + (size_t{64} << 10);
    if (irreducible > memory_limit) {
      return Status::ResourceExhausted(
          "memory limit of " + std::to_string(memory_limit) +
          " bytes cannot cover the irreducible working set of " +
          std::to_string(irreducible) + " bytes for " + std::to_string(n) +
          " rows");
    }
  }
  exec_options.tree.mem = mem_ctx;

  // Cross-query caching is engaged only when the caller asked for no
  // budget: cached artifacts outlive the query, so they must neither be
  // charged to nor spill through the per-query budget. Cached tree builds
  // therefore get an empty MemoryContext (no budget pointer to dangle). The
  // decision reads the caller's option, not the HWF_TEST_MEMORY_LIMIT hook,
  // so forcing spills under the test suite leaves cached executions (and
  // the ingest delta merge they carry) as production runs them.
  const bool cache_enabled = options.tree_cache != nullptr &&
                             !options.cache_key.empty() &&
                             options.memory_limit_bytes == 0;
  if (cache_enabled) exec_options.tree.mem = {};
  const bool content_keys =
      cache_enabled && !options.content_cache_key.empty();
  const bool delta_state_present =
      cache_enabled && !options.delta_base_key.empty() &&
      options.delta_base_rows > 0 && options.delta_base_rows < n;

  // The shared-sort plan over the groups' specs: which specs pay for a sort
  // and which reuse another spec's output (window/shared_sort.h).
  std::vector<const WindowSpec*> specs;
  specs.reserve(num_groups);
  for (const WindowSpecGroup& group : groups) specs.push_back(group.spec);
  const SharedSortPlan plan = PlanSharedSorts(specs);

  std::vector<SpecExecState> states(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    SpecExecState& st = states[g];
    st.spec = specs[g];
    st.spec_key = SortSpecKey(*st.spec);
    st.ordering_key = OrderingKey(*st.spec);
  }

  // The canonical total order of a spec's global sort: (partition keys,
  // order keys, row id), compared on the keys' words (window/sort_keys.h).
  // The cold sort, the bucket sorts, the delta merge and the partition-
  // boundary scans all run on one encoding, so every path agrees
  // bit-for-bit. The words cover every table row and are charged to the
  // budget like the permutation they order; their encoding is timed as
  // `phase`, the phase that sorts on them.
  auto encode_spec_words = [&](const SpecExecState& st,
                               obs::ProfilePhase phase) {
    obs::ScopedPhaseTimer timer(profile, phase);
    SpecWords words;
    std::vector<SortKey> keys;
    for (size_t column : st.spec->partition_by) {
      keys.push_back(SortKey{column, true, true});
    }
    keys.insert(keys.end(), st.spec->order_by.begin(),
                st.spec->order_by.end());
    std::vector<size_t> all_rows(n);
    std::iota(all_rows.begin(), all_rows.end(), size_t{0});
    words.words = SortKeyWords::Encode(table, keys, all_rows, pool);
    words.num_partition_keys = st.spec->partition_by.size();
    words.bytes.ForceReserve(&budget, words.words.ApproxBytes());
    return words;
  };

  // Combined hash of a row's partition key tuple. Equal tuples hash equal
  // (NULLs included — Column::Hash maps NULL to a fixed value), which is
  // what pins every partition whole inside one hash bucket.
  auto row_partition_hash = [&table](const WindowSpec& spec, size_t row) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t column : spec.partition_by) {
      h ^= table.column(column).Hash(row) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    }
    return h;
  };

  // Hash-partition regime decision (kAuto): sample partition-key hashes at
  // a fixed stride and estimate the partition cardinality by inverting the
  // expected-distinct curve E[d] = D(1 - (1 - 1/D)^s) — increasing in D, so
  // a binary search recovers the maximum-likelihood D from the observed
  // distinct count d. Deterministic for a given table content, so cached
  // artifacts never flip regimes under the same key.
  const size_t hash_max_avg = options.hash_partition_max_avg_rows > 0
                                  ? options.hash_partition_max_avg_rows
                                  : options.morsel_size;
  auto decide_hash_partition = [&](SpecExecState& st) {
    if (st.spec->partition_by.empty()) return;
    if (options.hash_partition == HashPartitionMode::kOff) return;
    if (options.hash_partition == HashPartitionMode::kForce) {
      st.hash_partition = true;
      return;
    }
    // An ingest delta state prefers the canonical path: merging the sorted
    // delta into the cached base artifact is O(d log d + n), cheaper than
    // re-partitioning the whole table, and it keeps the artifact
    // delta-mergeable for the append after this one.
    if (delta_state_present) return;
    const size_t min_parts =
        std::max<size_t>(options.hash_partition_min_partitions, 1);
    if (n < 2 * min_parts) return;
    const size_t s = std::min<size_t>(n, 1024);
    const size_t stride = n / s;
    std::vector<uint64_t> sample(s);
    for (size_t i = 0; i < s; ++i) {
      sample[i] = row_partition_hash(*st.spec, i * stride);
    }
    std::sort(sample.begin(), sample.end());
    const size_t d = static_cast<size_t>(
        std::unique(sample.begin(), sample.end()) - sample.begin());
    size_t estimate = n;  // a collision-free sample means "high cardinality"
    if (d < s) {
      double lo = static_cast<double>(d);
      double hi = static_cast<double>(n);
      for (int iter = 0; iter < 48; ++iter) {
        const double mid = 0.5 * (lo + hi);
        const double expected =
            mid * (1.0 - std::pow(1.0 - 1.0 / mid,
                                  static_cast<double>(s)));
        (expected < static_cast<double>(d) ? lo : hi) = mid;
      }
      estimate = static_cast<size_t>(lo);
    }
    st.hash_est_partitions = estimate;
    st.hash_partition =
        estimate >= min_parts && estimate > 0 && n / estimate <= hash_max_avg;
  };

  for (size_t g = 0; g < num_groups; ++g) {
    SpecExecState& st = states[g];
    if (plan.IsProducer(g)) decide_hash_partition(st);
    if (cache_enabled) {
      st.sort_cache_key = options.cache_key + "|sort|" + st.spec_key +
                          (st.hash_partition ? "|hp" : "");
    }
    st.delta_merge_possible = delta_state_present && !st.hash_partition;
    if (st.delta_merge_possible) {
      st.base_sort_key = options.delta_base_key + "|sort|" + st.spec_key;
    }
  }

  // Phases 1–2 (global-sort regime), as a builder so the cache can skip
  // them entirely on a hit.
  auto build_sort_artifact =
      [&](const SpecWords& words) -> StatusOr<SortArtifact> {
    SortArtifact artifact;
    // Phase 1: one global sort by (partition keys, order keys, row id).
    // Partition keys use a fixed canonical order; the row-id tiebreak makes
    // the sort a deterministic total order (and thereby reproducible across
    // thread counts).
    mem::MemoryReservation sorted_bytes;
    sorted_bytes.ForceReserve(&budget, n * sizeof(size_t));
    std::vector<size_t>& sorted = artifact.sorted;
    sorted.resize(n);
    // The sort and partition phases are bracketed with an explicitly-reset
    // optional timer so the straight-line code needs no extra nesting.
    std::optional<obs::ScopedPhaseTimer> phase_timer;
    phase_timer.emplace(profile, obs::ProfilePhase::kSort);
    for (size_t i = 0; i < n; ++i) sorted[i] = i;
    Status sort_status = mem::SortWithBudget(
        sorted, words.words.Less(), pool, mem_ctx, options.morsel_size);
    if (!sort_status.ok()) return sort_status;

    // Phase 2: partition boundaries (equal partition keys).
    phase_timer.reset();
    phase_timer.emplace(profile, obs::ProfilePhase::kPartition);
    artifact.partition_starts = words.PartitionStarts(sorted);
    phase_timer.reset();
    if (Status stop = CheckStop(); !stop.ok()) return stop;
    return artifact;
  };

  // Phases 1–2, hash-partition regime: scatter rows into hash buckets of
  // the partition key (morsel-parallel histogram + scatter), then sort each
  // bucket independently by the same canonical comparator. Equal partition
  // keys hash equal, so every partition lands whole in one bucket and the
  // boundary scan is unchanged; within a partition the order is the same
  // (ORDER BY, row id) sequence as the global sort — results are
  // bit-identical, only the global arrangement of partitions differs
  // (bucket-major instead of key order), which per-row-id result writes
  // never observe.
  auto build_sort_artifact_hashed = [&](const SpecExecState& st,
                                        const SpecWords& words)
      -> StatusOr<SortArtifact> {
    const WindowSpec& spec = *st.spec;
    const size_t chunk = std::max<size_t>(options.morsel_size, 1);
    const size_t num_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
    size_t buckets = 64;
    int log2_buckets = 6;
    while (buckets < 65536 && buckets * chunk < 2 * n) {
      buckets <<= 1;
      ++log2_buckets;
    }
    const int shift = 64 - log2_buckets;
    // Budget-aware: the partitioner's scratch (row hashes + per-chunk
    // histograms) is optional — when the budget cannot take it, fall back
    // to the global regime, which can spill.
    const size_t scratch_bytes =
        n * sizeof(uint64_t) + num_chunks * buckets * sizeof(size_t);
    mem::MemoryReservation scratch;
    if (memory_limit > 0 && !scratch.Reserve(&budget, scratch_bytes).ok()) {
      return build_sort_artifact(words);
    }

    SortArtifact artifact;
    artifact.canonical = false;
    std::optional<obs::ScopedPhaseTimer> phase_timer;
    phase_timer.emplace(profile, obs::ProfilePhase::kSort);

    std::vector<uint64_t> hashes(n);
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            hashes[i] = row_partition_hash(spec, i);
          }
        },
        pool, chunk);

    // Per-chunk bucket histograms, then one exclusive scan that assigns
    // every (chunk, bucket) cell its write cursor — the classic radix
    // scatter, so the parallel scatter below writes disjoint regions.
    std::vector<size_t> cursors(num_chunks * buckets, 0);
    ParallelFor(
        0, num_chunks,
        [&](size_t clo, size_t chi) {
          for (size_t c = clo; c < chi; ++c) {
            size_t* counts = cursors.data() + c * buckets;
            const size_t end = std::min(n, (c + 1) * chunk);
            for (size_t i = c * chunk; i < end; ++i) {
              ++counts[hashes[i] >> shift];
            }
          }
        },
        pool, 1);
    std::vector<size_t> bucket_start(buckets + 1);
    size_t pos = 0;
    for (size_t b = 0; b < buckets; ++b) {
      bucket_start[b] = pos;
      for (size_t c = 0; c < num_chunks; ++c) {
        const size_t count = cursors[c * buckets + b];
        cursors[c * buckets + b] = pos;
        pos += count;
      }
    }
    bucket_start[buckets] = n;

    mem::MemoryReservation sorted_bytes;
    sorted_bytes.ForceReserve(&budget, n * sizeof(size_t));
    artifact.sorted.resize(n);
    ParallelFor(
        0, num_chunks,
        [&](size_t clo, size_t chi) {
          for (size_t c = clo; c < chi; ++c) {
            size_t* cursor = cursors.data() + c * buckets;
            const size_t end = std::min(n, (c + 1) * chunk);
            for (size_t i = c * chunk; i < end; ++i) {
              artifact.sorted[cursor[hashes[i] >> shift]++] = i;
            }
          }
        },
        pool, 1);

    // Each bucket holds a handful of whole partitions: sort them
    // independently, in parallel — O(n log(n/B)) total instead of the
    // global O(n log n), with no cross-bucket merge.
    const WordLess row_less = words.words.Less();
    Status sort_status = ParallelForStatus(
        0, buckets,
        [&](size_t b, size_t) -> Status {
          if (Status stop = CheckStop(); !stop.ok()) return stop;
          std::sort(artifact.sorted.begin() + bucket_start[b],
                    artifact.sorted.begin() + bucket_start[b + 1], row_less);
          return Status::OK();
        },
        pool, /*morsel_size=*/1);
    if (!sort_status.ok()) return sort_status;
    obs::Add(obs::Counter::kExecutorHashPartitionedRows, n);

    // Phase 2: partition boundaries. Adjacent rows from different buckets
    // have different hashes, hence different partition keys — boundaries
    // fall out of the same scan as the global regime.
    phase_timer.reset();
    phase_timer.emplace(profile, obs::ProfilePhase::kPartition);
    artifact.partition_starts = words.PartitionStarts(artifact.sorted);
    phase_timer.reset();
    if (Status stop = CheckStop(); !stop.ok()) return stop;
    return artifact;
  };

  // The streaming-ingest increment around the cold builder. With appended
  // rows present and the base state's artifact cached, the combined order
  // is recovered without re-sorting the base: sort the delta ids (all >
  // base ids), then stably merge — the row-id tiebreak makes the global
  // sort a unique total order, so merging sorted subsets reproduces the
  // cold result exactly, in O(d log d) comparisons plus one O(n) sweep.
  // On a cold build in delta mode, the base-only artifact is derived and
  // cached as a side effect so the *next* append can take the merge path
  // (self-healing after cache eviction or a cold server start).
  auto build_or_merge_sort_artifact =
      [&](const SpecExecState& st) -> StatusOr<SortArtifact> {
    if (st.delta_merge_possible) {
      std::shared_ptr<const SortArtifact> base =
          options.tree_cache->Get<SortArtifact>(st.base_sort_key);
      if (base != nullptr && base->canonical) {
        const SpecWords words =
            encode_spec_words(st, obs::ProfilePhase::kDeltaMerge);
        const WordLess row_less = words.words.Less();
        obs::ScopedPhaseTimer timer(profile, obs::ProfilePhase::kDeltaMerge);
        SortArtifact artifact;
        const size_t base_n = options.delta_base_rows;
        std::vector<size_t> delta(n - base_n);
        for (size_t i = 0; i < delta.size(); ++i) delta[i] = base_n + i;
        std::sort(delta.begin(), delta.end(), row_less);
        artifact.sorted.resize(n);
        std::merge(base->sorted.begin(), base->sorted.end(), delta.begin(),
                   delta.end(), artifact.sorted.begin(), row_less);
        artifact.partition_starts = words.PartitionStarts(artifact.sorted);
        obs::Add(obs::Counter::kIngestDeltaMerges);
        if (Status stop = CheckStop(); !stop.ok()) return stop;
        return artifact;
      }
    }
    const SpecWords words = encode_spec_words(st, obs::ProfilePhase::kSort);
    StatusOr<SortArtifact> built = st.hash_partition
                                       ? build_sort_artifact_hashed(st, words)
                                       : build_sort_artifact(words);
    if (!built.ok() || !st.delta_merge_possible || !built->canonical) {
      return built;
    }
    obs::ScopedPhaseTimer timer(profile, obs::ProfilePhase::kDeltaMerge);
    SortArtifact base;
    base.sorted.reserve(options.delta_base_rows);
    for (size_t row : built->sorted) {
      if (row < options.delta_base_rows) base.sorted.push_back(row);
    }
    base.partition_starts = words.PartitionStarts(base.sorted);
    const size_t base_bytes = base.ApproxBytes();
    options.tree_cache->Put<SortArtifact>(
        st.base_sort_key,
        {std::make_shared<const SortArtifact>(std::move(base)), base_bytes});
    return built;
  };

  auto acquire_producer_artifact = [&](const SpecExecState& st)
      -> StatusOr<std::shared_ptr<const SortArtifact>> {
    if (!st.sort_cache_key.empty()) {
      return options.tree_cache->GetOrBuild<SortArtifact>(
          st.sort_cache_key,
          [&]() -> StatusOr<mst::TreeCache::Built<SortArtifact>> {
            StatusOr<SortArtifact> built = build_or_merge_sort_artifact(st);
            if (!built.ok()) return built.status();
            const size_t bytes = built->ApproxBytes();
            return mst::TreeCache::Built<SortArtifact>{
                std::make_shared<const SortArtifact>(std::move(*built)),
                bytes};
          });
    }
    StatusOr<SortArtifact> built = build_or_merge_sort_artifact(st);
    if (!built.ok()) return built.status();
    return std::make_shared<const SortArtifact>(std::move(*built));
  };

  // Recovers a covered spec's sort from its producer's artifact. The
  // producer's ordering is strictly finer: inside every maximal run of rows
  // tied on the consumer's (shorter) ORDER BY prefix, the consumer's
  // canonical order is plain ascending row id — the producer's extra keys
  // are the only thing arranging those ties — so one O(n) boundary sweep
  // plus integer-only tie re-sorts reproduces the consumer's sort
  // bit-identically, at a fraction of a full comparison sort. Ties never
  // span a partition boundary, so partition starts carry over unchanged.
  auto derive_artifact = [&](const SpecExecState& prod,
                             const SortArtifact& from,
                             const SpecExecState& cons)
      -> StatusOr<SortArtifact> {
    obs::ScopedPhaseTimer timer(profile, obs::ProfilePhase::kSort);
    SortArtifact artifact;
    artifact.sorted = from.sorted;
    artifact.partition_starts = from.partition_starts;
    artifact.canonical =
        from.canonical && prod.spec->partition_by == cons.spec->partition_by;
    const std::vector<size_t>& starts = artifact.partition_starts;
    const size_t num_partitions = starts.size() - 1;
    std::span<const SortKey> order(cons.spec->order_by);
    Status status = ParallelForStatus(
        0, num_partitions,
        [&](size_t p, size_t) -> Status {
          if (Status stop = CheckStop(); !stop.ok()) return stop;
          size_t* data = artifact.sorted.data();
          size_t run = starts[p];
          for (size_t i = starts[p] + 1; i <= starts[p + 1]; ++i) {
            const bool boundary =
                i == starts[p + 1] ||
                CompareRowsBy(table, data[i - 1], data[i], order) != 0;
            if (!boundary) continue;
            if (i - run > 1) std::sort(data + run, data + i);
            run = i;
          }
          return Status::OK();
        },
        pool, /*morsel_size=*/1);
    if (!status.ok()) return status;
    return artifact;
  };

  // Build every producer's artifact, then satisfy the covered specs from
  // them — verbatim for identical orderings, derived for strict prefixes.
  std::vector<std::shared_ptr<const SortArtifact>> artifacts(num_groups);
  size_t sorts_shared = 0;
  size_t sorts_elided = 0;
  for (size_t index : plan.sequence) {
    const SpecExecState& st = states[index];
    if (plan.IsProducer(index)) {
      StatusOr<std::shared_ptr<const SortArtifact>> artifact =
          acquire_producer_artifact(st);
      if (!artifact.ok()) return artifact.status();
      artifacts[index] = std::move(*artifact);
    } else if (plan.reuse[index] == SharedSortPlan::Reuse::kExact) {
      // Identical ORDER BY: the producer's permutation and boundaries serve
      // this spec verbatim. (A PARTITION BY permutation only rearranges
      // whole partitions, which the per-row-id result writes never see.)
      artifacts[index] = artifacts[plan.producer[index]];
      ++sorts_elided;
      ++sorts_shared;
    } else {
      StatusOr<SortArtifact> derived = derive_artifact(
          states[plan.producer[index]], *artifacts[plan.producer[index]], st);
      if (!derived.ok()) return derived.status();
      artifacts[index] =
          std::make_shared<const SortArtifact>(std::move(*derived));
      ++sorts_shared;
    }
  }
  if (sorts_shared > 0) {
    obs::Add(obs::Counter::kExecutorSortsShared, sorts_shared);
  }
  if (sorts_elided > 0) {
    obs::Add(obs::Counter::kExecutorSortsElided, sorts_elided);
  }

  if (profile != nullptr) {
    std::string text = plan.Describe(specs);
    std::string regimes;
    for (size_t g = 0; g < num_groups; ++g) {
      if (!plan.IsProducer(g)) continue;
      if (!regimes.empty()) regimes += ", ";
      regimes += "spec#" + std::to_string(g) + "=";
      if (states[g].hash_partition) {
        regimes += "hash";
        if (states[g].hash_est_partitions > 0) {
          regimes += "(est " +
                     std::to_string(states[g].hash_est_partitions) +
                     " partitions)";
        }
      } else {
        regimes += "global";
      }
    }
    text += "\nregime: " + regimes;
    profile->SetPlanText(text);
  }

  // Result columns per group, all NULL until written.
  std::vector<std::vector<Column>> results(num_groups);
  size_t total_partitions = 0;

  // Phase 3 for one group: per partition — frame resolution, then function
  // evaluation.
  auto evaluate_group = [&](size_t g) -> Status {
    const SpecExecState& st = states[g];
    const WindowSpec& spec = *st.spec;
    std::span<const WindowFunctionCall> calls = groups[g].calls;
    const std::vector<size_t>& sorted = artifacts[g]->sorted;
    const std::vector<size_t>& partition_starts =
        artifacts[g]->partition_starts;

    std::vector<Column>& group_results = results[g];
    group_results.reserve(calls.size());
    for (const WindowFunctionCall& call : calls) {
      group_results.emplace_back(ResultType(table, call), n);
    }

    const FrameSpec& frame = spec.frame;
    const bool needs_peers =
        frame.exclusion == FrameExclusion::kGroup ||
        frame.exclusion == FrameExclusion::kTies ||
        frame.mode == FrameMode::kGroups ||
        (frame.mode == FrameMode::kRange &&
         frame.begin.kind != FrameBoundKind::kUnboundedPreceding) ||
        (frame.mode == FrameMode::kRange &&
         frame.end.kind != FrameBoundKind::kUnboundedFollowing);
    const bool needs_range_keys =
        frame.mode == FrameMode::kRange &&
        (frame.begin.kind == FrameBoundKind::kPreceding ||
         frame.begin.kind == FrameBoundKind::kFollowing ||
         frame.end.kind == FrameBoundKind::kPreceding ||
         frame.end.kind == FrameBoundKind::kFollowing);

    auto process_partition = [&](size_t p, ThreadPool& part_pool) -> Status {
      if (Status stop = CheckStop(); !stop.ok()) return stop;
      const size_t part_begin = partition_starts[p];
      const size_t part_end = partition_starts[p + 1];
      const size_t part_n = part_end - part_begin;
      std::span<const size_t> rows(sorted.data() + part_begin, part_n);

      // Everything up to the resolved frames is frame-resolution work (peer
      // groups, range keys, offsets, the resolver sweep).
      std::optional<obs::ScopedPhaseTimer> part_timer;
      part_timer.emplace(profile, obs::ProfilePhase::kFrameResolve);

      FrameResolver::Inputs inputs;
      inputs.n = part_n;
      inputs.frame = frame;

      if (needs_peers) {
        inputs.peer_start.resize(part_n);
        inputs.peer_end.resize(part_n);
        inputs.group_index.resize(part_n);
        size_t group_begin = 0;
        size_t group = 0;
        for (size_t i = 1; i <= part_n; ++i) {
          const bool boundary =
              i == part_n ||
              CompareRowsBy(table, rows[i - 1], rows[i], spec.order_by) != 0;
          if (boundary) {
            inputs.group_starts.push_back(group_begin);
            for (size_t j = group_begin; j < i; ++j) {
              inputs.peer_start[j] = group_begin;
              inputs.peer_end[j] = i;
              inputs.group_index[j] = group;
            }
            group_begin = i;
            ++group;
          }
        }
        inputs.group_starts.push_back(part_n);  // Sentinel.
      }

      if (needs_range_keys) {
        const SortKey& key = spec.order_by[0];
        const Column& column = table.column(key.column);
        inputs.ascending = key.ascending;
        inputs.range_keys.resize(part_n);
        inputs.range_key_valid.resize(part_n);
        size_t num_nulls = 0;
        for (size_t i = 0; i < part_n; ++i) {
          const size_t row = rows[i];
          if (column.IsNull(row)) {
            inputs.range_keys[i] = 0;
            inputs.range_key_valid[i] = 0;
            ++num_nulls;
          } else {
            inputs.range_keys[i] = column.GetNumeric(row);
            inputs.range_key_valid[i] = 1;
          }
        }
        if (key.nulls_first) {
          inputs.nonnull_begin = num_nulls;
          inputs.nonnull_end = part_n;
        } else {
          inputs.nonnull_begin = 0;
          inputs.nonnull_end = part_n - num_nulls;
        }
      }

      auto load_offsets = [&](const FrameBound& bound,
                              std::vector<int64_t>* ints,
                              std::vector<double>* doubles) {
        if (!bound.offset_column.has_value()) return;
        if (bound.kind != FrameBoundKind::kPreceding &&
            bound.kind != FrameBoundKind::kFollowing) {
          return;
        }
        const Column& column = table.column(*bound.offset_column);
        if (frame.mode == FrameMode::kRange) {
          doubles->resize(part_n);
          for (size_t i = 0; i < part_n; ++i) {
            (*doubles)[i] =
                column.IsNull(rows[i]) ? 0.0 : column.GetNumeric(rows[i]);
          }
        } else {
          ints->resize(part_n);
          for (size_t i = 0; i < part_n; ++i) {
            (*ints)[i] = column.IsNull(rows[i])
                             ? 0
                             : static_cast<int64_t>(
                                   std::llround(column.GetNumeric(rows[i])));
          }
        }
      };
      load_offsets(frame.begin, &inputs.begin_offsets,
                   &inputs.begin_offsets_numeric);
      load_offsets(frame.end, &inputs.end_offsets,
                   &inputs.end_offsets_numeric);

      FrameResolver resolver(std::move(inputs));
      mem::MemoryReservation frames_bytes;
      frames_bytes.ForceReserve(&budget, part_n * sizeof(FrameRanges));
      std::vector<FrameRanges> frames(part_n);
      ParallelFor(
          0, part_n,
          [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) frames[i] = resolver.Resolve(i);
          },
          part_pool, options.morsel_size);

      PartitionView view;
      view.table = &table;
      view.spec = &spec;
      view.rows = rows;
      view.frames = frames;
      view.options = &exec_options;
      view.pool = &part_pool;
      if (cache_enabled) {
        view.cache = options.tree_cache;
        if (content_keys && part_n > 0) {
          // Content-addressed: (epoch, gen) fixes every row's values, and
          // the (first sorted id, count, last sorted id) coordinates pin
          // down the exact member set — two states of the same content
          // generation whose partition shares first id and count hold
          // *identical* row sets (appends only ever extend a partition), so
          // re-hitting an entry across appends or compactions is provably
          // exact. Keyed by the canonical ordering — the intra-partition
          // sequence is (ORDER BY, row id) in every regime and arrangement
          // — so the cached trees are shared across frames, PARTITION BY
          // permutations and the sort regimes.
          view.cache_prefix = options.content_cache_key + "|" +
                              st.ordering_key + "|p" +
                              std::to_string(rows[0]) + "." +
                              std::to_string(part_n) + "." +
                              std::to_string(rows[part_n - 1]);
        } else {
          // Positional coordinates index into the artifact actually used,
          // so the prefix names that artifact (the producer's sort cache
          // key, hash-regime suffix included) plus this spec's canonical
          // ordering, which fixes the intra-partition order the cached
          // trees were built over.
          view.cache_prefix = states[plan.producer[g]].sort_cache_key + "|" +
                              st.ordering_key + "|p" +
                              std::to_string(part_begin) + "-" +
                              std::to_string(part_end);
        }
      }

      // The dispatch interval covers preprocessing, tree builds AND
      // probing; the preprocessing and tree-build shares are recorded
      // separately by the evaluators / builds themselves and subtracted
      // from kProbe once at the end of the execution, keeping the phases
      // disjoint without extra clock reads inside the dispatch.
      part_timer.reset();
      part_timer.emplace(profile, obs::ProfilePhase::kProbe);
      for (size_t c = 0; c < calls.size(); ++c) {
        Status call_status = DispatchEngine(view, calls[c], &group_results[c]);
        if (!call_status.ok()) return call_status;
      }
      return Status::OK();
    };

    const size_t num_partitions = partition_starts.size() - 1;
    size_t largest_partition = 0;
    for (size_t p = 0; p < num_partitions; ++p) {
      largest_partition = std::max(
          largest_partition, partition_starts[p + 1] - partition_starts[p]);
    }
    if (num_partitions > 1 && largest_partition <= options.morsel_size &&
        pool.num_workers() > 0) {
      // Many small partitions: parallelize ACROSS partitions (Leis et al.
      // [27]); each partition is one task evaluated serially inside. A
      // worker-less pool makes the inner ParallelFor calls run inline.
      // Meyers singleton: C++11 magic statics make the first-call
      // initialization race-free, and the object (a worker-less pool, so
      // its destructor joins nothing) is destroyed at exit — TSan- and
      // LeakSanitizer-clean, unlike the previous intentional `new` leak.
      // ParallelForStatus guarantees the reported error is always the one
      // from the lowest-indexed failing partition, regardless of
      // scheduling.
      static ThreadPool serial_pool(-1);
      Status loop_status = ParallelForStatus(
          0, num_partitions,
          [&](size_t p, size_t) { return process_partition(p, serial_pool); },
          pool, /*morsel_size=*/1);
      if (!loop_status.ok()) return loop_status;
    } else {
      // Few (or large) partitions: evaluate sequentially with intra-
      // partition parallelism.
      for (size_t p = 0; p < num_partitions; ++p) {
        Status status = process_partition(p, pool);
        if (!status.ok()) return status;
      }
    }
    total_partitions += num_partitions;
    obs::Add(obs::Counter::kExecutorPartitions, num_partitions);
    return Status::OK();
  };

  for (size_t g = 0; g < num_groups; ++g) {
    Status status = evaluate_group(g);
    if (!status.ok()) return status;
  }
  // A cancellation that landed mid-evaluation leaves partially-written
  // result columns; surface it before anyone can observe them.
  if (Status stop = CheckStop(); !stop.ok()) return stop;

  if (profile != nullptr) {
    // The dispatch timers above charged tree construction and Algorithm-1
    // preprocessing (permutation / code / prevIdcs construction) to kProbe
    // as well; both recorded their own time into kTreeBuild / kPreprocess,
    // so remove them from kProbe to make the phases disjoint.
    profile->AddPhaseSeconds(
        obs::ProfilePhase::kProbe,
        -profile->phase_seconds(obs::ProfilePhase::kTreeBuild) -
            profile->phase_seconds(obs::ProfilePhase::kPreprocess));
    profile->SetRows(n);
    profile->SetPartitions(total_partitions);
    profile->SetEngine(EngineName(options.engine));
    profile->SetMemoryLimitBytes(memory_limit);
    profile->SetPeakReservedBytes(budget.peak_reserved_bytes());
    profile->SetTotalSeconds(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - run_start)
                                 .count());
    profile->CaptureCountersSince(counters_before);
  }

  return results;
}

StatusOr<std::vector<Column>> EvaluateWindowFunctions(
    const Table& table, const WindowSpec& spec,
    std::span<const WindowFunctionCall> calls,
    const WindowExecutorOptions& options, ThreadPool& pool) {
  WindowSpecGroup group;
  group.spec = &spec;
  group.calls = calls;
  StatusOr<std::vector<std::vector<Column>>> result =
      EvaluateWindowSpecGroups(
          table, std::span<const WindowSpecGroup>(&group, 1), options, pool);
  if (!result.ok()) return result.status();
  return std::move((*result)[0]);
}

StatusOr<Column> EvaluateWindowFunction(const Table& table,
                                        const WindowSpec& spec,
                                        const WindowFunctionCall& call,
                                        const WindowExecutorOptions& options,
                                        ThreadPool& pool) {
  StatusOr<std::vector<Column>> result = EvaluateWindowFunctions(
      table, spec, std::span<const WindowFunctionCall>(&call, 1), options,
      pool);
  if (!result.ok()) return result.status();
  return std::move((*result)[0]);
}

}  // namespace hwf
