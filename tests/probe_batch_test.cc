// Differential testing of the batched probe kernel (mst/probe_batch.h):
// for every query shape the kernel supports, the batch path must return
// results bit-identical to the scalar reference descent — including the
// per-query cover piece ORDER (the annotated tree's floating-point merges
// fold in visit order, so a reordered cover changes double results). The
// window functions built on the kernel are checked against the naive
// evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mem/memory_budget.h"
#include "mst/aggregate_ops.h"
#include "mst/annotated_mst.h"
#include "mst/dense_rank_tree.h"
#include "mst/merge_sort_tree.h"
#include "obs/counters.h"
#include "tests/window_test_util.h"
#include "window/executor.h"
#include "window/spec.h"

namespace hwf {
namespace {

using test::MakeRandomTable;

// This suite manages its own budgets in the forced-spill tests; the CI
// forced-spill job's HWF_TEST_MEMORY_LIMIT would also throttle the
// in-memory baselines, which is fine for equivalence but makes the
// resident fast paths untested. Clear it and set budgets explicitly.
const bool g_env_cleared = [] {
  unsetenv("HWF_TEST_MEMORY_LIMIT");
  return true;
}();

template <typename Index>
std::vector<Index> RandomKeys(size_t n, Index max_key, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Index> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<Index>(rng.Bounded(static_cast<uint32_t>(max_key) + 1));
  }
  return keys;
}

template <typename Index>
std::vector<Index> ShuffledPermutation(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Index> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<Index>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Bounded(static_cast<uint32_t>(i))]);
  }
  return perm;
}

// (n, fanout, sampling, cascading, batch size)
using Params = std::tuple<size_t, size_t, size_t, bool, size_t>;

class ProbeBatchParamTest : public ::testing::TestWithParam<Params> {
 protected:
  MergeSortTreeOptions TreeOptions() const {
    const auto [n, fanout, sampling, cascading, batch] = GetParam();
    MergeSortTreeOptions options;
    options.fanout = fanout;
    options.sampling = sampling;
    options.use_cascading = cascading;
    return options;
  }
};

TEST_P(ProbeBatchParamTest, CountLessBatchMatchesScalar) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  const auto keys =
      RandomKeys<uint32_t>(n, static_cast<uint32_t>(n / 2 + 3), n * 7 + batch);
  const auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  Pcg32 rng(n * 13 + fanout);
  std::vector<MergeSortTree<uint32_t>::CountQuery> queries;
  for (int q = 0; q < 400; ++q) {
    size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    const uint32_t threshold = rng.Bounded(static_cast<uint32_t>(n / 2 + 5));
    queries.push_back({lo, hi, threshold});
  }
  // Degenerate shapes: empty, full, threshold extremes.
  queries.push_back({0, n, 0});
  queries.push_back({0, n, static_cast<uint32_t>(n + 7)});
  queries.push_back({n / 2, n / 2, 1});

  std::vector<size_t> batched(queries.size());
  tree.CountLessBatch(queries, batch, batched.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(batched[q], tree.CountLess(queries[q].pos_lo, queries[q].pos_hi,
                                         queries[q].threshold))
        << "query " << q;
  }
}

TEST_P(ProbeBatchParamTest, VisitCountCoverBatchMatchesScalarOrder) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  const auto keys =
      RandomKeys<uint32_t>(n, static_cast<uint32_t>(n / 3 + 2), n * 5 + 1);
  const auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  using Piece = std::tuple<size_t, size_t, size_t>;
  Pcg32 rng(n * 17 + sampling);
  std::vector<MergeSortTree<uint32_t>::CountQuery> queries;
  for (int q = 0; q < 200; ++q) {
    size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi, rng.Bounded(static_cast<uint32_t>(n / 3 + 4))});
  }

  // The batch kernel must deliver every query's pieces consecutively and
  // in exactly the scalar DFS order.
  std::vector<std::vector<Piece>> batched(queries.size());
  size_t last_query = 0;
  tree.VisitCountCoverBatch(
      queries, batch,
      [&](size_t q, size_t level, size_t run_begin, size_t count) {
        if (q != last_query) {
          ASSERT_TRUE(batched[q].empty()) << "pieces of query " << q
                                          << " were not consecutive";
          last_query = q;
        }
        batched[q].emplace_back(level, run_begin, count);
      });
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<Piece> scalar;
    tree.VisitCountCover(queries[q].pos_lo, queries[q].pos_hi,
                         queries[q].threshold,
                         [&](size_t level, size_t run_begin, size_t count) {
                           scalar.emplace_back(level, run_begin, count);
                         });
    ASSERT_EQ(batched[q], scalar) << "query " << q;
  }
}

TEST_P(ProbeBatchParamTest, SelectBatchMatchesScalar) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  const auto keys = ShuffledPermutation<uint32_t>(n, n * 31 + fanout);
  const auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  Pcg32 rng(n * 37 + batch);
  std::vector<KeyRange<uint32_t>> range_pool;
  std::vector<MergeSortTree<uint32_t>::SelectQuery> queries;
  std::vector<size_t> scalar;
  for (int q = 0; q < 300; ++q) {
    // 1–3 disjoint ascending ranges, like the window evaluators produce.
    const uint32_t num_ranges = 1 + rng.Bounded(3);
    uint32_t bounds[6];
    for (uint32_t b = 0; b < 6; ++b) {
      bounds[b] = rng.Bounded(static_cast<uint32_t>(n + 1));
    }
    // Sorted ascending, so any prefix forms valid disjoint ranges.
    std::sort(bounds, bounds + 6);
    const uint32_t range_begin = static_cast<uint32_t>(range_pool.size());
    for (uint32_t r = 0; r < num_ranges; ++r) {
      range_pool.push_back({bounds[2 * r], bounds[2 * r + 1]});
    }
    std::span<const KeyRange<uint32_t>> span(range_pool.data() + range_begin,
                                             num_ranges);
    const size_t total = tree.CountKeysInRanges(span);
    if (total == 0) {
      range_pool.resize(range_begin);
      continue;
    }
    const size_t rank = rng.Bounded(static_cast<uint32_t>(total));
    queries.push_back({range_begin, num_ranges, rank});
    scalar.push_back(tree.Select(span, rank));
  }

  std::vector<size_t> batched(queries.size());
  tree.SelectBatch(range_pool, queries, batch, batched.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(batched[q], scalar[q]) << "query " << q;
  }
}

TEST_P(ProbeBatchParamTest, ProbeCursorReuseMatchesFreshSelect) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  const auto keys = ShuffledPermutation<uint32_t>(n, n * 41 + 2);
  const auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  Pcg32 rng(n * 43 + sampling);
  for (int q = 0; q < 150; ++q) {
    uint32_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    uint32_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    KeyRange<uint32_t> range{lo, hi};
    std::span<const KeyRange<uint32_t>> span(&range, 1);
    MergeSortTree<uint32_t>::ProbeCursor cursor;
    const size_t total = tree.CountKeysInRanges(span, &cursor);
    ASSERT_EQ(total, tree.CountKeysInRanges(span));
    if (total == 0) continue;
    // Two selects sharing the cursor (the PERCENTILE_CONT pattern) must
    // match cursor-less selects.
    const size_t r1 = rng.Bounded(static_cast<uint32_t>(total));
    const size_t r2 = total - 1 - r1;
    ASSERT_EQ(tree.Select(span, r1, &cursor), tree.Select(span, r1));
    ASSERT_EQ(tree.Select(span, r2, &cursor), tree.Select(span, r2));
  }
}

TEST_P(ProbeBatchParamTest, AggregateLessBatchIsBitIdentical) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  Pcg32 rng(n * 53 + fanout);
  std::vector<uint32_t> keys(n);
  std::vector<double> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.Bounded(static_cast<uint32_t>(n / 3 + 2));
    // Values with non-associative addition so merge-order bugs show up.
    inputs[i] = (static_cast<double>(rng.Bounded(2000)) - 1000.0) * 1e-3 +
                static_cast<double>(rng.Bounded(1000)) * 1e9;
  }
  const auto tree = AnnotatedMergeSortTree<uint32_t, SumOps>::Build(
      keys, inputs, options);

  std::vector<AnnotatedMergeSortTree<uint32_t, SumOps>::CountQuery> queries;
  for (int q = 0; q < 300; ++q) {
    size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi, rng.Bounded(static_cast<uint32_t>(n / 3 + 4))});
  }

  std::vector<std::optional<double>> batched(queries.size());
  tree.AggregateLessBatch(queries, batch, batched.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::optional<double> scalar = tree.AggregateLess(
        queries[q].pos_lo, queries[q].pos_hi, queries[q].threshold);
    ASSERT_EQ(batched[q].has_value(), scalar.has_value()) << "query " << q;
    if (!scalar.has_value()) continue;
    // Bit-exact: the batch kernel must replay the scalar merge order.
    ASSERT_EQ(std::memcmp(&*batched[q], &*scalar, sizeof(double)), 0)
        << "query " << q << ": " << *batched[q] << " vs " << *scalar;
  }
}

TEST_P(ProbeBatchParamTest, DenseRankBatchMatchesScalar) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  const auto codes =
      RandomKeys<uint32_t>(n, static_cast<uint32_t>(n / 4 + 2), n * 59 + 3);
  const auto tree = DenseRankTree<uint32_t>::Build(
      std::span<const uint32_t>(codes), options);

  Pcg32 rng(n * 61 + batch);
  std::vector<DenseRankTree<uint32_t>::DistinctQuery> queries;
  for (int q = 0; q < 250; ++q) {
    size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    queries.push_back(
        {lo, hi, codes[rng.Bounded(static_cast<uint32_t>(n))]});
  }
  std::vector<size_t> batched(queries.size());
  tree.CountDistinctLessBatch(queries, batch, batched.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(batched[q],
              tree.CountDistinctLess(queries[q].pos_lo, queries[q].pos_hi,
                                     queries[q].code))
        << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProbeBatchParamTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 33, 700, 5000),
                       ::testing::Values<size_t>(2, 4, 32),
                       ::testing::Values<size_t>(1, 4, 32),
                       ::testing::Bool(),
                       ::testing::Values<size_t>(1, 7, 64)));

// Regression for the batch-vs-scalar cascade accounting discrepancy seen
// in BENCH_probe_batch.json (456M scalar vs 542M batched cascade lookups
// at n=2^22): the batch kernel used to count every speculatively decoded
// lookahead window as a lookup, while the scalar descent only counts the
// child searches it actually performs. The two paths do identical search
// work, so their counter deltas must match exactly.
TEST(ProbeBatch, CascadeLookupCountsMatchScalar) {
  for (const bool cascading : {true, false}) {
    const size_t n = 5000;
    MergeSortTreeOptions options;
    options.fanout = 8;
    options.sampling = 4;
    options.use_cascading = cascading;
    const auto keys =
        RandomKeys<uint32_t>(n, static_cast<uint32_t>(n / 2), 1234);
    const auto tree = MergeSortTree<uint32_t>::Build(keys, options);

    Pcg32 rng(4321);
    std::vector<MergeSortTree<uint32_t>::CountQuery> queries;
    for (int q = 0; q < 500; ++q) {
      size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
      size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
      if (lo > hi) std::swap(lo, hi);
      queries.push_back({lo, hi, rng.Bounded(static_cast<uint32_t>(n / 2))});
    }

    const obs::CounterSnapshot before_scalar = obs::SnapshotCounters();
    for (const auto& q : queries) {
      tree.CountLess(q.pos_lo, q.pos_hi, q.threshold);
    }
    const obs::CounterSnapshot after_scalar = obs::SnapshotCounters();

    std::vector<size_t> batched(queries.size());
    tree.CountLessBatch(queries, kProbeGroupSize, batched.data());
    const obs::CounterSnapshot after_batch = obs::SnapshotCounters();

    const obs::CounterSnapshot scalar_delta =
        obs::SnapshotDelta(before_scalar, after_scalar);
    const obs::CounterSnapshot batch_delta =
        obs::SnapshotDelta(after_scalar, after_batch);
    EXPECT_EQ(scalar_delta[obs::Counter::kMstCascadeLookups],
              batch_delta[obs::Counter::kMstCascadeLookups])
        << "cascading=" << cascading;
    EXPECT_EQ(scalar_delta[obs::Counter::kMstBinarySearchFallbacks],
              batch_delta[obs::Counter::kMstBinarySearchFallbacks])
        << "cascading=" << cascading;
  }
}

// 64-bit index width takes the same kernel through the other template
// instantiation (uint64 keys change the prefetch strides and line counts).
TEST(ProbeBatch, Uint64IndexMatchesScalar) {
  const size_t n = 4096;
  MergeSortTreeOptions options;
  options.fanout = 4;
  options.sampling = 4;
  const auto keys = ShuffledPermutation<uint64_t>(n, 77);
  const auto tree = MergeSortTree<uint64_t>::Build(keys, options);
  Pcg32 rng(78);
  std::vector<KeyRange<uint64_t>> range_pool;
  std::vector<MergeSortTree<uint64_t>::SelectQuery> queries;
  std::vector<size_t> scalar;
  for (int q = 0; q < 200; ++q) {
    uint64_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    uint64_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    const uint32_t range_begin = static_cast<uint32_t>(range_pool.size());
    range_pool.push_back({lo, hi});
    std::span<const KeyRange<uint64_t>> span(range_pool.data() + range_begin,
                                             1);
    const size_t total = tree.CountKeysInRanges(span);
    if (total == 0) {
      range_pool.resize(range_begin);
      continue;
    }
    const size_t rank = rng.Bounded(static_cast<uint32_t>(total));
    queries.push_back({range_begin, 1, rank});
    scalar.push_back(tree.Select(span, rank));
  }
  std::vector<size_t> batched(queries.size());
  tree.SelectBatch(range_pool, queries, /*group_size=*/16, batched.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(batched[q], scalar[q]) << "query " << q;
  }
}

// Forced spill: under a tight budget the tree evicts lower levels, so the
// batch kernel's prefetch pass runs against the spill page cache. Results
// must still match the scalar descent exactly.
TEST(ProbeBatch, SpilledLevelsMatchScalar) {
  const size_t n = 20000;
  mem::MemoryBudget budget(/*limit_bytes=*/64 << 10);
  MergeSortTreeOptions options;
  options.fanout = 4;
  options.sampling = 4;
  options.mem.budget = &budget;
  options.mem.allow_spill = true;
  const auto keys = ShuffledPermutation<uint32_t>(n, 91);
  const auto tree = MergeSortTree<uint32_t>::Build(keys, options);
  ASSERT_GT(tree.SpilledBytes(), 0u) << "budget did not force eviction";

  Pcg32 rng(92);
  std::vector<KeyRange<uint32_t>> range_pool;
  std::vector<MergeSortTree<uint32_t>::SelectQuery> selects;
  std::vector<size_t> scalar_select;
  std::vector<MergeSortTree<uint32_t>::CountQuery> counts;
  for (int q = 0; q < 250; ++q) {
    uint32_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    uint32_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    counts.push_back({lo, hi, rng.Bounded(static_cast<uint32_t>(n + 1))});
    const uint32_t range_begin = static_cast<uint32_t>(range_pool.size());
    range_pool.push_back({lo, hi});
    std::span<const KeyRange<uint32_t>> span(range_pool.data() + range_begin,
                                             1);
    const size_t total = tree.CountKeysInRanges(span);
    if (total == 0) {
      range_pool.resize(range_begin);
      continue;
    }
    selects.push_back(
        {range_begin, 1, rng.Bounded(static_cast<uint32_t>(total))});
    scalar_select.push_back(tree.Select(span, selects.back().rank));
  }

  std::vector<size_t> batched_counts(counts.size());
  tree.CountLessBatch(counts, /*group_size=*/8, batched_counts.data());
  for (size_t q = 0; q < counts.size(); ++q) {
    ASSERT_EQ(batched_counts[q],
              tree.CountLess(counts[q].pos_lo, counts[q].pos_hi,
                             counts[q].threshold))
        << "count query " << q;
  }
  std::vector<size_t> batched_selects(selects.size());
  tree.SelectBatch(range_pool, selects, /*group_size=*/8,
                   batched_selects.data());
  for (size_t q = 0; q < selects.size(); ++q) {
    ASSERT_EQ(batched_selects[q], scalar_select[q]) << "select query " << q;
  }
}

// End-to-end: every window function that answers its frames through the
// batched kernel must match the naive evaluator (window/reference.cc).
// Kernel group sizes from 1 (maximum retire-and-backfill churn) up are
// covered against the scalar descent by the parameterized tests above.
class WindowBatchEquivalenceTest : public ::testing::Test {
 protected:
  // MakeRandomTable schema.
  static constexpr size_t kOrd = 1;
  static constexpr size_t kVal = 2;
  static constexpr size_t kPrice = 3;
  static constexpr size_t kFlag = 5;

  void ExpectMatchesNaive(const WindowSpec& spec,
                            const WindowFunctionCall& call,
                            const std::string& context) {
    const Table table = MakeRandomTable(6000, /*seed=*/123);
    test::ExpectMatchesNaive(table, spec, call, context);
  }

  WindowSpec FramedSpec(int64_t preceding, int64_t following) {
    WindowSpec spec;
    spec.order_by.push_back(SortKey{kOrd, true, true});
    spec.frame.begin = FrameBound::Preceding(preceding);
    spec.frame.end = FrameBound::Following(following);
    return spec;
  }
};

TEST_F(WindowBatchEquivalenceTest, Median) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kMedian;
  call.argument = kPrice;
  ExpectMatchesNaive(FramedSpec(200, 50), call, "median");
}

TEST_F(WindowBatchEquivalenceTest, PercentileContWithFilter) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kPercentileCont;
  call.fraction = 0.37;
  call.argument = kPrice;
  call.filter = kFlag;
  ExpectMatchesNaive(FramedSpec(500, 0), call, "percentile_cont");
}

TEST_F(WindowBatchEquivalenceTest, NthValueIgnoreNulls) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kNthValue;
  call.param = 3;
  call.argument = kVal;
  call.ignore_nulls = true;
  ExpectMatchesNaive(FramedSpec(100, 100), call, "nth_value");
}

TEST_F(WindowBatchEquivalenceTest, LeadWithExclusion) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kLead;
  call.param = 2;
  call.argument = kPrice;
  WindowSpec spec = FramedSpec(300, 10);
  spec.frame.exclusion = FrameExclusion::kGroup;
  ExpectMatchesNaive(spec, call, "lead");
}

TEST_F(WindowBatchEquivalenceTest, CountDistinctWithExclusion) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kCountDistinct;
  call.argument = kVal;
  WindowSpec spec = FramedSpec(400, 0);
  spec.frame.exclusion = FrameExclusion::kCurrentRow;
  ExpectMatchesNaive(spec, call, "count_distinct");
}

TEST_F(WindowBatchEquivalenceTest, SumDistinctDouble) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kSumDistinct;
  call.argument = kPrice;
  ExpectMatchesNaive(FramedSpec(250, 250), call, "sum_distinct");
}

TEST_F(WindowBatchEquivalenceTest, DenseRank) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kDenseRank;
  ExpectMatchesNaive(FramedSpec(150, 150), call, "dense_rank");
}

}  // namespace
}  // namespace hwf
