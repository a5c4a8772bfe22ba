// Differential testing of the batched probe kernel (mst/probe_batch.h):
// for every query shape the kernel supports, the batch path must match a
// brute-force reference — linear counts and scans, and for the cover
// visitor a test-local canonical cover including the per-query piece ORDER
// (the annotated tree's floating-point merges fold in visit order, so a
// reordered cover changes double results). The window functions built on
// the kernel are checked against the naive evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
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
#include "tests/mst_test_util.h"
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

TEST_P(ProbeBatchParamTest, CountLessBatchMatchesLinearCount) {
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
    ASSERT_EQ(batched[q],
              test::LinearCountLess(keys, queries[q].pos_lo, queries[q].pos_hi,
                                    queries[q].threshold))
        << "query " << q;
  }
}

TEST_P(ProbeBatchParamTest, VisitCountCoverBatchMatchesCanonicalCover) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  const auto keys =
      RandomKeys<uint32_t>(n, static_cast<uint32_t>(n / 3 + 2), n * 5 + 1);
  const auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  Pcg32 rng(n * 17 + sampling);
  std::vector<MergeSortTree<uint32_t>::CountQuery> queries;
  for (int q = 0; q < 200; ++q) {
    size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi, rng.Bounded(static_cast<uint32_t>(n / 3 + 4))});
  }
  queries.push_back({0, n, static_cast<uint32_t>(n)});  // The whole top run.

  // The batch kernel must deliver every query's pieces consecutively and
  // in canonical (left-to-right) order.
  std::vector<std::vector<test::CoverPiece>> batched(queries.size());
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
    ASSERT_EQ(batched[q],
              test::CanonicalCover(keys, fanout, queries[q].pos_lo,
                                   queries[q].pos_hi, queries[q].threshold))
        << "query " << q;
  }
}

TEST_P(ProbeBatchParamTest, SelectBatchMatchesLinearScan) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  const auto keys = ShuffledPermutation<uint32_t>(n, n * 31 + fanout);
  const auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  Pcg32 rng(n * 37 + batch);
  std::vector<KeyRange<uint32_t>> range_pool;
  std::vector<MergeSortTree<uint32_t>::SelectQuery> queries;
  std::vector<size_t> expected;
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
    const std::vector<size_t> positions = test::LinearPositionsInRanges(
        keys, std::span<const KeyRange<uint32_t>>(
                  range_pool.data() + range_begin, num_ranges));
    if (positions.empty()) {
      range_pool.resize(range_begin);
      continue;
    }
    const size_t rank = rng.Bounded(static_cast<uint32_t>(positions.size()));
    queries.push_back({range_begin, num_ranges, rank});
    expected.push_back(positions[rank]);
  }

  std::vector<size_t> batched(queries.size());
  tree.SelectBatch(range_pool, queries, batch, batched.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(batched[q], expected[q]) << "query " << q;
  }
}

TEST_P(ProbeBatchParamTest, AggregateLessBatchMatchesBruteForceSum) {
  const auto [n, fanout, sampling, cascading, batch] = GetParam();
  const MergeSortTreeOptions options = TreeOptions();
  Pcg32 rng(n * 53 + fanout);
  std::vector<uint32_t> keys(n);
  std::vector<double> exact_inputs(n);
  std::vector<double> rounding_inputs(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.Bounded(static_cast<uint32_t>(n / 3 + 2));
    // Integer-valued: every partial sum is exact, in any order.
    exact_inputs[i] = static_cast<double>(rng.Bounded(2000)) - 1000.0;
    // Values with non-associative addition so merge-order changes show up.
    rounding_inputs[i] = (static_cast<double>(rng.Bounded(2000)) - 1000.0) *
                             1e-3 +
                         static_cast<double>(rng.Bounded(1000)) * 1e9;
  }
  std::vector<AnnotatedMergeSortTree<uint32_t, SumOps>::CountQuery> queries;
  for (int q = 0; q < 300; ++q) {
    size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi, rng.Bounded(static_cast<uint32_t>(n / 3 + 4))});
  }

  const auto exact_tree = AnnotatedMergeSortTree<uint32_t, SumOps>::Build(
      keys, exact_inputs, options);
  std::vector<std::optional<double>> sums(queries.size());
  exact_tree.AggregateLessBatch(queries, batch, sums.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::optional<double> expected;
    for (size_t i = queries[q].pos_lo; i < queries[q].pos_hi; ++i) {
      if (keys[i] < queries[q].threshold) {
        expected = expected.value_or(0.0) + exact_inputs[i];
      }
    }
    ASSERT_EQ(sums[q], expected) << "query " << q;
  }

  // Rounding inputs: the fold order is fixed, so every group size gives
  // bit-identical doubles.
  const auto rounding_tree = AnnotatedMergeSortTree<uint32_t, SumOps>::Build(
      keys, rounding_inputs, options);
  std::vector<std::optional<double>> reference(queries.size());
  rounding_tree.AggregateLessBatch(queries, 1, reference.data());
  for (const size_t group_size : {size_t{7}, size_t{64}}) {
    std::vector<std::optional<double>> grouped(queries.size());
    rounding_tree.AggregateLessBatch(queries, group_size, grouped.data());
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(grouped[q].has_value(), reference[q].has_value())
          << "query " << q;
      if (!reference[q].has_value()) continue;
      ASSERT_EQ(std::memcmp(&*grouped[q], &*reference[q], sizeof(double)), 0)
          << "query " << q << " group " << group_size << ": " << *grouped[q]
          << " vs " << *reference[q];
    }
  }
}

TEST_P(ProbeBatchParamTest, DenseRankBatchMatchesBruteForce) {
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
    std::set<uint32_t> distinct;
    for (size_t i = queries[q].pos_lo; i < queries[q].pos_hi; ++i) {
      if (codes[i] < queries[q].code) distinct.insert(codes[i]);
    }
    ASSERT_EQ(batched[q], distinct.size()) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProbeBatchParamTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 33, 700, 5000),
                       ::testing::Values<size_t>(2, 4, 32),
                       ::testing::Values<size_t>(1, 4, 32),
                       ::testing::Bool(),
                       ::testing::Values<size_t>(1, 7, 64)));

// The probe counters tell the two tree shapes apart: with cascading every
// child search below the top uses a cascade window, without it every one
// is a full binary search.
TEST(ProbeBatch, CascadingCountersMatchTreeShape) {
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

    const obs::CounterSnapshot before = obs::SnapshotCounters();
    std::vector<size_t> batched(queries.size());
    tree.CountLessBatch(queries, kProbeGroupSize, batched.data());
    const obs::CounterSnapshot delta =
        obs::SnapshotDelta(before, obs::SnapshotCounters());
    if (cascading) {
      EXPECT_GT(delta[obs::Counter::kMstCascadeLookups], 0u);
      EXPECT_EQ(delta[obs::Counter::kMstBinarySearchFallbacks], 0u);
    } else {
      EXPECT_EQ(delta[obs::Counter::kMstCascadeLookups], 0u);
      EXPECT_GT(delta[obs::Counter::kMstBinarySearchFallbacks], 0u);
    }
  }
}

// 64-bit index width takes the same kernel through the other template
// instantiation (uint64 keys change the prefetch strides and line counts).
TEST(ProbeBatch, Uint64IndexMatchesLinearScan) {
  const size_t n = 4096;
  MergeSortTreeOptions options;
  options.fanout = 4;
  options.sampling = 4;
  const auto keys = ShuffledPermutation<uint64_t>(n, 77);
  const auto tree = MergeSortTree<uint64_t>::Build(keys, options);
  Pcg32 rng(78);
  std::vector<KeyRange<uint64_t>> range_pool;
  std::vector<MergeSortTree<uint64_t>::SelectQuery> queries;
  std::vector<size_t> expected;
  for (int q = 0; q < 200; ++q) {
    uint64_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    uint64_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    const KeyRange<uint64_t> range{lo, hi};
    const std::vector<size_t> positions = test::LinearPositionsInRanges(
        keys, std::span<const KeyRange<uint64_t>>(&range, 1));
    if (positions.empty()) continue;
    const size_t rank = rng.Bounded(static_cast<uint32_t>(positions.size()));
    queries.push_back({static_cast<uint32_t>(range_pool.size()), 1, rank});
    range_pool.push_back(range);
    expected.push_back(positions[rank]);
  }
  std::vector<size_t> batched(queries.size());
  tree.SelectBatch(range_pool, queries, /*group_size=*/16, batched.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(batched[q], expected[q]) << "query " << q;
  }
}

// Forced spill: under a tight budget the tree evicts lower levels, so the
// batch kernel's prefetch pass runs against the spill page cache. Results
// must still match the linear references exactly.
TEST(ProbeBatch, SpilledLevelsMatchLinearScan) {
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
  std::vector<size_t> expected_select;
  std::vector<MergeSortTree<uint32_t>::CountQuery> counts;
  for (int q = 0; q < 250; ++q) {
    uint32_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
    uint32_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (lo > hi) std::swap(lo, hi);
    counts.push_back({lo, hi, rng.Bounded(static_cast<uint32_t>(n + 1))});
    const KeyRange<uint32_t> range{lo, hi};
    const std::vector<size_t> positions = test::LinearPositionsInRanges(
        keys, std::span<const KeyRange<uint32_t>>(&range, 1));
    if (positions.empty()) continue;
    const size_t rank = rng.Bounded(static_cast<uint32_t>(positions.size()));
    selects.push_back({static_cast<uint32_t>(range_pool.size()), 1, rank});
    range_pool.push_back(range);
    expected_select.push_back(positions[rank]);
  }

  std::vector<size_t> batched_counts(counts.size());
  tree.CountLessBatch(counts, /*group_size=*/8, batched_counts.data());
  for (size_t q = 0; q < counts.size(); ++q) {
    ASSERT_EQ(batched_counts[q],
              test::LinearCountLess(keys, counts[q].pos_lo, counts[q].pos_hi,
                                    counts[q].threshold))
        << "count query " << q;
  }
  std::vector<size_t> batched_selects(selects.size());
  tree.SelectBatch(range_pool, selects, /*group_size=*/8,
                   batched_selects.data());
  for (size_t q = 0; q < selects.size(); ++q) {
    ASSERT_EQ(batched_selects[q], expected_select[q]) << "select query " << q;
  }
}

// End-to-end: every window function that answers its frames through the
// batched kernel must match the naive evaluator (window/reference.cc).
// Kernel group sizes from 1 (maximum retire-and-backfill churn) up are
// covered against the brute-force references by the parameterized tests
// above.
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

TEST_F(WindowBatchEquivalenceTest, RankWithExclusionAndFilter) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kRank;
  call.order_by.push_back(SortKey{kPrice, false, true});
  call.filter = kFlag;
  WindowSpec spec = FramedSpec(300, 120);
  spec.frame.exclusion = FrameExclusion::kGroup;
  ExpectMatchesNaive(spec, call, "rank");
}

TEST_F(WindowBatchEquivalenceTest, RowNumberWithExclusion) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kRowNumber;
  call.order_by.push_back(SortKey{kVal, true, false});
  WindowSpec spec = FramedSpec(200, 200);
  spec.frame.exclusion = FrameExclusion::kTies;
  ExpectMatchesNaive(spec, call, "row_number");
}

TEST_F(WindowBatchEquivalenceTest, PercentRankWithFilter) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kPercentRank;
  call.order_by.push_back(SortKey{kPrice, true, true});
  call.filter = kFlag;
  ExpectMatchesNaive(FramedSpec(500, 0), call, "percent_rank");
}

TEST_F(WindowBatchEquivalenceTest, CumeDistWithExclusionAndFilter) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kCumeDist;
  call.order_by.push_back(SortKey{kVal, false, true});
  call.filter = kFlag;
  WindowSpec spec = FramedSpec(250, 250);
  spec.frame.exclusion = FrameExclusion::kCurrentRow;
  ExpectMatchesNaive(spec, call, "cume_dist");
}

TEST_F(WindowBatchEquivalenceTest, NtileWithExclusion) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kNtile;
  call.param = 7;
  call.order_by.push_back(SortKey{kPrice, true, true});
  WindowSpec spec = FramedSpec(400, 40);
  spec.frame.exclusion = FrameExclusion::kGroup;
  ExpectMatchesNaive(spec, call, "ntile");
}

TEST_F(WindowBatchEquivalenceTest, DenseRank) {
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kDenseRank;
  ExpectMatchesNaive(FramedSpec(150, 150), call, "dense_rank");
}

}  // namespace
}  // namespace hwf
