#include "mst/annotated_mst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "mst/aggregate_ops.h"
#include "tests/mst_test_util.h"

namespace hwf {
namespace {

struct Fixture {
  std::vector<uint32_t> keys;
  std::vector<double> inputs;
};

Fixture MakeFixture(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  Fixture f;
  f.keys.resize(n);
  f.inputs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    f.keys[i] = rng.Bounded(static_cast<uint32_t>(n / 3 + 2));
    f.inputs[i] = static_cast<double>(rng.Bounded(1000));
  }
  return f;
}

/// Answers `queries` through the batched cover kernel.
template <typename Tree>
auto AggregateAll(const Tree& tree,
                  const std::vector<typename Tree::CountQuery>& queries) {
  std::vector<std::optional<typename Tree::State>> out(queries.size());
  tree.AggregateLessBatch(queries, kProbeGroupSize, out.data());
  return out;
}

/// AggregateLessBatch for a single query.
template <typename Tree>
auto AggregateOne(const Tree& tree, size_t lo, size_t hi, uint32_t t) {
  return AggregateAll(tree, {{lo, hi, t}})[0];
}

TEST(AnnotatedMst, SumHandChecked) {
  // keys:    3 1 2 1 0
  // inputs: 10 20 30 40 50
  auto tree = AnnotatedMergeSortTree<uint32_t, SumOps>::Build(
      {3, 1, 2, 1, 0}, {10, 20, 30, 40, 50});
  // Entries in [0,5) with key < 2: positions 1 (20), 3 (40), 4 (50).
  EXPECT_EQ(AggregateOne(tree, 0, 5, 2).value(), 110.0);
  // Empty qualification.
  EXPECT_FALSE(AggregateOne(tree, 0, 5, 0).has_value());
  EXPECT_FALSE(AggregateOne(tree, 2, 2, 10).has_value());
  // Single element.
  EXPECT_EQ(AggregateOne(tree, 0, 1, 4).value(), 10.0);
}

using Params = std::tuple<size_t, size_t, size_t>;

class AnnotatedMstParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(AnnotatedMstParamTest, SumMatchesBruteForce) {
  const auto [n, fanout, sampling] = GetParam();
  MergeSortTreeOptions options;
  options.fanout = fanout;
  options.sampling = sampling;
  Fixture f = MakeFixture(n, n * 3 + fanout);
  auto tree = AnnotatedMergeSortTree<uint32_t, SumOps>::Build(
      f.keys, f.inputs, options);
  const auto queries =
      test::RandomCountQueries(n, static_cast<uint32_t>(n / 3 + 3), 150, n + 1);
  const auto results = AggregateAll(tree, queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& [lo, hi, t] = queries[q];
    double expected = 0;
    bool any = false;
    for (size_t i = lo; i < hi; ++i) {
      if (f.keys[i] < t) {
        expected += f.inputs[i];
        any = true;
      }
    }
    const std::optional<double>& actual = results[q];
    ASSERT_EQ(actual.has_value(), any);
    if (any) {
      EXPECT_DOUBLE_EQ(*actual, expected);
    }
  }
}

TEST_P(AnnotatedMstParamTest, MinMaxMatchBruteForce) {
  const auto [n, fanout, sampling] = GetParam();
  MergeSortTreeOptions options;
  options.fanout = fanout;
  options.sampling = sampling;
  Fixture f = MakeFixture(n, n * 5 + sampling);
  auto min_tree = AnnotatedMergeSortTree<uint32_t, MinOps>::Build(
      f.keys, f.inputs, options);
  auto max_tree = AnnotatedMergeSortTree<uint32_t, MaxOps>::Build(
      f.keys, f.inputs, options);
  const auto queries =
      test::RandomCountQueries(n, static_cast<uint32_t>(n / 3 + 3), 100, n + 2);
  const auto mins = AggregateAll(min_tree, queries);
  const auto maxes = AggregateAll(max_tree, queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& [lo, hi, t] = queries[q];
    std::optional<double> expected_min;
    std::optional<double> expected_max;
    for (size_t i = lo; i < hi; ++i) {
      if (f.keys[i] < t) {
        expected_min = expected_min.has_value()
                           ? std::min(*expected_min, f.inputs[i])
                           : f.inputs[i];
        expected_max = expected_max.has_value()
                           ? std::max(*expected_max, f.inputs[i])
                           : f.inputs[i];
      }
    }
    EXPECT_EQ(mins[q], expected_min);
    EXPECT_EQ(maxes[q], expected_max);
  }
}

TEST_P(AnnotatedMstParamTest, AvgStateMatchesBruteForce) {
  const auto [n, fanout, sampling] = GetParam();
  MergeSortTreeOptions options;
  options.fanout = fanout;
  options.sampling = sampling;
  Fixture f = MakeFixture(n, n * 7 + sampling);
  auto tree = AnnotatedMergeSortTree<uint32_t, AvgOps>::Build(
      f.keys, f.inputs, options);
  const auto queries =
      test::RandomCountQueries(n, static_cast<uint32_t>(n / 3 + 3), 100, n + 3);
  const auto results = AggregateAll(tree, queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& [lo, hi, t] = queries[q];
    double sum = 0;
    int64_t count = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (f.keys[i] < t) {
        sum += f.inputs[i];
        ++count;
      }
    }
    const std::optional<AvgOps::State>& actual = results[q];
    ASSERT_EQ(actual.has_value(), count > 0);
    if (count > 0) {
      EXPECT_DOUBLE_EQ(actual->sum, sum);
      EXPECT_EQ(actual->count, count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnnotatedMstParamTest,
    ::testing::Combine(::testing::Values<size_t>(1, 5, 32, 100, 1000),
                       ::testing::Values<size_t>(2, 4, 32),
                       ::testing::Values<size_t>(1, 8, 32)));

TEST(AnnotatedMst, ParallelChunkedBuildMatchesSerial) {
  // With more workers than runs, the payload-carrying chunked merge path
  // (§5.2) is exercised; aggregates must be identical to the serial build.
  ThreadPool serial_pool(0);
  ThreadPool parallel_pool(6);
  Fixture f = MakeFixture(30000, 99);
  MergeSortTreeOptions options;
  options.fanout = 16;
  auto serial = AnnotatedMergeSortTree<uint32_t, SumOps>::Build(
      f.keys, f.inputs, options, serial_pool);
  auto parallel = AnnotatedMergeSortTree<uint32_t, SumOps>::Build(
      f.keys, f.inputs, options, parallel_pool);
  const auto queries = test::RandomCountQueries(30000, 10002, 300, 7);
  EXPECT_EQ(AggregateAll(serial, queries), AggregateAll(parallel, queries));
}

TEST(AnnotatedMst, Int64SumsAreExact) {
  // Values near 2^53 would lose precision in doubles.
  std::vector<uint32_t> keys = {0, 1, 2, 3};
  std::vector<int64_t> inputs = {(int64_t{1} << 53) + 1, 1, 2, 3};
  auto tree = AnnotatedMergeSortTree<uint32_t, SumInt64Ops>::Build(
      std::move(keys), std::move(inputs));
  EXPECT_EQ(AggregateOne(tree, 0, 4, 4).value(), (int64_t{1} << 53) + 7);
}

}  // namespace
}  // namespace hwf
