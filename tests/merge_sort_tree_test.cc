#include "mst/merge_sort_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "tests/mst_test_util.h"

namespace hwf {
namespace {

using test::CountLessOne;
using test::LinearCountLess;
using test::LinearPositionsInRanges;
using test::RandomCountQueries;
using test::SelectOne;

std::vector<uint32_t> RandomKeys(size_t n, uint32_t max_key, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = rng.Bounded(max_key + 1);
  return keys;
}

/// Answers `queries` through the batched kernel.
std::vector<size_t> CountAll(
    const MergeSortTree<uint32_t>& tree,
    const std::vector<MergeSortTree<uint32_t>::CountQuery>& queries) {
  std::vector<size_t> out(queries.size());
  tree.CountLessBatch(queries, kProbeGroupSize, out.data());
  return out;
}

TEST(MergeSortTree, EmptyAndSingle) {
  auto empty = MergeSortTree<uint32_t>::Build({}, {});
  EXPECT_EQ(empty.size(), 0u);

  auto single = MergeSortTree<uint32_t>::Build({7}, {});
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(CountLessOne<uint32_t>(single, 0, 1, 8), 1u);
  EXPECT_EQ(CountLessOne<uint32_t>(single, 0, 1, 7), 0u);
  EXPECT_EQ(CountLessOne<uint32_t>(single, 0, 0, 100), 0u);
}

TEST(MergeSortTree, TinyHandChecked) {
  // Keys:         5 1 4 2 3 0 7 6
  // Positions:    0 1 2 3 4 5 6 7
  std::vector<uint32_t> keys = {5, 1, 4, 2, 3, 0, 7, 6};
  MergeSortTreeOptions options;
  options.fanout = 2;
  options.sampling = 1;
  auto tree = MergeSortTree<uint32_t>::Build(keys, options);
  EXPECT_EQ(CountLessOne<uint32_t>(tree, 0, 8, 4), 4u);   // 1, 2, 3, 0
  EXPECT_EQ(CountLessOne<uint32_t>(tree, 2, 5, 4), 2u);   // 2, 3
  EXPECT_EQ(CountLessOne<uint32_t>(tree, 3, 7, 100), 4u); // whole range
  EXPECT_EQ(CountLessOne<uint32_t>(tree, 3, 3, 100), 0u); // empty range
}

TEST(MergeSortTree, SelectHandChecked) {
  // The bottom array is a permutation: Select(key range, i) returns the
  // i-th position whose key is in range.
  std::vector<uint32_t> keys = {5, 1, 4, 2, 3, 0, 7, 6};
  auto tree = MergeSortTree<uint32_t>::Build(keys, {});
  // Keys in [2, 6): positions 0(5), 2(4), 3(2), 4(3). In position order.
  const KeyRange<uint32_t> one{2, 6};
  std::span<const KeyRange<uint32_t>> one_span(&one, 1);
  EXPECT_EQ(SelectOne(tree, one_span, 0), 0u);
  EXPECT_EQ(SelectOne(tree, one_span, 1), 2u);
  EXPECT_EQ(SelectOne(tree, one_span, 2), 3u);
  EXPECT_EQ(SelectOne(tree, one_span, 3), 4u);
  KeyRange<uint32_t> ranges[2] = {{0, 2}, {6, 8}};
  // Keys in [0,2) or [6,8): positions 1(1), 5(0), 6(7), 7(6).
  std::span<const KeyRange<uint32_t>> span(ranges, 2);
  EXPECT_EQ(SelectOne(tree, span, 0), 1u);
  EXPECT_EQ(SelectOne(tree, span, 1), 5u);
  EXPECT_EQ(SelectOne(tree, span, 2), 6u);
  EXPECT_EQ(SelectOne(tree, span, 3), 7u);
}

// (size, fanout, sampling, cascading)
using TreeParams = std::tuple<size_t, size_t, size_t, bool>;

class MergeSortTreeParamTest : public ::testing::TestWithParam<TreeParams> {};

TEST_P(MergeSortTreeParamTest, CountLessMatchesBruteForce) {
  const auto [n, fanout, sampling, cascading] = GetParam();
  MergeSortTreeOptions options;
  options.fanout = fanout;
  options.sampling = sampling;
  options.use_cascading = cascading;

  // Heavy duplicates: max key n/4 forces repeated values.
  std::vector<uint32_t> keys =
      RandomKeys(n, static_cast<uint32_t>(n / 4 + 1), /*seed=*/n * 31 + fanout);
  auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  const auto queries = RandomCountQueries(
      n, static_cast<uint32_t>(n / 2 + 2), 200, n * 7 + sampling);
  const std::vector<size_t> counts = CountAll(tree, queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& [lo, hi, threshold] = queries[q];
    EXPECT_EQ(counts[q], LinearCountLess(keys, lo, hi, threshold))
        << "n=" << n << " lo=" << lo << " hi=" << hi << " t=" << threshold;
  }
}

TEST_P(MergeSortTreeParamTest, SelectMatchesBruteForce) {
  const auto [n, fanout, sampling, cascading] = GetParam();
  if (n == 0) return;
  MergeSortTreeOptions options;
  options.fanout = fanout;
  options.sampling = sampling;
  options.use_cascading = cascading;

  // A permutation, as used by percentiles.
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(i);
  Pcg32 shuffle_rng(n * 13 + fanout);
  for (size_t i = n; i > 1; --i) {
    std::swap(keys[i - 1], keys[shuffle_rng.Bounded(static_cast<uint32_t>(i))]);
  }
  auto tree = MergeSortTree<uint32_t>::Build(keys, options);

  Pcg32 rng(n * 17 + sampling);
  std::vector<KeyRange<uint32_t>> range_pool;
  std::vector<MergeSortTree<uint32_t>::SelectQuery> queries;
  std::vector<size_t> expected;
  for (int q = 0; q < 100; ++q) {
    uint32_t klo = rng.Bounded(static_cast<uint32_t>(n + 1));
    uint32_t khi = rng.Bounded(static_cast<uint32_t>(n + 1));
    if (klo > khi) std::swap(klo, khi);
    const KeyRange<uint32_t> range{klo, khi};
    const std::vector<size_t> positions = LinearPositionsInRanges(
        keys, std::span<const KeyRange<uint32_t>>(&range, 1));
    // Spot-check a few selections.
    for (size_t probe = 0; probe < std::min<size_t>(positions.size(), 10);
         ++probe) {
      const size_t i =
          probe * std::max<size_t>(positions.size() / 10, 1) % positions.size();
      queries.push_back({static_cast<uint32_t>(range_pool.size()), 1, i});
      expected.push_back(positions[i]);
    }
    range_pool.push_back(range);
  }
  std::vector<size_t> selected(queries.size());
  tree.SelectBatch(range_pool, queries, kProbeGroupSize, selected.data());
  EXPECT_EQ(selected, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeSortTreeParamTest,
    ::testing::Combine(
        ::testing::Values<size_t>(0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 100, 1000,
                                  4097),
        ::testing::Values<size_t>(2, 3, 4, 32),   // fanout
        ::testing::Values<size_t>(1, 4, 32, 64),  // sampling
        ::testing::Bool()));                      // cascading

TEST(MergeSortTree, MultiRangeSelectAcrossHoles) {
  const size_t n = 500;
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(i);
  Pcg32 rng(99);
  for (size_t i = n; i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Bounded(static_cast<uint32_t>(i))]);
  }
  auto tree = MergeSortTree<uint32_t>::Build(keys, {});
  for (int q = 0; q < 50; ++q) {
    uint32_t bounds[6];
    for (auto& b : bounds) b = rng.Bounded(n + 1);
    std::sort(bounds, bounds + 6);
    KeyRange<uint32_t> ranges[3] = {{bounds[0], bounds[1]},
                                    {bounds[2], bounds[3]},
                                    {bounds[4], bounds[5]}};
    std::span<const KeyRange<uint32_t>> span(ranges, 3);
    const std::vector<size_t> expected = LinearPositionsInRanges(keys, span);
    for (size_t i = 0; i < expected.size(); i += 7) {
      EXPECT_EQ(SelectOne(tree, span, i), expected[i]);
    }
  }
}

TEST(MergeSortTree, MemoryGrowsWithLevels) {
  auto small = MergeSortTree<uint32_t>::Build(RandomKeys(100, 50, 1), {});
  auto large = MergeSortTree<uint32_t>::Build(RandomKeys(10000, 50, 1), {});
  EXPECT_GT(large.MemoryUsageBytes(), small.MemoryUsageBytes());
  EXPECT_GE(large.num_levels(), small.num_levels());
}

TEST(MergeSortTree, SixtyFourBitIndexes) {
  std::vector<uint64_t> keys = {5, 1, 4, 2, 3, 0, 7, 6};
  auto tree = MergeSortTree<uint64_t>::Build(keys, {});
  EXPECT_EQ(CountLessOne<uint64_t>(tree, 0, 8, 4), 4u);
  const KeyRange<uint64_t> range{2, 6};
  EXPECT_EQ(SelectOne(tree, std::span<const KeyRange<uint64_t>>(&range, 1), 1),
            2u);
}

TEST(MergeSortTree, CascadingMatchesNonCascading) {
  const size_t n = 2000;
  std::vector<uint32_t> keys = RandomKeys(n, 300, 5);
  MergeSortTreeOptions with;
  with.use_cascading = true;
  with.fanout = 4;
  with.sampling = 8;
  MergeSortTreeOptions without = with;
  without.use_cascading = false;
  auto tree_a = MergeSortTree<uint32_t>::Build(keys, with);
  auto tree_b = MergeSortTree<uint32_t>::Build(keys, without);
  const auto queries = RandomCountQueries(n, 301, 300, 123);
  const std::vector<size_t> counts = CountAll(tree_a, queries);
  EXPECT_EQ(counts, CountAll(tree_b, queries));
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(counts[q], LinearCountLess(keys, queries[q].pos_lo,
                                         queries[q].pos_hi,
                                         queries[q].threshold));
  }
  EXPECT_GT(tree_a.MemoryUsageBytes(), tree_b.MemoryUsageBytes());
}

TEST(MergeSortTree, ParallelChunkedBuildMatchesSerial) {
  // With more workers than runs, the upper levels use the §5.2 chunked
  // merge (MultiwaySelect splits). Every level must be bit-identical to
  // the serial build.
  ThreadPool serial_pool(0);
  ThreadPool parallel_pool(6);
  for (size_t n : {100u, 4097u, 50000u}) {
    for (size_t fanout : {2u, 32u}) {
      std::vector<uint32_t> keys = RandomKeys(n, static_cast<uint32_t>(n / 3 + 1), n);
      MergeSortTreeOptions options;
      options.fanout = fanout;
      auto serial = MergeSortTree<uint32_t>::Build(keys, options, serial_pool);
      auto parallel =
          MergeSortTree<uint32_t>::Build(keys, options, parallel_pool);
      ASSERT_EQ(serial.num_levels(), parallel.num_levels());
      for (size_t level = 0; level < serial.num_levels(); ++level) {
        ASSERT_EQ(serial.level_data(level), parallel.level_data(level))
            << "n=" << n << " fanout=" << fanout << " level=" << level;
      }
      // Queries agree too (exercises cascade pointers built in chunks).
      const auto queries =
          RandomCountQueries(n, static_cast<uint32_t>(n / 3 + 2), 100, n);
      ASSERT_EQ(CountAll(serial, queries), CountAll(parallel, queries));
    }
  }
}

TEST(MergeSortTree, MultiwaySelectSplitsMatchMergePrefix) {
  Pcg32 rng(77);
  for (int round = 0; round < 20; ++round) {
    const size_t num_children = 1 + rng.Bounded(6);
    std::vector<std::vector<uint32_t>> children(num_children);
    std::vector<const uint32_t*> data(num_children);
    std::vector<size_t> lens(num_children);
    size_t total = 0;
    for (size_t c = 0; c < num_children; ++c) {
      children[c].resize(rng.Bounded(200));
      for (auto& v : children[c]) v = rng.Bounded(30);  // Heavy ties.
      std::sort(children[c].begin(), children[c].end());
      data[c] = children[c].data();
      lens[c] = children[c].size();
      total += lens[c];
    }
    // Reference merge with child-index tie-break.
    std::vector<std::pair<uint32_t, size_t>> merged;
    for (size_t c = 0; c < num_children; ++c) {
      for (uint32_t v : children[c]) merged.push_back({v, c});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first < b.first;
                       return a.second < b.second;
                     });
    for (size_t k = 0; k <= total; k += 17) {
      std::vector<size_t> offsets(num_children);
      internal_mst::MultiwaySelect<uint32_t>(data.data(), lens.data(),
                                             num_children, k, offsets.data());
      // The offsets must consume exactly the first k merged elements.
      std::vector<size_t> expected(num_children, 0);
      for (size_t i = 0; i < k; ++i) ++expected[merged[i].second];
      ASSERT_EQ(offsets, expected) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace hwf
