#include "mst/dense_rank_tree.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "common/random.h"

namespace hwf {
namespace {

size_t BruteDistinctLess(const std::vector<uint32_t>& codes, size_t lo,
                         size_t hi, uint32_t code) {
  std::set<uint32_t> seen;
  for (size_t i = lo; i < hi; ++i) {
    if (codes[i] < code) seen.insert(codes[i]);
  }
  return seen.size();
}

/// CountDistinctLessBatch for a single query.
size_t CountDistinctOne(const DenseRankTree<uint32_t>& tree, size_t lo,
                        size_t hi, uint32_t code) {
  const DenseRankTree<uint32_t>::DistinctQuery query{lo, hi, code};
  size_t out = 0;
  tree.CountDistinctLessBatch(std::span(&query, 1), kProbeGroupSize, &out);
  return out;
}

TEST(DenseRankTree, HandChecked) {
  // codes:    2 0 2 1 0 1
  std::vector<uint32_t> codes = {2, 0, 2, 1, 0, 1};
  auto tree = DenseRankTree<uint32_t>::Build(codes);
  // Whole range, code 2: distinct {0, 1} = 2.
  EXPECT_EQ(CountDistinctOne(tree, 0, 6, 2), 2u);
  // [0, 2): codes {2, 0}; distinct < 2 = {0} = 1.
  EXPECT_EQ(CountDistinctOne(tree, 0, 2, 2), 1u);
  // [2, 5): codes {2, 1, 0}; distinct < 1 = {0}.
  EXPECT_EQ(CountDistinctOne(tree, 2, 5, 1), 1u);
  // Nothing smaller than 0.
  EXPECT_EQ(CountDistinctOne(tree, 0, 6, 0), 0u);
  // Empty range.
  EXPECT_EQ(CountDistinctOne(tree, 3, 3, 99), 0u);
}

TEST(DenseRankTree, RandomizedAgainstBruteForce) {
  Pcg32 rng(31337);
  for (size_t n : {1u, 2u, 5u, 64u, 100u, 777u}) {
    std::vector<uint32_t> codes(n);
    const uint32_t num_codes = static_cast<uint32_t>(n / 4 + 2);
    for (auto& c : codes) c = rng.Bounded(num_codes);
    auto tree = DenseRankTree<uint32_t>::Build(codes);
    std::vector<DenseRankTree<uint32_t>::DistinctQuery> queries;
    for (int q = 0; q < 200; ++q) {
      size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
      size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
      if (lo > hi) std::swap(lo, hi);
      queries.push_back({lo, hi, rng.Bounded(num_codes + 1)});
    }
    std::vector<size_t> counts(queries.size());
    tree.CountDistinctLessBatch(queries, kProbeGroupSize, counts.data());
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto& [lo, hi, code] = queries[q];
      EXPECT_EQ(counts[q], BruteDistinctLess(codes, lo, hi, code))
          << "n=" << n << " lo=" << lo << " hi=" << hi << " code=" << code;
    }
  }
}

TEST(DenseRankTree, AllEqualAndAllDistinct) {
  std::vector<uint32_t> equal(100, 5);
  auto equal_tree = DenseRankTree<uint32_t>::Build(equal);
  EXPECT_EQ(CountDistinctOne(equal_tree, 0, 100, 5), 0u);
  EXPECT_EQ(CountDistinctOne(equal_tree, 0, 100, 6), 1u);

  std::vector<uint32_t> distinct(100);
  for (size_t i = 0; i < 100; ++i) distinct[i] = static_cast<uint32_t>(i);
  auto distinct_tree = DenseRankTree<uint32_t>::Build(distinct);
  EXPECT_EQ(CountDistinctOne(distinct_tree, 0, 100, 50), 50u);
  EXPECT_EQ(CountDistinctOne(distinct_tree, 25, 75, 50), 25u);
}

TEST(DenseRankTree, MemoryIsQuadraticInLogN) {
  std::vector<uint32_t> codes(4096);
  Pcg32 rng(1);
  for (auto& c : codes) c = rng.Bounded(100);
  auto tree = DenseRankTree<uint32_t>::Build(codes);
  // n log² n elements — just assert it is materially larger than n ints.
  EXPECT_GT(tree.MemoryUsageBytes(), codes.size() * sizeof(uint32_t) * 10);
}

}  // namespace
}  // namespace hwf
