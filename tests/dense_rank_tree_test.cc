#include "mst/dense_rank_tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "mem/memory_budget.h"
#include "obs/counters.h"
#include "obs/profile.h"

namespace hwf {
namespace {

template <typename Index>
size_t BruteDistinctLess(const std::vector<Index>& codes, size_t lo,
                         size_t hi, Index code) {
  std::set<Index> seen;
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

/// Every (lo, hi) range of a small input against the brute force, for
/// every query code in [0, max code + 2] — codes absent from the tree and
/// codes above all of them included.
template <typename Index>
void ExpectExhaustiveMatch(const std::vector<Index>& codes,
                           const std::string& context) {
  const auto tree = DenseRankTree<Index>::Build(codes);
  Index max_code = 0;
  for (Index c : codes) max_code = std::max(max_code, c);
  std::vector<typename DenseRankTree<Index>::DistinctQuery> queries;
  const size_t n = codes.size();
  for (size_t lo = 0; lo <= n; ++lo) {
    for (size_t hi = lo; hi <= n; ++hi) {
      for (Index code = 0; code <= max_code + 2; ++code) {
        queries.push_back({lo, hi, code});
      }
    }
  }
  std::vector<size_t> counts(queries.size());
  tree.CountDistinctLessBatch(queries, kProbeGroupSize, counts.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& [lo, hi, code] = queries[q];
    ASSERT_EQ(counts[q], BruteDistinctLess(codes, lo, hi, code))
        << context << " lo=" << lo << " hi=" << hi << " code=" << code;
  }
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

// Plane-count boundaries: n and the number of distinct codes at 2^k and
// 2^k +- 1, where a code rank equal to the distinct count needs the top
// plane.
TEST(DenseRankTree, PowerOfTwoBoundariesExhaustive) {
  Pcg32 rng(4242);
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u,
                   33u}) {
    std::vector<uint32_t> distinct(n);
    for (size_t i = 0; i < n; ++i) distinct[i] = static_cast<uint32_t>(i);
    for (size_t i = n; i > 1; --i) {
      std::swap(distinct[i - 1],
                distinct[rng.Bounded(static_cast<uint32_t>(i))]);
    }
    ExpectExhaustiveMatch(distinct, "distinct n=" + std::to_string(n));

    std::vector<uint32_t> few(n);
    for (auto& c : few) c = rng.Bounded(4);
    ExpectExhaustiveMatch(few, "four codes n=" + std::to_string(n));
  }
}

// FILTER leaves the tree a subset of the partition's dense codes: gaps,
// and query codes that no entry has.
TEST(DenseRankTree, SparseCodesAndAbsentQueryCodes) {
  Pcg32 rng(99);
  for (size_t n : {1u, 6u, 16u, 17u, 40u}) {
    std::vector<uint32_t> sparse(n);
    for (auto& c : sparse) c = 3 * rng.Bounded(6) + 1;
    ExpectExhaustiveMatch(sparse, "sparse n=" + std::to_string(n));

    std::vector<uint64_t> wide(n);
    for (auto& c : wide) c = 5 * rng.Bounded(5) + 2;
    ExpectExhaustiveMatch(wide, "64-bit n=" + std::to_string(n));
  }
}

TEST(DenseRankTree, LargerPowerOfTwoSizes) {
  Pcg32 rng(7);
  for (size_t n : {255u, 256u, 257u, 1023u, 1024u, 1025u}) {
    for (uint32_t num_codes : {static_cast<uint32_t>(n), 64u, 65u}) {
      std::vector<uint32_t> codes(n);
      for (auto& c : codes) c = rng.Bounded(num_codes);
      const auto tree = DenseRankTree<uint32_t>::Build(codes);
      std::vector<DenseRankTree<uint32_t>::DistinctQuery> queries;
      for (int q = 0; q < 400; ++q) {
        size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
        size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
        if (lo > hi) std::swap(lo, hi);
        queries.push_back({lo, hi, rng.Bounded(num_codes + 2)});
      }
      queries.push_back({0, n, num_codes + 7});  // Above every code.
      std::vector<size_t> counts(queries.size());
      tree.CountDistinctLessBatch(queries, kProbeGroupSize, counts.data());
      for (size_t q = 0; q < queries.size(); ++q) {
        const auto& [lo, hi, code] = queries[q];
        ASSERT_EQ(counts[q], BruteDistinctLess(codes, lo, hi, code))
            << "n=" << n << " codes=" << num_codes << " lo=" << lo
            << " hi=" << hi << " code=" << code;
      }
    }
  }
}

// Random ranges and in-tree query codes at several sizes and batch group
// sizes.
TEST(DenseRankTree, BatchMatchesBruteForce) {
  for (const size_t n : {1u, 2u, 33u, 700u, 5000u}) {
    Pcg32 code_rng(n * 59 + 3);
    std::vector<uint32_t> codes(n);
    for (auto& c : codes) {
      c = code_rng.Bounded(static_cast<uint32_t>(n / 4 + 3));
    }
    const auto tree = DenseRankTree<uint32_t>::Build(codes);
    for (const size_t batch : {1u, 7u, 64u}) {
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
        const auto& [lo, hi, code] = queries[q];
        ASSERT_EQ(batched[q], BruteDistinctLess(codes, lo, hi, code))
            << "n=" << n << " batch=" << batch << " query " << q;
      }
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

// O(n log² n) bits: at most 2 n bit_width(n)^2 bits of planes, plus a
// fixed header per bit plane.
TEST(DenseRankTree, MemoryIsNLogSquaredBits) {
  Pcg32 rng(1);
  for (size_t n : {1000u, 4096u, 16384u}) {
    for (uint32_t num_codes : {100u, static_cast<uint32_t>(n)}) {
      std::vector<uint32_t> codes(n);
      for (auto& c : codes) c = rng.Bounded(num_codes);
      const auto tree = DenseRankTree<uint32_t>::Build(codes);
      const size_t b = std::bit_width(n);
      const size_t ceiling = n * b * b / 4 + 80 * b * (b + 1);
      EXPECT_LE(tree.MemoryUsageBytes(), ceiling)
          << "n=" << n << " codes=" << num_codes;
    }
  }
}

TEST(DenseRankTree, BuildReservesBudgetAndReportsTheBuild) {
  std::vector<uint32_t> codes(3000);
  Pcg32 rng(5);
  for (auto& c : codes) c = rng.Bounded(200);
  mem::MemoryBudget budget;
  obs::ExecutionProfile profile;
  DenseRankTree<uint32_t>::Options options;
  options.mem.budget = &budget;
  options.profile = &profile;
  const obs::CounterDeltaTracker delta;
  {
    const auto tree = DenseRankTree<uint32_t>::Build(codes, options);
    EXPECT_EQ(budget.reserved_bytes(), tree.MemoryUsageBytes());
    // One level per outer plane: 200 codes need 8 bits of code rank.
    EXPECT_EQ(delta.DeltaOf(obs::Counter::kMstLevelsBuilt), 8u);
    EXPECT_EQ(delta.DeltaOf(obs::Counter::kMstLevelBytesAllocated),
              tree.MemoryUsageBytes());
    EXPECT_GT(profile.phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);
  }
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

}  // namespace
}  // namespace hwf
