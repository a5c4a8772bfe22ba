// Differential testing of the offset-value-coded sort path: for every
// input shape, the OVC kernel (parallel_sort.h / loser_tree.h with
// use_ovc) must produce output bit-identical to the
// uncoded reference merges — including stability, which the library
// guarantees through row-id tiebreaks baked into the records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mst/loser_tree.h"
#include "obs/counters.h"
#include "parallel/parallel_sort.h"
#include "parallel/thread_pool.h"

namespace hwf {
namespace {

#if !defined(HWF_HAS_OVC)
TEST(OvcSort, SkippedWithout128BitSupport) {
  GTEST_SKIP() << "no __int128 support; OVC path is compiled out";
}
#else

// The CI forced-spill job sets HWF_TEST_MEMORY_LIMIT for every test; this
// suite builds its own budgets, so clear it for deterministic regimes.
const bool g_env_cleared = [] {
  unsetenv("HWF_TEST_MEMORY_LIMIT");
  return true;
}();

using PairRec = std::pair<uint64_t, uint32_t>;

// Input shapes the merge rounds behave differently on: fuzzed keys with
// heavy duplicates (code compares resolve little, word compares a lot),
// pre-sorted and reverse (degenerate merge patterns), and all-equal
// (every comparison is a full-tie tiebreak).
enum class Shape { kFuzzedHeavyDups, kPreSorted, kReverse, kAllEqual };

std::vector<PairRec> MakeInput(Shape shape, size_t n, uint64_t seed) {
  std::vector<PairRec> data(n);
  Pcg32 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    switch (shape) {
      case Shape::kFuzzedHeavyDups:
        key = rng.Bounded(64);  // ~n/64 rows per distinct key.
        break;
      case Shape::kPreSorted:
        key = i / 3;
        break;
      case Shape::kReverse:
        key = n - i;
        break;
      case Shape::kAllEqual:
        key = 42;
        break;
    }
    // Row ids as the second word: a strict total order, so the sorted
    // output is unique and stability shows up as bit-identity.
    data[i] = {key, static_cast<uint32_t>(i)};
  }
  return data;
}

class OvcSortShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(OvcSortShapeTest, ParallelSortMatchesUncoded) {
  const Shape shape = static_cast<Shape>(GetParam());
  ThreadPool pool(3);
  auto less = [](const PairRec& a, const PairRec& b) { return a < b; };
  for (const size_t n : {size_t{0}, size_t{1}, size_t{1000}, size_t{40000}}) {
    std::vector<PairRec> coded = MakeInput(shape, n, n * 31 + 7);
    std::vector<PairRec> uncoded = coded;
    // Small run_size so several 32-way merge rounds actually execute.
    ParallelSort(coded, less, pool, /*run_size=*/256,
                 PartitionScheme::kThreeWay, nullptr, /*use_ovc=*/true);
    ParallelSort(uncoded, less, pool, /*run_size=*/256,
                 PartitionScheme::kThreeWay, nullptr, /*use_ovc=*/false);
    ASSERT_EQ(coded, uncoded) << "shape " << GetParam() << " n=" << n;
    ASSERT_TRUE(std::is_sorted(coded.begin(), coded.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, OvcSortShapeTest,
                         ::testing::Values(0, 1, 2, 3));

// Direct kernel differential: OvcLoserTreeMerge vs LoserTreeMerge over the
// same hand-built runs, across source counts that hit the m==1 copy, the
// m==2 branchless loop, and the tournament tree.
TEST(OvcSort, LoserTreeMergeMatchesUncoded) {
  Pcg32 rng(7);
  for (const size_t m : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{32}}) {
    std::vector<std::vector<PairRec>> runs(m);
    std::vector<std::vector<OvcCode>> codes(m);
    size_t total = 0;
    uint32_t row = 0;
    for (size_t c = 0; c < m; ++c) {
      const size_t len = 1 + rng.Bounded(200);
      runs[c].resize(len);
      for (auto& rec : runs[c]) rec = {rng.Bounded(16), row++};
      std::sort(runs[c].begin(), runs[c].end());
      codes[c].resize(len);
      ComputeOvcRunCodes(runs[c].data(), len, codes[c].data());
      total += len;
    }
    std::vector<const PairRec*> data(m);
    std::vector<const OvcCode*> in_codes(m);
    std::vector<size_t> lens(m);
    for (size_t c = 0; c < m; ++c) {
      data[c] = runs[c].data();
      in_codes[c] = codes[c].data();
      lens[c] = runs[c].size();
    }
    auto less = [](const PairRec& a, const PairRec& b) { return a < b; };

    std::vector<size_t> pos(m, 0);
    std::vector<PairRec> expected(total);
    LoserTree<PairRec, decltype(less)> tree;
    LoserTreeMerge(tree, data.data(), lens.data(), m, pos.data(),
                   expected.data(), total, less);

    std::fill(pos.begin(), pos.end(), 0);
    std::vector<PairRec> actual(total);
    std::vector<OvcCode> out_codes(total);
    OvcLoserTree<PairRec> ovc_tree;
    OvcLoserTreeMerge(ovc_tree, data.data(), lens.data(), m, pos.data(),
                      in_codes.data(), actual.data(), out_codes.data(),
                      total);
    ASSERT_EQ(actual, expected) << "m=" << m;
    // The emitted codes must be the output's in-run codes — the invariant
    // the next merge round depends on.
    std::vector<OvcCode> recomputed(total);
    ComputeOvcRunCodes(actual.data(), total, recomputed.data());
    ASSERT_EQ(out_codes, recomputed) << "m=" << m;
  }
}

// A three-word record (null rank, key, position) whose comparison is its
// word order, opting it into the coded kernel through the member adapter.
struct OrderKeyRec {
  uint8_t null_rank;
  uint64_t key;
  uint32_t pos;

  static constexpr size_t kOvcWords = 3;
  uint64_t OvcWord(size_t w) const {
    return w == 0 ? null_rank : w == 1 ? key : pos;
  }
  bool operator<(const OrderKeyRec& o) const {
    if (null_rank != o.null_rank) return null_rank < o.null_rank;
    if (key != o.key) return key < o.key;
    return pos < o.pos;
  }
};

// Three-word records exercise offsets past word 1 and the member-adapter
// OvcTraits.
TEST(OvcSort, OrderKeyRecMatchesUncoded) {
  using Rec = OrderKeyRec;
  ThreadPool pool(3);
  auto less = [](const Rec& a, const Rec& b) { return a < b; };
  Pcg32 rng(11);
  const size_t n = 20000;
  std::vector<Rec> coded(n);
  for (size_t i = 0; i < n; ++i) {
    coded[i] = Rec{static_cast<uint8_t>(rng.Bounded(3)), rng.Bounded(50),
                   static_cast<uint32_t>(i)};
  }
  std::vector<Rec> uncoded = coded;
  ParallelSort(coded, less, pool, /*run_size=*/128,
               PartitionScheme::kThreeWay, nullptr, /*use_ovc=*/true);
  ParallelSort(uncoded, less, pool, /*run_size=*/128,
               PartitionScheme::kThreeWay, nullptr, /*use_ovc=*/false);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_FALSE(less(coded[i], uncoded[i]) || less(uncoded[i], coded[i]))
        << "i=" << i;
  }
}

// The whole point of the encoding: most comparisons must resolve on the
// code compare alone, and the counters must reflect both totals.
TEST(OvcSort, CountersShowCodeResolution) {
  ThreadPool pool(3);
  auto less = [](const PairRec& a, const PairRec& b) { return a < b; };
  std::vector<PairRec> data = MakeInput(Shape::kFuzzedHeavyDups, 50000, 5);
  const obs::CounterSnapshot before = obs::SnapshotCounters();
  ParallelSort(data, less, pool, /*run_size=*/256,
               PartitionScheme::kThreeWay, nullptr, /*use_ovc=*/true);
  const obs::CounterSnapshot delta =
      obs::SnapshotDelta(before, obs::SnapshotCounters());
  const uint64_t comparisons = delta[obs::Counter::kSortComparisons];
  const uint64_t resolved = delta[obs::Counter::kSortOvcResolved];
  EXPECT_GT(comparisons, 0u);
  EXPECT_LE(resolved, comparisons);
  // 64 distinct keys over 50k rows: ties dominate, but distinct-key
  // matches (the majority of tournament rounds) resolve on the code.
  EXPECT_GT(resolved, comparisons / 2);
}

#endif  // HWF_HAS_OVC

}  // namespace
}  // namespace hwf
