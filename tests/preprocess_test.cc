// Differential testing of the fused preprocessing pipeline
// (mst/preprocess.h): every artifact it emits must equal the legacy
// per-artifact reference (prev_index.h / permutation.h) bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "mst/permutation.h"
#include "mst/preprocess.h"
#include "mst/prev_index.h"
#include "obs/counters.h"
#include "parallel/thread_pool.h"

namespace hwf {
namespace {

PreprocessRequest AllArtifacts() {
  PreprocessRequest req;
  req.want_prev = true;
  req.want_next = true;
  req.want_perm = true;
  req.want_dense = true;
  req.want_unique = true;
  return req;
}

// The paper's Figure 1 example (values a b b c a b c a): the fused prev
// must reproduce the documented encoded prevIdcs exactly.
TEST(Preprocess, PaperFigure1Example) {
  ThreadPool pool(3);
  const std::vector<uint64_t> codes = {0, 1, 1, 2, 0, 1, 2, 0};
  PreprocessRequest req;
  req.want_prev = true;
  const auto pre = PreprocessHashedCodes<uint32_t>(codes, req, pool);
  EXPECT_EQ(pre.prev, (std::vector<uint32_t>{0, 0, 2, 0, 1, 3, 4, 5}));
}

TEST(Preprocess, HashedCodesMatchLegacy) {
  ThreadPool pool(3);
  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{2}, size_t{500}, size_t{20000}}) {
    Pcg32 rng(n * 3 + 1);
    std::vector<uint64_t> codes(n);
    // Heavy duplicates so occurrence chains are long.
    for (auto& c : codes) c = rng.Bounded(32);

    const auto pre =
        PreprocessHashedCodes<uint32_t>(codes, AllArtifacts(), pool);
    EXPECT_EQ(pre.prev, ComputePrevIndices<uint32_t>(codes, pool))
        << "n=" << n;
    EXPECT_EQ(pre.next, ComputeNextIndices<uint32_t>(codes, pool))
        << "n=" << n;

    // perm / dense / unique under "code order, position tiebreak".
    auto cmp = [&codes](size_t a, size_t b) { return codes[a] < codes[b]; };
    EXPECT_EQ(pre.perm, ComputePermutation<uint32_t>(n, cmp, pool));
    size_t legacy_distinct = 0;
    EXPECT_EQ(pre.dense_codes,
              ComputeDenseCodes<uint32_t>(n, cmp, &legacy_distinct, pool));
    EXPECT_EQ(pre.num_distinct, legacy_distinct);
    EXPECT_EQ(pre.unique_codes, ComputeUniqueCodes<uint32_t>(n, cmp, pool));
  }
}

// 64-bit index instantiation takes the emission pass through the other
// template (different record layout, same artifacts).
TEST(Preprocess, Uint64IndexMatchesLegacy) {
  ThreadPool pool(3);
  const size_t n = 4000;
  Pcg32 rng(5);
  std::vector<uint64_t> codes(n);
  for (auto& c : codes) c = rng.Bounded(16);
  const auto pre =
      PreprocessHashedCodes<uint64_t>(codes, AllArtifacts(), pool);
  EXPECT_EQ(pre.prev, ComputePrevIndices<uint64_t>(codes, pool));
  EXPECT_EQ(pre.next, ComputeNextIndices<uint64_t>(codes, pool));
}

TEST(Preprocess, FusedRowCounterAdvances) {
  ThreadPool pool(3);
  const std::vector<uint64_t> codes(1000, 7);
  PreprocessRequest req;
  req.want_prev = true;
  const obs::CounterSnapshot before = obs::SnapshotCounters();
  PreprocessHashedCodes<uint32_t>(codes, req, pool);
  const obs::CounterSnapshot delta =
      obs::SnapshotDelta(before, obs::SnapshotCounters());
  EXPECT_EQ(delta[obs::Counter::kMstPreprocessFusedRows], 1000u);
}

}  // namespace
}  // namespace hwf
