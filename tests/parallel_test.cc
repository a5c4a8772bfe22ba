#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "parallel/introsort.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"
#include "parallel/thread_pool.h"

namespace hwf {
namespace {

TEST(ThreadPool, ZeroWorkersStillRunsViaCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  EXPECT_EQ(pool.parallelism(), 1);
  std::atomic<int> counter{0};
  ParallelForEach(
      0, 100, [&](size_t) { counter.fetch_add(1); }, pool, 7);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, TaskGroupJoinsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 50; ++i) {
      group.Run([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(counter.load(), 50);
  }
}

TEST(ThreadPool, ShortLivedTaskGroupsOnWorkers) {
  // Each group is destroyed right after Wait() returns, while the worker
  // that ran its last task may still be finishing the completion
  // broadcast; that broadcast must not reach back into the freed group.
  // Heap groups let ASan flag any such access.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  constexpr int kGroups = 20000;
  for (int g = 0; g < kGroups; ++g) {
    auto group = std::make_unique<TaskGroup>(pool);
    for (int t = 0; t < 4; ++t) {
      group->Run([&counter] { counter.fetch_add(1); });
    }
    group->Wait();
  }
  EXPECT_EQ(counter.load(), 4 * kGroups);
}

TEST(ParallelFor, CoversEveryElementExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 10u, 1000u, 100000u}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        },
        pool, 137);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " n=" << n;
    }
  }
}

TEST(ParallelFor, RespectsMorselBoundaries) {
  ThreadPool pool(2);
  std::atomic<size_t> max_chunk{0};
  ParallelFor(
      0, 1000,
      [&](size_t lo, size_t hi) {
        size_t chunk = hi - lo;
        size_t prev = max_chunk.load();
        while (chunk > prev && !max_chunk.compare_exchange_weak(prev, chunk)) {
        }
      },
      pool, 64);
  EXPECT_LE(max_chunk.load(), 64u);
}

TEST(Introsort, SortsWithBothPartitionSchemes) {
  Pcg32 rng(7);
  for (PartitionScheme scheme :
       {PartitionScheme::kTwoWay, PartitionScheme::kThreeWay}) {
    for (size_t n : {0u, 1u, 2u, 25u, 1000u, 20000u}) {
      std::vector<int> data(n);
      for (auto& v : data) v = static_cast<int>(rng.Bounded(100));
      std::vector<int> expected = data;
      std::sort(expected.begin(), expected.end());
      Introsort(data.begin(), data.end(), std::less<int>(), scheme);
      EXPECT_EQ(data, expected) << "n=" << n;
    }
  }
}

TEST(Introsort, HandlesAdversarialPatterns) {
  for (PartitionScheme scheme :
       {PartitionScheme::kTwoWay, PartitionScheme::kThreeWay}) {
    // All equal (the §5.3 quadratic trigger for 2-way — must still be
    // correct, just slower).
    std::vector<int> equal(5000, 42);
    Introsort(equal.begin(), equal.end(), std::less<int>(), scheme);
    EXPECT_TRUE(std::is_sorted(equal.begin(), equal.end()));
    // Already sorted / reversed.
    std::vector<int> asc(5000);
    std::iota(asc.begin(), asc.end(), 0);
    std::vector<int> desc(asc.rbegin(), asc.rend());
    Introsort(desc.begin(), desc.end(), std::less<int>(), scheme);
    EXPECT_TRUE(std::is_sorted(desc.begin(), desc.end()));
    // Organ pipe.
    std::vector<int> pipe;
    for (int i = 0; i < 2500; ++i) pipe.push_back(i);
    for (int i = 2500; i > 0; --i) pipe.push_back(i);
    Introsort(pipe.begin(), pipe.end(), std::less<int>(), scheme);
    EXPECT_TRUE(std::is_sorted(pipe.begin(), pipe.end()));
  }
}

TEST(CoRank, MatchesSequentialMergePrefix) {
  Pcg32 rng(11);
  for (int round = 0; round < 30; ++round) {
    const size_t na = rng.Bounded(200);
    const size_t nb = rng.Bounded(200);
    std::vector<int> a(na), b(nb);
    for (auto& v : a) v = static_cast<int>(rng.Bounded(50));
    for (auto& v : b) v = static_cast<int>(rng.Bounded(50));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<int> merged(na + nb);
    MergeSequential(a.data(), na, b.data(), nb, merged.data(),
                    std::less<int>());
    for (size_t k = 0; k <= na + nb; k += 13) {
      auto [i, j] = CoRank(k, a.data(), na, b.data(), nb, std::less<int>());
      ASSERT_EQ(i + j, k);
      // Merging the prefixes must give the merged prefix exactly.
      std::vector<int> prefix(k);
      MergeSequential(a.data(), i, b.data(), j, prefix.data(),
                      std::less<int>());
      for (size_t x = 0; x < k; ++x) ASSERT_EQ(prefix[x], merged[x]);
    }
  }
}

using SortParams = std::tuple<size_t, int, size_t>;  // (n, threads, run_size)

class ParallelSortParamTest : public ::testing::TestWithParam<SortParams> {};

TEST_P(ParallelSortParamTest, MatchesStdSort) {
  const auto [n, threads, run_size] = GetParam();
  ThreadPool pool(threads);
  Pcg32 rng(n * 31 + static_cast<size_t>(threads));
  std::vector<uint64_t> data(n);
  for (auto& v : data) v = rng.Bounded(1000);
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  ParallelSort(
      data, [](uint64_t a, uint64_t b) { return a < b; }, pool, run_size);
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortParamTest,
    ::testing::Combine(::testing::Values<size_t>(0, 1, 2, 100, 1000, 65536,
                                                 100001),
                       ::testing::Values(0, 2, 5),       // threads
                       ::testing::Values<size_t>(64, 1000, 20000)));

TEST(ParallelForStatus, OkWhenEveryMorselSucceeds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  Status status = ParallelForStatus(
      0, hits.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        return Status::OK();
      },
      pool, 97);
  EXPECT_TRUE(status.ok());
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForStatus, ConcurrentFailuresReportLowestMorselDeterministically) {
  // Many morsels fail with distinct messages; the reported error must always
  // be the failing morsel with the smallest start index, for every thread
  // count and across repeated runs (first-error-wins must not be a race).
  for (int threads : {0, 1, 4, 7}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      Status status = ParallelForStatus(
          0, 100000,
          [](size_t lo, size_t) {
            if (lo >= 30000 && lo % 3 == 0) {
              return Status::Internal("fail@" + std::to_string(lo));
            }
            return Status::OK();
          },
          pool, 1000);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInternal);
      // Lowest failing morsel start: 30000 (30000 % 3 == 0).
      EXPECT_EQ(status.message(), "fail@30000")
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ParallelForStatus, ErrorShortCircuitsRemainingMorsels) {
  // After the first morsel fails, later morsels must stop being claimed:
  // with an error at the very first morsel, far fewer than all morsels run.
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  Status status = ParallelForStatus(
      0, 1000000,
      [&](size_t lo, size_t) {
        ran.fetch_add(1);
        if (lo == 0) return Status::InvalidArgument("boom");
        return Status::OK();
      },
      pool, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "boom");
  // 10000 morsels total; in-flight runners may finish a handful each, but
  // the claim loop must break well before the full range.
  EXPECT_LT(ran.load(), 10000u / 2);
}

TEST(ParallelForStatus, MorselErrorBeatsCancellation) {
  // A recorded morsel error takes precedence over the stop token's status.
  ThreadPool pool(2);
  StopSource source;
  ScopedStopToken scope(source.token());
  Status status = ParallelForStatus(
      0, 100000,
      [&](size_t lo, size_t) {
        if (lo == 0) {
          Status err = Status::Internal("real error");
          source.RequestStop();
          return err;
        }
        return Status::OK();
      },
      pool, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "real error");
}

TEST(ParallelForStatus, CancellationStopsClaimingAndReturnsCancelled) {
  ThreadPool pool(4);
  StopSource source;
  ScopedStopToken scope(source.token());
  std::atomic<size_t> ran{0};
  Status status = ParallelForStatus(
      0, 1000000,
      [&](size_t, size_t) {
        if (ran.fetch_add(1) == 0) source.RequestStop();
        return Status::OK();
      },
      pool, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LT(ran.load(), 10000u / 2);
}

TEST(ParallelFor, CancellationPropagatesToNestedRegions) {
  // The ambient token installed by the caller must be observed by morsels
  // running on pool workers (ParallelFor re-installs it per runner).
  ThreadPool pool(4);
  StopSource source;
  source.RequestStop();
  ScopedStopToken scope(source.token());
  std::atomic<size_t> ran{0};
  ParallelFor(
      0, 1000000, [&](size_t, size_t) { ran.fetch_add(1); }, pool, 100);
  // Stopped before entry: nothing should run.
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_EQ(CheckStop().code(), StatusCode::kCancelled);
}

TEST(StopToken, DeadlineLatchesDeadlineExceeded) {
  StopSource source;
  source.SetDeadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  StopToken token = source.token();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
  // A later cancel must not overwrite the latched deadline reason.
  source.RequestStop();
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(StopToken, DefaultTokenNeverStops) {
  StopToken token;
  EXPECT_FALSE(token.can_stop());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_TRUE(token.status().ok());
}

TEST(ParallelSort, DeterministicAcrossThreadCounts) {
  // With a strict total order, results must be bit-identical regardless of
  // parallelism.
  Pcg32 rng(5);
  std::vector<std::pair<uint32_t, uint32_t>> base(50000);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = {rng.Bounded(100), static_cast<uint32_t>(i)};
  }
  auto less = [](const auto& a, const auto& b) { return a < b; };
  std::vector<std::pair<uint32_t, uint32_t>> serial = base;
  {
    ThreadPool pool(0);
    ParallelSort(serial, less, pool, 1024);
  }
  std::vector<std::pair<uint32_t, uint32_t>> parallel = base;
  {
    ThreadPool pool(7);
    ParallelSort(parallel, less, pool, 1024);
  }
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace hwf
