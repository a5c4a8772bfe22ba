// Unit tests for the memory governance subsystem: budget accounting (incl.
// concurrent TryReserve races), arena reuse, spill-file run round-trips,
// spillable-vector reads against their resident baseline, the budgeted
// external sort, and the executor's infeasible-budget fail-fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "mem/chunk_arena.h"
#include "mem/external_sort.h"
#include "mem/memory_budget.h"
#include "mem/spill_file.h"
#include "mem/spillable_vector.h"
#include "obs/counters.h"
#include "tests/window_test_util.h"
#include "window/executor.h"

namespace hwf {
namespace mem {
namespace {

TEST(MemoryBudget, ReserveReleaseAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.limited());
  EXPECT_EQ(budget.limit_bytes(), 1000u);
  EXPECT_TRUE(budget.TryReserve(600).ok());
  EXPECT_EQ(budget.reserved_bytes(), 600u);
  EXPECT_EQ(budget.available_bytes(), 400u);
  // A request past the hard limit is denied and changes nothing.
  Status denied = budget.TryReserve(500);
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.reserved_bytes(), 600u);
  EXPECT_TRUE(budget.TryReserve(400).ok());
  EXPECT_EQ(budget.reserved_bytes(), 1000u);
  budget.Release(1000);
  EXPECT_EQ(budget.reserved_bytes(), 0u);
  EXPECT_EQ(budget.peak_reserved_bytes(), 1000u);
}

TEST(MemoryBudget, UnlimitedBudgetTracksWithoutDenying) {
  MemoryBudget budget;  // kUnlimited
  EXPECT_FALSE(budget.limited());
  EXPECT_TRUE(budget.TryReserve(size_t{1} << 40).ok());
  EXPECT_EQ(budget.reserved_bytes(), size_t{1} << 40);
  budget.Release(size_t{1} << 40);
}

TEST(MemoryBudget, SoftLimitSignalsBeforeHardLimit) {
  MemoryBudget budget(1000);  // Soft limit: 875.
  EXPECT_TRUE(budget.TryReserve(800).ok());
  EXPECT_FALSE(budget.over_soft_limit());
  EXPECT_TRUE(budget.TryReserve(100).ok());
  EXPECT_TRUE(budget.over_soft_limit());
  budget.Release(900);
}

TEST(MemoryBudget, ForceReserveOvershootsAndCounts) {
  const uint64_t before = obs::Value(obs::Counter::kMemForcedOverBudgetBytes);
  MemoryBudget budget(100);
  budget.ForceReserve(150);
  EXPECT_EQ(budget.reserved_bytes(), 150u);
  EXPECT_EQ(obs::Value(obs::Counter::kMemForcedOverBudgetBytes) - before,
            50u);
  budget.Release(150);
}

TEST(MemoryBudget, ConcurrentTryReserveNeverOvercommits) {
  constexpr size_t kLimit = 1 << 20;
  constexpr size_t kChunk = 4096;
  MemoryBudget budget(kLimit);
  std::atomic<bool> stop{false};
  std::atomic<bool> overcommitted{false};

  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (budget.reserved_bytes() > kLimit) {
        overcommitted.store(true, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      size_t held = 0;
      for (int i = 0; i < 20000; ++i) {
        if (budget.TryReserve(kChunk).ok()) {
          held += kChunk;
        } else if (held > 0) {
          budget.Release(held);
          held = 0;
        }
      }
      budget.Release(held);
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  EXPECT_FALSE(overcommitted.load());
  EXPECT_EQ(budget.reserved_bytes(), 0u);
  EXPECT_LE(budget.peak_reserved_bytes(), kLimit);
}

TEST(ChunkArena, AllocatesAlignedAndAccountsAgainstBudget) {
  MemoryBudget budget(1 << 20);
  {
    ChunkArena arena(&budget, /*min_chunk_bytes=*/4096);
    void* a = arena.Allocate(100, 64);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
    double* d = arena.AllocateArray<double>(32);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
    EXPECT_GT(budget.reserved_bytes(), 0u);
    // Writes must not overlap.
    std::fill_n(static_cast<char*>(a), 100, 'x');
    std::fill_n(d, 32, 1.5);
    EXPECT_EQ(static_cast<char*>(a)[99], 'x');
    EXPECT_EQ(d[31], 1.5);
  }
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

TEST(ChunkArena, ResetReusesChunksWithoutGrowingReservation) {
  MemoryBudget budget(1 << 20);
  ChunkArena arena(&budget, 4096);
  for (int i = 0; i < 8; ++i) arena.Allocate(1000);
  const size_t reserved_after_first_round = budget.reserved_bytes();
  for (int round = 0; round < 10; ++round) {
    arena.Reset();
    for (int i = 0; i < 8; ++i) arena.Allocate(1000);
  }
  // Reset rewound the cursor: same chunks, same reservation.
  EXPECT_EQ(budget.reserved_bytes(), reserved_after_first_round);
}

TEST(SpillFile, RunRoundTripIncludingShortTailPage) {
  StatusOr<std::unique_ptr<SpillFile>> file = SpillFile::Create();
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  // Deliberately not a multiple of the page row count.
  const size_t n = RunWriter<int64_t>::kRowsPerPage * 3 + 17;
  std::vector<int64_t> rows(n);
  Pcg32 rng(42);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<int64_t>(rng.Next());

  const uint64_t region =
      (*file)->AllocateRegion(RunWriter<int64_t>::RegionBytesFor(n));
  RunWriter<int64_t> writer(file->get(), region);
  ASSERT_TRUE(writer.AppendBatch(rows.data(), n).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.rows_written(), n);

  // Read back through a small buffer to exercise multiple refills.
  RunReader<int64_t> reader(file->get(), region, n, /*pages_per_refill=*/1);
  std::vector<int64_t> read_back;
  for (;;) {
    StatusOr<size_t> got = reader.Refill();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (*got == 0) break;
    read_back.insert(read_back.end(), reader.data(), reader.data() + *got);
  }
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(read_back, rows);
}

TEST(SpillableVector, SpilledReadsMatchResidentBaseline) {
  const size_t n = SpillableVector<int32_t>::kRowsPerPage * 2 + 333;
  std::vector<int32_t> baseline(n);
  for (size_t i = 0; i < n; ++i) baseline[i] = static_cast<int32_t>(i * 7);

  MemoryBudget budget(size_t{1} << 30);
  SpillableVector<int32_t> vec;
  vec.Attach(&budget);
  vec.AssignResident(std::vector<int32_t>(baseline));
  EXPECT_GT(vec.resident_bytes(), 0u);

  StatusOr<std::unique_ptr<SpillFile>> file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(vec.Spill(file->get()).ok());
  EXPECT_TRUE(vec.spilled());
  EXPECT_EQ(vec.resident_bytes(), 0u);
  EXPECT_EQ(budget.reserved_bytes(), 0u);  // Reservation returned on spill.

  // Point reads through the page cache.
  for (size_t i = 0; i < n; i += 97) EXPECT_EQ(vec.Get(i), baseline[i]);
  EXPECT_EQ(vec.Get(n - 1), baseline[n - 1]);

  // Range reads (page-spanning).
  std::vector<int32_t> range(2000);
  vec.ReadRange(n / 2 - 1000, n / 2 + 1000, range.data());
  EXPECT_TRUE(std::equal(range.begin(), range.end(),
                         baseline.begin() + (n / 2 - 1000)));

  // Binary searches against the sorted content.
  for (int32_t probe : {0, 7, 8, 700, static_cast<int32_t>(n * 7), -5}) {
    EXPECT_EQ(vec.LowerBound(0, n, probe),
              static_cast<size_t>(std::lower_bound(baseline.begin(),
                                                   baseline.end(), probe) -
                                  baseline.begin()))
        << "probe " << probe;
  }
}

TEST(ExternalSort, TightBudgetSpillsAndMatchesStdSort) {
  const size_t n = 200000;
  std::vector<int64_t> data(n);
  Pcg32 rng(7);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<int64_t>(rng.Bounded(1000));  // Heavy duplicates.
  }
  std::vector<int64_t> expected = data;
  std::sort(expected.begin(), expected.end());

  // Budget far below the n-element merge buffer forces the external path.
  MemoryBudget budget(n * sizeof(int64_t) / 4);
  MemoryContext ctx{&budget, /*allow_spill=*/true, nullptr};
  const uint64_t runs_before = obs::Value(obs::Counter::kMemExternalSortRuns);
  Status status = SortWithBudget(
      data, [](int64_t a, int64_t b) { return a < b; },
      ThreadPool::Default(), ctx);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(data, expected);
  EXPECT_GT(obs::Value(obs::Counter::kMemExternalSortRuns), runs_before);
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

// A trivially copyable (spillable) record.
struct Row {
  uint64_t key;
  uint64_t row;
  bool operator<(const Row& o) const {
    return key != o.key ? key < o.key : row < o.row;
  }
  bool operator==(const Row& o) const { return key == o.key && row == o.row; }
};

// Chunks, their scratch and the run readers are sized to the budget: a
// four-run external sort completes without forcing bytes over the limit.
TEST(ExternalSort, RunMergeStaysWithinBudget) {
  // 1.5 MiB budget: chunks of 1.5 MiB / 32 = 49152 rows (half the budget
  // each, plus an equal scratch), so 4 chunks and 4 readers of 4 pages
  // (1 MiB).
  const size_t limit = 3 * kSpillPageBytes * 8;
  const size_t n = 4 * (limit / (2 * sizeof(Row)));
  std::vector<Row> data(n);
  Pcg32 rng(11);
  for (size_t i = 0; i < n; ++i) data[i] = {rng.Bounded(1000), i};
  std::vector<Row> expected = data;
  std::sort(expected.begin(), expected.end());

  MemoryBudget budget(limit);
  MemoryContext ctx{&budget, /*allow_spill=*/true, nullptr};
  const uint64_t runs_before = obs::Value(obs::Counter::kMemExternalSortRuns);
  const uint64_t forced_before =
      obs::Value(obs::Counter::kMemForcedOverBudgetBytes);
  Status status = SortWithBudget(
      data, [](const Row& a, const Row& b) { return a < b; },
      ThreadPool::Default(), ctx);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(data, expected);
  EXPECT_EQ(obs::Value(obs::Counter::kMemExternalSortRuns) - runs_before, 4u);
  EXPECT_EQ(obs::Value(obs::Counter::kMemForcedOverBudgetBytes) -
                forced_before,
            0u);
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

TEST(ExternalSort, UnlimitedBudgetSortsInMemory) {
  std::vector<int64_t> data = {5, 3, 8, 1, 9, 2, 7};
  MemoryContext ctx{};  // No budget at all.
  Status status = SortWithBudget(
      data, [](int64_t a, int64_t b) { return a < b; },
      ThreadPool::Default(), ctx);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(ParseMemorySize, AcceptsSuffixesRejectsGarbage) {
  size_t bytes = 0;
  EXPECT_TRUE(ParseMemorySize("65536", &bytes));
  EXPECT_EQ(bytes, 65536u);
  EXPECT_TRUE(ParseMemorySize("512K", &bytes));
  EXPECT_EQ(bytes, size_t{512} << 10);
  EXPECT_TRUE(ParseMemorySize("256M", &bytes));
  EXPECT_EQ(bytes, size_t{256} << 20);
  EXPECT_TRUE(ParseMemorySize("2g", &bytes));
  EXPECT_EQ(bytes, size_t{2} << 30);
  EXPECT_TRUE(ParseMemorySize("128MB", &bytes));
  EXPECT_EQ(bytes, size_t{128} << 20);

  bytes = 77;
  EXPECT_FALSE(ParseMemorySize("", &bytes));
  EXPECT_FALSE(ParseMemorySize("M", &bytes));
  EXPECT_FALSE(ParseMemorySize("12X", &bytes));
  EXPECT_FALSE(ParseMemorySize("12MBs", &bytes));
  EXPECT_FALSE(ParseMemorySize("-5M", &bytes));
  EXPECT_FALSE(ParseMemorySize("99999999999999999999999", &bytes));
  EXPECT_EQ(bytes, 77u);  // Untouched on failure.
}

TEST(ExecutorBudget, InfeasibleBudgetFailsFastWithCleanStatus) {
  Table table = test::MakeRandomTable(5000, /*seed=*/1);
  WindowSpec spec;
  spec.order_by.push_back(SortKey{1, true, true});
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kSum;
  call.argument = 2;

  WindowExecutorOptions options;
  options.memory_limit_bytes = 1024;  // Cannot hold even the permutation.
  StatusOr<Column> result = EvaluateWindowFunction(table, spec, call, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace mem
}  // namespace hwf
