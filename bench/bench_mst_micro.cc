// Micro-benchmarks of the merge sort tree primitives under
// google-benchmark: build and the batched count / select probes per tree
// size, the DENSE_RANK range tree's build and probe, plus the
// preprocessing steps (Algorithm 1 and permutation arrays).
//
// Extra flag (consumed before google-benchmark sees the command line):
//   --levels_json=PATH      additionally writes per-level build timings as
//                           JSON to PATH, so build-phase changes are
//                           reproducible and trackable (BENCH_*.json)
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mst/dense_rank_tree.h"
#include "mst/merge_sort_tree.h"
#include "mst/permutation.h"
#include "mst/prev_index.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"

namespace {

using namespace hwf;

std::vector<uint32_t> RandomKeys(size_t n) {
  Pcg32 rng(n);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = rng.Next();
  return keys;
}

void BM_TreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> keys = RandomKeys(n);
  ThreadPool single(0);
  for (auto _ : state) {
    auto tree = MergeSortTree<uint32_t>::Build(keys, {}, single);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_TreeBuild)->Range(1 << 10, 1 << 20);

// Parallel build at the paper's default f = k = 32 — the bottleneck phase
// of Fig. 14.
void BM_TreeBuildParallel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> keys = RandomKeys(n);
  for (auto _ : state) {
    auto tree =
        MergeSortTree<uint32_t>::Build(keys, {}, ThreadPool::Default());
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_TreeBuildParallel)->Range(1 << 16, 1 << 22);

// The batched probe kernel over a stream of count queries at the
// evaluators' group size. Items processed = queries answered.
void BM_CountLessBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> keys = RandomKeys(n);
  ThreadPool single(0);
  auto tree = MergeSortTree<uint32_t>::Build(keys, {}, single);
  constexpr size_t kStream = 2048;
  Pcg32 rng(13);
  std::vector<MergeSortTree<uint32_t>::CountQuery> queries(kStream);
  for (auto& q : queries) {
    const size_t i = rng.Bounded(static_cast<uint32_t>(n));
    q = {0, i + 1, keys[i]};
  }
  std::vector<size_t> out(kStream);
  for (auto _ : state) {
    tree.CountLessBatch(queries, kProbeGroupSize, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kStream) * state.iterations());
}
BENCHMARK(BM_CountLessBatch)->Range(1 << 14, 1 << 22);

void BM_SelectBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(i);
  Pcg32 shuffle(3);
  for (size_t i = n; i > 1; --i) {
    std::swap(keys[i - 1], keys[shuffle.Bounded(static_cast<uint32_t>(i))]);
  }
  ThreadPool single(0);
  auto tree = MergeSortTree<uint32_t>::Build(keys, {}, single);
  constexpr size_t kStream = 2048;
  Pcg32 rng(17);
  std::vector<KeyRange<uint32_t>> range_pool(kStream);
  std::vector<MergeSortTree<uint32_t>::SelectQuery> queries(kStream);
  for (size_t q = 0; q < kStream; ++q) {
    // Median within a random key window of ~n/8 elements.
    const uint32_t lo = rng.Bounded(static_cast<uint32_t>(n - n / 8));
    range_pool[q] = {lo, lo + static_cast<uint32_t>(n / 8)};
    queries[q] = {static_cast<uint32_t>(q), 1, n / 16};
  }
  std::vector<size_t> out(kStream);
  for (auto _ : state) {
    tree.SelectBatch(range_pool, queries, kProbeGroupSize, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kStream) * state.iterations());
}
BENCHMARK(BM_SelectBatch)->Range(1 << 14, 1 << 22);

// DENSE_RANK's range tree on one perfbench-shaped partition: 10K rows,
// 500 distinct codes, `ROWS 100 PRECEDING` frames (101 rows).
constexpr size_t kDenseRankRows = 10000;
constexpr uint32_t kDenseRankCodes = 500;
constexpr size_t kDenseRankFrame = 101;

std::vector<uint32_t> DenseRankCodes() {
  Pcg32 rng(kDenseRankRows);
  std::vector<uint32_t> codes(kDenseRankRows);
  for (auto& c : codes) c = rng.Bounded(kDenseRankCodes);
  return codes;
}

void BM_DenseRankBuild(benchmark::State& state) {
  const std::vector<uint32_t> codes = DenseRankCodes();
  ThreadPool single(0);
  for (auto _ : state) {
    auto tree = DenseRankTree<uint32_t>::Build(codes, {}, single);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(codes.size()) *
                          state.iterations());
}
BENCHMARK(BM_DenseRankBuild);

// One query per row: distinct codes below the row's code in its frame.
// Items processed = rows answered.
void BM_DenseRankProbe(benchmark::State& state) {
  const std::vector<uint32_t> codes = DenseRankCodes();
  ThreadPool single(0);
  const auto tree = DenseRankTree<uint32_t>::Build(codes, {}, single);
  std::vector<DenseRankTree<uint32_t>::DistinctQuery> queries(codes.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    const size_t lo = i + 1 > kDenseRankFrame ? i + 1 - kDenseRankFrame : 0;
    queries[i] = {lo, i + 1, codes[i]};
  }
  std::vector<size_t> out(queries.size());
  for (auto _ : state) {
    tree.CountDistinctLessBatch(queries, kProbeGroupSize, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries.size()) *
                          state.iterations());
  state.counters["bytes_per_row"] =
      static_cast<double>(tree.MemoryUsageBytes()) / codes.size();
}
BENCHMARK(BM_DenseRankProbe);

void BM_PrevIndices(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Pcg32 rng(n);
  std::vector<uint64_t> codes(n);
  for (auto& c : codes) c = rng.Bounded(static_cast<uint32_t>(n / 30 + 1));
  ThreadPool single(0);
  for (auto _ : state) {
    auto prev = ComputePrevIndices<uint32_t>(codes, single);
    benchmark::DoNotOptimize(prev.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PrevIndices)->Range(1 << 12, 1 << 20);

void BM_Permutation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> keys = RandomKeys(n);
  ThreadPool single(0);
  for (auto _ : state) {
    auto perm = ComputePermutation<uint32_t>(
        n, [&](size_t a, size_t b) { return keys[a] < keys[b]; }, single);
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Permutation)->Range(1 << 12, 1 << 20);

/// Measures a serial build at n = 2^20, f = k = 32, and writes per-level
/// wall times (best of `reps`) as JSON:
///   {"n":..., "fanout":32, "sampling":32, "levels":[s,...], "total":s}
/// Per-level timings come from the tree build's ExecutionProfile reporting
/// (the same channel WindowExecutorOptions::profile uses), so this file and
/// executor profiles can never disagree about what was measured.
void WriteLevelsJson(const std::string& path) {
  const size_t n = 1 << 20;
  const int reps = 5;
  std::vector<uint32_t> keys = RandomKeys(n);
  ThreadPool single(0);
  std::vector<double> best;
  double best_total = 0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::ExecutionProfile profile;
    MergeSortTreeOptions options;
    options.profile = &profile;
    auto tree = MergeSortTree<uint32_t>::Build(keys, options, single);
    benchmark::DoNotOptimize(tree.size());
    const std::vector<double> level_seconds = profile.tree_level_seconds();
    double total = 0;
    for (double s : level_seconds) total += s;
    if (best.empty() || total < best_total) {
      best = level_seconds;
      best_total = total;
    }
  }
  std::string levels;
  for (double s : best) {
    if (!levels.empty()) levels += ", ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", s);
    levels += buf;
  }
  char total[32];
  std::snprintf(total, sizeof total, "%.6f", best_total);
  const std::string body = "{\n  \"n\": " + std::to_string(n) +
                           ", \"fanout\": 32, \"sampling\": 32,\n" +
                           "  \"levels\": [" + levels + "], \"total\": " +
                           total + "\n}\n";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote per-level build timings to %s\n",
                 path.c_str());
  } else {
    std::fprintf(stderr, "failed to open %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flag before handing the rest to google-benchmark.
  std::string levels_json;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--levels_json=", 14) == 0) {
      levels_json = argv[i] + 14;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!levels_json.empty()) WriteLevelsJson(levels_json);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
