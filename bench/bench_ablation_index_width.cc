// Ablation: 32-bit vs 64-bit tree indices (§5.1). The paper picks the
// width per partition at runtime: 32-bit indices halve the tree's memory
// footprint and the saved bandwidth also speeds up build and probe.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "mst/merge_sort_tree.h"
#include "parallel/thread_pool.h"
#include "storage/tpch_gen.h"
#include "window/executor.h"

int main() {
  using namespace hwf;

  const size_t n = bench::Scaled(1000000);
  bench::PrintHeader("Ablation: tree index width, n = " + std::to_string(n));

  // Raw tree: memory and build+probe time per width.
  {
    Pcg32 rng(41);
    std::vector<uint32_t> keys32(n);
    std::vector<uint64_t> keys64(n);
    for (size_t i = 0; i < n; ++i) {
      keys32[i] = rng.Next();
      keys64[i] = keys32[i];
    }
    ThreadPool single(0);
    bench::Timer t32;
    auto tree32 = MergeSortTree<uint32_t>::Build(std::move(keys32), {}, single);
    size_t check = bench::RunningRankChecksum(
        tree32, n, /*step=*/3, [](size_t) { return uint32_t{1} << 30; },
        kProbeGroupSize);
    const double s32 = t32.Seconds();
    bench::Timer t64;
    auto tree64 = MergeSortTree<uint64_t>::Build(std::move(keys64), {}, single);
    check += bench::RunningRankChecksum(
        tree64, n, /*step=*/3, [](size_t) { return uint64_t{1} << 30; },
        kProbeGroupSize);
    const double s64 = t64.Seconds();
    volatile size_t sink = check;  // Defeat dead-code elimination.
    (void)sink;
    std::printf("raw tree     32-bit: %7.3fs %7.1f MB   64-bit: %7.3fs %7.1f MB\n",
                s32, static_cast<double>(tree32.MemoryUsageBytes()) / 1e6,
                s64, static_cast<double>(tree64.MemoryUsageBytes()) / 1e6);
  }

  // End-to-end: framed distinct count through the window operator.
  {
    Table lineitem = GenerateLineitem(n, /*seed=*/42);
    WindowSpec spec;
    spec.order_by = {SortKey{lineitem.MustColumnIndex("l_shipdate")}};
    WindowFunctionCall call;
    call.kind = WindowFunctionKind::kCountDistinct;
    call.argument = lineitem.MustColumnIndex("l_partkey");
    for (int width : {32, 64}) {
      WindowExecutorOptions options;
      options.force_index_width = width;
      double seconds;
      bench::MeasureThroughput(lineitem, spec, call, options, &seconds);
      std::printf("distinct count end-to-end, %d-bit indices: %7.3fs\n",
                  width, seconds);
    }
  }
  return 0;
}
