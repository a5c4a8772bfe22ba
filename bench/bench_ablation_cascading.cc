// Ablation: fractional cascading on/off (§4.2). Without the cascading
// pointers every tree level re-runs a full binary search, turning the
// query phase from O(n log n) into O(n log² n). The build gets slightly
// cheaper (no pointer recording); total time should clearly favor
// cascading, and the gap should widen with n.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "mst/merge_sort_tree.h"
#include "parallel/thread_pool.h"

int main() {
  using namespace hwf;

  ThreadPool single(0);
  bench::PrintHeader("Ablation: fractional cascading (windowed rank, "
                     "single-threaded)");
  std::printf("%-10s %14s %14s %14s %14s %8s\n", "n", "build+q [s]",
              "build [s]", "no-casc [s]", "no-c build", "speedup");

  for (size_t base : {50000u, 200000u, 800000u}) {
    const size_t n = bench::Scaled(base);
    Pcg32 rng(23);
    std::vector<uint32_t> keys(n);
    for (auto& k : keys) k = rng.Next();

    double total[2];
    double build[2];
    for (int casc = 1; casc >= 0; --casc) {
      MergeSortTreeOptions options;
      options.use_cascading = casc != 0;
      bench::Timer timer;
      auto tree = MergeSortTree<uint32_t>::Build(keys, options, single);
      build[casc] = timer.Seconds();
      const size_t checksum = bench::RunningRankChecksum(
          tree, n, /*step=*/1, [&](size_t i) { return keys[i]; },
          kProbeGroupSize);
      total[casc] = timer.Seconds();
      volatile size_t sink = checksum;  // Defeat dead-code elimination.
      (void)sink;
    }
    std::printf("%-10zu %14.3f %14.3f %14.3f %14.3f %7.2fx\n", n, total[1],
                build[1], total[0], build[0], total[0] / total[1]);
  }
  return 0;
}
