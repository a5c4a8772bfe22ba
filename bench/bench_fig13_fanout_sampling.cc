// Figure 13: runtime of a windowed rank for different fanout f and
// cascading-pointer sampling k, single-threaded, uniform random integers.
// The paper's grid (f ∈ {2..256}, k ∈ {1..1024}) reports runtimes relative
// to the fastest cell; f = k = 32 is the configuration Hyper ships because
// it is near-optimal in time while exponentially smaller in memory than
// smaller fanouts.
//
// Expected shape: a shallow basin around mid-sized f and k; very small k
// at large f explodes (many pointers per sample); very large k degrades
// toward non-cascaded searches.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "mst/merge_sort_tree.h"
#include "parallel/thread_pool.h"

int main() {
  using namespace hwf;

  const size_t n = bench::Scaled(200000);
  Pcg32 rng(13);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = rng.Next();

  // Rank query workload: running frame, rank of the current row's key.
  ThreadPool single(0);
  const std::vector<size_t> fanouts = {2, 4, 8, 16, 32, 64, 128, 256};
  const std::vector<size_t> samplings = {1,  2,  4,   8,   16,  32,
                                         64, 128, 256, 512, 1024};

  std::vector<std::vector<double>> seconds(
      fanouts.size(), std::vector<double>(samplings.size()));
  double best = 1e100;
  for (size_t fi = 0; fi < fanouts.size(); ++fi) {
    for (size_t ki = 0; ki < samplings.size(); ++ki) {
      MergeSortTreeOptions options;
      options.fanout = fanouts[fi];
      options.sampling = samplings[ki];
      bench::Timer timer;
      auto tree = MergeSortTree<uint32_t>::Build(keys, options, single);
      const size_t checksum = bench::RunningRankChecksum(
          tree, n, /*step=*/1, [&](size_t i) { return keys[i]; },
          kProbeGroupSize);
      seconds[fi][ki] = timer.Seconds();
      if (seconds[fi][ki] < best) best = seconds[fi][ki];
      volatile size_t sink = checksum;  // Defeat dead-code elimination.
      (void)sink;
    }
  }

  bench::PrintHeader(
      "Figure 13: windowed rank build+query time (relative to best), n = " +
      std::to_string(n) + ", single-threaded");
  std::printf("fanout\\k ");
  for (size_t k : samplings) std::printf("%7zu", k);
  std::printf("\n");
  for (size_t fi = 0; fi < fanouts.size(); ++fi) {
    std::printf("%-8zu ", fanouts[fi]);
    for (size_t ki = 0; ki < samplings.size(); ++ki) {
      std::printf("%7.2f", seconds[fi][ki] / best);
    }
    std::printf("\n");
  }

  // Memory consumption at the paper's two highlighted configurations.
  for (auto [f, k] : {std::pair<size_t, size_t>{16, 4}, {32, 32}}) {
    MergeSortTreeOptions options;
    options.fanout = f;
    options.sampling = k;
    auto tree = MergeSortTree<uint32_t>::Build(keys, options, single);
    std::printf("memory at f=%zu k=%zu: %.1f MB\n", f, k,
                static_cast<double>(tree.MemoryUsageBytes()) / 1e6);
  }
  return 0;
}
