// Tests of the loser-tree merge kernel (loser_tree.h) against a
// std::stable_sort of the concatenated child runs: output runs, payload
// permutations and cascading pointers (per-child counts of the elements
// emitted before each sample) must be byte-identical across fanouts,
// sampling intervals, chunked merging and duplicate-heavy key
// distributions — this is the stability/tie-break invariant the merge sort
// tree build relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "mst/loser_tree.h"
#include "mst/merge_sort_tree.h"
#include "parallel/parallel_sort.h"
#include "parallel/thread_pool.h"

namespace hwf {
namespace {

struct RunSet {
  std::vector<std::vector<uint32_t>> keys;
  std::vector<std::vector<uint64_t>> payloads;
  std::vector<const uint32_t*> key_ptrs;
  std::vector<const uint64_t*> payload_ptrs;
  std::vector<size_t> lens;
  size_t total = 0;
};

/// Builds `num_children` sorted runs with keys drawn from [0, key_range)
/// (small ranges ⇒ heavy duplicates). Payload encodes (child, offset) so a
/// wrong tie-break is always visible.
RunSet MakeRuns(Pcg32& rng, size_t num_children, uint32_t key_range,
                size_t max_len, bool allow_empty) {
  RunSet runs;
  runs.keys.resize(num_children);
  runs.payloads.resize(num_children);
  for (size_t c = 0; c < num_children; ++c) {
    const size_t len =
        allow_empty ? rng.Bounded(static_cast<uint32_t>(max_len + 1))
                    : 1 + rng.Bounded(static_cast<uint32_t>(max_len));
    runs.keys[c].resize(len);
    for (auto& k : runs.keys[c]) k = rng.Bounded(key_range);
    std::sort(runs.keys[c].begin(), runs.keys[c].end());
    runs.payloads[c].resize(len);
    for (size_t i = 0; i < len; ++i) {
      runs.payloads[c][i] = (static_cast<uint64_t>(c) << 32) | i;
    }
    runs.total += len;
  }
  for (size_t c = 0; c < num_children; ++c) {
    runs.key_ptrs.push_back(runs.keys[c].data());
    runs.payload_ptrs.push_back(runs.payloads[c].data());
    runs.lens.push_back(runs.keys[c].size());
  }
  return runs;
}

struct MergeResult {
  std::vector<uint32_t> out;
  std::vector<uint64_t> out_payload;
  std::vector<uint32_t> cascade;
};

/// The reference merge: a stable sort of the child runs concatenated in
/// child order (ties therefore break by child index, then run offset).
/// Cascade sample s holds, for every child, how many of its elements
/// precede output position s·sampling; slots past num_children are 0.
MergeResult OracleMerge(const RunSet& runs, size_t sampling, size_t fanout,
                        bool with_cascade) {
  struct Entry {
    uint32_t key;
    size_t child;
    size_t offset;
  };
  std::vector<Entry> entries;
  for (size_t c = 0; c < runs.keys.size(); ++c) {
    for (size_t i = 0; i < runs.keys[c].size(); ++i) {
      entries.push_back({runs.keys[c][i], c, i});
    }
  }
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.key < b.key; });
  MergeResult result;
  const size_t num_samples =
      runs.total == 0 ? 1 : (runs.total - 1) / sampling + 1;
  result.cascade.assign(with_cascade ? num_samples * fanout : 0, 0xabababu);
  std::vector<uint32_t> consumed(runs.keys.size(), 0);
  for (size_t o = 0; o < entries.size(); ++o) {
    if (with_cascade && o % sampling == 0) {
      uint32_t* slot = result.cascade.data() + (o / sampling) * fanout;
      for (size_t c = 0; c < fanout; ++c) {
        slot[c] = c < consumed.size() ? consumed[c] : 0;
      }
    }
    const Entry& e = entries[o];
    result.out.push_back(e.key);
    result.out_payload.push_back(runs.payloads[e.child][e.offset]);
    ++consumed[e.child];
  }
  return result;
}

template <bool kHasPayload>
MergeResult RunLoserTree(const RunSet& runs, size_t sampling, size_t fanout,
                         bool with_cascade) {
  MergeResult result;
  result.out.assign(runs.total, 0xdeadbeef);
  result.out_payload.assign(kHasPayload ? runs.total : 0, ~uint64_t{0});
  const size_t num_samples =
      runs.total == 0 ? 1 : (runs.total - 1) / sampling + 1;
  result.cascade.assign(with_cascade ? num_samples * fanout : 0, 0xabababu);
  uint32_t* cascade_out = with_cascade ? result.cascade.data() : nullptr;
  MergeScratch<uint32_t, uint64_t> scratch;
  internal_mst::MergeRunLoserTree<uint32_t, uint64_t, kHasPayload>(
      scratch, runs.key_ptrs.data(), runs.lens.data(), runs.key_ptrs.size(),
      result.out.data(), runs.total, cascade_out, sampling, fanout,
      runs.payload_ptrs.data(),
      kHasPayload ? result.out_payload.data() : nullptr);
  return result;
}

template <bool kHasPayload>
void CheckWholeRunMatchesOracle(bool with_cascade) {
  Pcg32 rng(kHasPayload ? 101 : 202);
  for (size_t fanout : {2u, 3u, 5u, 32u}) {
    for (size_t sampling : {1u, 3u, 32u}) {
      for (int round = 0; round < 8; ++round) {
        const size_t num_children = 1 + rng.Bounded(static_cast<uint32_t>(fanout));
        // Key ranges from 3 (nearly all duplicates) to large.
        const uint32_t key_range = round % 2 == 0 ? 3 + rng.Bounded(10)
                                                  : 1 + rng.Bounded(1 << 20);
        RunSet runs =
            MakeRuns(rng, num_children, key_range, 200, /*allow_empty=*/true);
        if (runs.total == 0) continue;
        MergeResult expected =
            OracleMerge(runs, sampling, fanout, with_cascade);
        if (!kHasPayload) expected.out_payload.clear();
        MergeResult loser =
            RunLoserTree<kHasPayload>(runs, sampling, fanout, with_cascade);
        ASSERT_EQ(expected.out, loser.out)
            << "fanout=" << fanout << " sampling=" << sampling
            << " children=" << num_children;
        ASSERT_EQ(expected.out_payload, loser.out_payload)
            << "fanout=" << fanout << " sampling=" << sampling;
        ASSERT_EQ(expected.cascade, loser.cascade)
            << "fanout=" << fanout << " sampling=" << sampling;
      }
    }
  }
}

TEST(LoserTreeMerge, LoserMatchesStableSortKeysOnly) {
  CheckWholeRunMatchesOracle<false>(/*with_cascade=*/false);
}

TEST(LoserTreeMerge, LoserMatchesStableSortKeysOnlyWithCascade) {
  CheckWholeRunMatchesOracle<false>(/*with_cascade=*/true);
}

TEST(LoserTreeMerge, LoserMatchesStableSortWithPayload) {
  CheckWholeRunMatchesOracle<true>(/*with_cascade=*/false);
}

TEST(LoserTreeMerge, LoserMatchesStableSortWithPayloadAndCascade) {
  CheckWholeRunMatchesOracle<true>(/*with_cascade=*/true);
}

/// Chunked merging (§5.2 upper-level strategy): splitting the output at
/// arbitrary ranks via MultiwaySelect and merging each chunk must
/// reassemble to exactly the whole-run merge, including the cascade
/// samples that land inside each chunk.
TEST(LoserTreeMerge, ChunkedMergeMatchesWholeRun) {
  Pcg32 rng(303);
  for (size_t fanout : {3u, 5u, 32u}) {
    for (size_t sampling : {1u, 3u, 32u}) {
      for (int round = 0; round < 6; ++round) {
        const size_t num_children =
            1 + rng.Bounded(static_cast<uint32_t>(fanout));
        RunSet runs = MakeRuns(rng, num_children, 17, 150,
                               /*allow_empty=*/false);
        MergeResult whole =
            OracleMerge(runs, sampling, fanout, /*with_cascade=*/true);
        // Split into 1..5 chunks at random ranks.
        const size_t num_chunks = 1 + rng.Bounded(5);
        std::vector<size_t> cuts{0, runs.total};
        for (size_t i = 1; i < num_chunks; ++i) {
          cuts.push_back(rng.Bounded(static_cast<uint32_t>(runs.total + 1)));
        }
        std::sort(cuts.begin(), cuts.end());
        MergeResult chunked;
        chunked.out.assign(runs.total, 0xdeadbeef);
        chunked.out_payload.assign(runs.total, ~uint64_t{0});
        const size_t num_samples = (runs.total - 1) / sampling + 1;
        chunked.cascade.assign(num_samples * fanout, 0xabababu);
        MergeScratch<uint32_t, uint64_t> scratch;
        for (size_t i = 0; i + 1 < cuts.size(); ++i) {
          const size_t k0 = cuts[i];
          const size_t k1 = cuts[i + 1];
          if (k0 >= k1) continue;
          std::vector<size_t> offsets(num_children);
          internal_mst::MultiwaySelect<uint32_t>(runs.key_ptrs.data(),
                                                 runs.lens.data(), num_children,
                                                 k0, offsets.data());
          internal_mst::MergeRunLoserTree<uint32_t, uint64_t, true>(
              scratch, runs.key_ptrs.data(), runs.lens.data(), num_children,
              chunked.out.data(), k1 - k0, chunked.cascade.data(), sampling,
              fanout, runs.payload_ptrs.data(), chunked.out_payload.data(), k0,
              offsets.data());
        }
        ASSERT_EQ(whole.out, chunked.out)
            << "fanout=" << fanout << " sampling=" << sampling;
        ASSERT_EQ(whole.out_payload, chunked.out_payload);
        ASSERT_EQ(whole.cascade, chunked.cascade);
      }
    }
  }
}

/// Full-tree check: level ℓ of a parallel build (whole-run merges on the
/// lower levels, co-selected chunk merges on the upper ones) must be level
/// 0 sorted in runs of fanout^ℓ, and CountLess must match a brute-force
/// count — this exercises the cascade pointers end to end.
TEST(LoserTreeMerge, TreeLevelsMatchSortedRuns) {
  ThreadPool pool(3);
  Pcg32 rng(404);
  for (size_t n : {1u, 2u, 37u, 1000u, 20000u}) {
    for (size_t fanout : {2u, 5u, 32u}) {
      for (size_t sampling : {1u, 32u}) {
        std::vector<uint32_t> keys(n);
        for (auto& k : keys) k = rng.Bounded(static_cast<uint32_t>(n / 2 + 1));
        MergeSortTreeOptions options;
        options.fanout = fanout;
        options.sampling = sampling;
        auto tree = MergeSortTree<uint32_t>::Build(keys, options, pool);
        size_t run_len = 1;
        for (size_t level = 0; level < tree.num_levels(); ++level) {
          std::vector<uint32_t> expected = keys;
          for (size_t b = 0; b < n; b += run_len) {
            std::sort(expected.begin() + b,
                      expected.begin() + std::min(n, b + run_len));
          }
          ASSERT_EQ(tree.level_data(level), expected)
              << "n=" << n << " fanout=" << fanout << " sampling=" << sampling
              << " level=" << level;
          run_len *= fanout;
        }
        for (int q = 0; q < 50; ++q) {
          size_t lo = rng.Bounded(static_cast<uint32_t>(n + 1));
          size_t hi = rng.Bounded(static_cast<uint32_t>(n + 1));
          if (lo > hi) std::swap(lo, hi);
          const uint32_t t = rng.Bounded(static_cast<uint32_t>(n / 2 + 2));
          const size_t expected = static_cast<size_t>(std::count_if(
              keys.begin() + lo, keys.begin() + hi,
              [t](uint32_t k) { return k < t; }));
          ASSERT_EQ(tree.CountLess(lo, hi, t), expected);
        }
      }
    }
  }
}

/// MultiwaySelectGeneric (the parallel sort's chunk splitter) against a
/// reference stable merge, under heavy ties.
TEST(LoserTreeMerge, MultiwaySelectGenericMatchesStableMerge) {
  Pcg32 rng(505);
  for (int round = 0; round < 30; ++round) {
    const size_t m = 1 + rng.Bounded(8);
    std::vector<std::vector<uint32_t>> runs(m);
    std::vector<const uint32_t*> data(m);
    std::vector<size_t> lens(m);
    size_t total = 0;
    for (size_t c = 0; c < m; ++c) {
      runs[c].resize(rng.Bounded(120));
      for (auto& v : runs[c]) v = rng.Bounded(25);
      std::sort(runs[c].begin(), runs[c].end());
      data[c] = runs[c].data();
      lens[c] = runs[c].size();
      total += lens[c];
    }
    std::vector<std::pair<uint32_t, size_t>> merged;
    for (size_t c = 0; c < m; ++c) {
      for (uint32_t v : runs[c]) merged.push_back({v, c});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first < b.first;
                       return a.second < b.second;
                     });
    for (size_t k = 0; k <= total; k += 1 + rng.Bounded(13)) {
      std::vector<size_t> offsets(m);
      MultiwaySelectGeneric(data.data(), lens.data(), m, k,
                            std::less<uint32_t>(), offsets.data());
      std::vector<size_t> expected(m, 0);
      for (size_t i = 0; i < k; ++i) ++expected[merged[i].second];
      ASSERT_EQ(offsets, expected) << "k=" << k << " m=" << m;
    }
  }
}

/// The ported multiway merge phase of ParallelSort must still agree with
/// std::stable_sort semantics at every run size, including weak orders.
TEST(LoserTreeMerge, ParallelSortMultiwayPhaseMatchesStableSort) {
  ThreadPool pool(4);
  Pcg32 rng(606);
  for (size_t n : {100u, 5000u, 200000u}) {
    for (size_t run_size : {64u, 1024u}) {
      std::vector<uint32_t> values(n);
      for (auto& v : values) v = rng.Next();
      // Strict total order on (value) since values are unique enough; use
      // index pairs to make it total regardless.
      std::vector<std::pair<uint32_t, uint32_t>> data(n);
      for (size_t i = 0; i < n; ++i) {
        data[i] = {values[i] % 97, static_cast<uint32_t>(i)};  // Heavy ties.
      }
      auto expected = data;
      std::sort(expected.begin(), expected.end());
      ParallelSort(
          data, [](const auto& a, const auto& b) { return a < b; }, pool,
          run_size);
      ASSERT_EQ(data, expected) << "n=" << n << " run_size=" << run_size;
    }
  }
}

}  // namespace
}  // namespace hwf
