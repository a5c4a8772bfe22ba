#ifndef HWF_PARALLEL_PARALLEL_SORT_H_
#define HWF_PARALLEL_PARALLEL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "mem/chunk_arena.h"
#include "mem/memory_budget.h"
#include "mst/loser_tree.h"
#include "obs/trace.h"
#include "parallel/introsort.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace hwf {

/// Computes the co-rank split for merging two sorted ranges.
///
/// Returns (i, j) with i + j = k such that a sequential merge — taking from
/// `a` on ties — emits exactly merge(a[0..i), b[0..j)) as its first k
/// outputs. This is the "merge path" split used to parallelize merging:
/// every output chunk [k0, k1) can be produced independently from
/// a[i0..i1) and b[j0..j1).
template <typename T, typename Less>
std::pair<size_t, size_t> CoRank(size_t k, const T* a, size_t na, const T* b,
                                 size_t nb, Less less) {
  HWF_DCHECK(k <= na + nb);
  size_t lo = k > nb ? k - nb : 0;
  size_t hi = std::min(k, na);
  while (lo < hi) {
    size_t i = lo + (hi - lo) / 2;
    size_t j = k - i;
    if (i < na && j > 0 && !less(b[j - 1], a[i])) {
      // b[j-1] >= a[i]: a[i] must be among the first k outputs (ties take
      // from a); i is too small.
      lo = i + 1;
    } else if (i > 0 && j < nb && less(b[j], a[i - 1])) {
      // b[j] < a[i-1]: b[j] must precede a[i-1]; i is too big.
      hi = i;
    } else {
      return {i, j};
    }
  }
  return {lo, k - lo};
}

/// Sequentially merges sorted ranges a and b into out; ties take from a.
template <typename T, typename Less>
void MergeSequential(const T* a, size_t na, const T* b, size_t nb, T* out,
                     Less less) {
  size_t i = 0;
  size_t j = 0;
  size_t o = 0;
  while (i < na && j < nb) {
    if (less(b[j], a[i])) {
      out[o++] = b[j++];
    } else {
      out[o++] = a[i++];
    }
  }
  while (i < na) out[o++] = a[i++];
  while (j < nb) out[o++] = b[j++];
}

/// Merges two sorted ranges into `out` using pool parallelism.
///
/// The output is cut into chunks of `grain` elements; co-ranking locates the
/// input split for every chunk, and chunks merge independently. The result
/// is bit-identical to MergeSequential.
template <typename T, typename Less>
void MergeParallel(const T* a, size_t na, const T* b, size_t nb, T* out,
                   Less less, ThreadPool& pool,
                   size_t grain = kDefaultMorselSize) {
  const size_t total = na + nb;
  if (total <= grain || pool.num_workers() == 0) {
    MergeSequential(a, na, b, nb, out, less);
    return;
  }
  ParallelFor(
      0, total,
      [&](size_t k0, size_t k1) {
        auto [i0, j0] = CoRank(k0, a, na, b, nb, less);
        auto [i1, j1] = CoRank(k1, a, na, b, nb, less);
        MergeSequential(a + i0, i1 - i0, b + j0, j1 - j0, out + k0, less);
      },
      pool, grain);
}

/// Fanout of the multiway merge rounds in ParallelSort's phase 2. 32-way
/// loser-tree merging turns log₂(runs) pairwise passes over the data into
/// log₃₂(runs) passes (one or two in practice) at ⌈log₂ 32⌉ = 5 comparisons
/// per element — the same kernel and fanout the merge sort tree build uses.
inline constexpr size_t kSortMergeFanout = 32;

namespace internal_sort {

/// Conservative byte estimate of one merge task's loser-tree internals
/// (key/loser/live arrays), charged alongside the ChunkArena scratch so the
/// budget sees the whole per-task footprint.
template <typename T>
constexpr size_t LoserTreeScratchBytes() {
  return kSortMergeFanout *
         (sizeof(T) + 2 * sizeof(uint32_t) + sizeof(unsigned char) + 16);
}

#if defined(HWF_HAS_OVC)

/// Byte estimate of one coded merge task's loser-tree internals — the
/// uncoded arrays plus the per-source head code.
template <typename T>
constexpr size_t OvcLoserTreeScratchBytes() {
  return kSortMergeFanout *
         (sizeof(T) + sizeof(OvcCode) + 2 * sizeof(uint32_t) +
          sizeof(const OvcCode*) + sizeof(unsigned char) + 16);
}

/// Offset-value-coded twin of the phase-1/phase-2 body of
/// ParallelSortRange. Identical run/merge structure and bit-identical
/// output, but every element carries its in-run code (relative to its run
/// predecessor) through the merge rounds, so most tournament matches
/// resolve on one 128-bit compare. Codes ping-pong between two side
/// buffers alongside the data; each merge round consumes the previous
/// round's output codes directly (a merge emits exactly the in-run codes
/// of its output).
///
/// Only valid when `less` orders exactly like OvcTraits<T>'s word
/// sequence; callers opt in explicitly via use_ovc.
template <typename T, typename Less>
void OvcSortRange(T* data, size_t n, Less less, ThreadPool& pool,
                  size_t run_size, PartitionScheme scheme, T* scratch,
                  mem::MemoryBudget* budget) {
  HWF_TRACE_SCOPE_ARG("sort.ovc_sort", "n", n);
  // Default-initialized on purpose: zeroing 2n codes is a full extra pass
  // over memory, and phase 1 / each merge round overwrite every slot
  // before it is read.
  std::unique_ptr<OvcCode[]> codes_a(new OvcCode[n]);
  std::unique_ptr<OvcCode[]> codes_b(new OvcCode[n]);

  {
    // Phase 1: sort fixed-size runs and code each element against its run
    // predecessor in the same pass over the cached run.
    HWF_TRACE_SCOPE("sort.run_phase");
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          Introsort(data + lo, data + hi, less, scheme);
          ComputeOvcRunCodes(data + lo, hi - lo, codes_a.get() + lo);
        },
        pool, run_size);
  }

  HWF_TRACE_SCOPE("sort.merge_phase");
  const size_t parallelism = static_cast<size_t>(pool.parallelism());
  T* src = data;
  T* dst = scratch;
  OvcCode* src_codes = codes_a.get();
  OvcCode* dst_codes = codes_b.get();
  for (size_t width = run_size; width < n; width *= kSortMergeFanout) {
    const size_t group_len = width * kSortMergeFanout;
    const size_t num_groups = (n + group_len - 1) / group_len;
    auto collect_group = [&](size_t g, const T** child_data,
                             size_t* child_lens,
                             const OvcCode** child_codes) {
      const size_t begin = g * group_len;
      const size_t end = std::min(n, begin + group_len);
      size_t num_children = 0;
      for (size_t c = 0; c < kSortMergeFanout; ++c) {
        const size_t cb = begin + c * width;
        if (cb >= end) break;
        child_data[num_children] = src + cb;
        child_codes[num_children] = src_codes + cb;
        child_lens[num_children] = std::min(end, cb + width) - cb;
        ++num_children;
      }
      return num_children;
    };
    if (num_groups >= parallelism) {
      ParallelFor(
          0, num_groups,
          [&](size_t g_lo, size_t g_hi) {
            mem::ChunkArena arena(budget, /*min_chunk_bytes=*/4096);
            mem::MemoryReservation tree_scratch;
            tree_scratch.ForceReserve(budget, OvcLoserTreeScratchBytes<T>());
            const T** child_data =
                arena.template AllocateArray<const T*>(kSortMergeFanout);
            const OvcCode** child_codes =
                arena.template AllocateArray<const OvcCode*>(kSortMergeFanout);
            size_t* child_lens =
                arena.template AllocateArray<size_t>(kSortMergeFanout);
            size_t* pos = arena.template AllocateArray<size_t>(kSortMergeFanout);
            OvcLoserTree<T> tree;
            for (size_t g = g_lo; g < g_hi; ++g) {
              const size_t begin = g * group_len;
              const size_t end = std::min(n, begin + group_len);
              const size_t m =
                  collect_group(g, child_data, child_lens, child_codes);
              std::fill(pos, pos + m, 0);
              OvcLoserTreeMerge(tree, child_data, child_lens, m, pos,
                                child_codes, dst + begin, dst_codes + begin,
                                end - begin);
            }
          },
          pool, /*morsel_size=*/1);
    } else {
      std::vector<const T*> child_data(kSortMergeFanout);
      std::vector<const OvcCode*> child_codes(kSortMergeFanout);
      std::vector<size_t> child_lens(kSortMergeFanout);
      for (size_t g = 0; g < num_groups; ++g) {
        const size_t begin = g * group_len;
        const size_t end = std::min(n, begin + group_len);
        const size_t group_actual = end - begin;
        const size_t m = collect_group(g, child_data.data(), child_lens.data(),
                                       child_codes.data());
        const size_t num_chunks = std::min(
            parallelism, std::max<size_t>(1, group_actual / run_size));
        TaskGroup group(pool);
        std::vector<size_t> chunk_starts;
        chunk_starts.reserve(num_chunks);
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          const size_t k0 = group_actual * chunk / num_chunks;
          const size_t k1 = group_actual * (chunk + 1) / num_chunks;
          if (k0 >= k1) continue;
          chunk_starts.push_back(k0);
          group.Run([&, k0, k1] {
            mem::ChunkArena arena(budget, /*min_chunk_bytes=*/4096);
            mem::MemoryReservation tree_scratch;
            tree_scratch.ForceReserve(budget, OvcLoserTreeScratchBytes<T>());
            size_t* pos = arena.template AllocateArray<size_t>(m);
            MultiwaySelectGeneric(child_data.data(), child_lens.data(), m, k0,
                                  less, pos);
            OvcLoserTree<T> tree;
            OvcLoserTreeMerge(tree, child_data.data(), child_lens.data(), m,
                              pos, child_codes.data(), dst + begin + k0,
                              dst_codes + begin + k0, k1 - k0);
          });
        }
        group.Wait();
        // Chunked merges emit their first code relative to -inf, but
        // within the group's output run the element at k0 > 0 follows
        // dst[begin + k0 - 1]. Leaving the -inf code in place is not
        // merely conservative — a stale offset can beat a correct deeper
        // offset in the next round and emit the wrong element. Re-code
        // interior chunk boundaries against their true predecessor.
        for (size_t k0 : chunk_starts) {
          if (k0 == 0) continue;
          dst_codes[begin + k0] =
              OvcCodeAgainst(dst[begin + k0], dst[begin + k0 - 1]);
        }
      }
    }
    std::swap(src, dst);
    std::swap(src_codes, dst_codes);
  }
  if (src != data) {
    std::copy(src, src + n, data);
  }
}

#endif  // defined(HWF_HAS_OVC)

}  // namespace internal_sort

/// Sorts `data[0..n)` in parallel into itself, using `scratch` (>= n
/// elements) as the merge ping-pong buffer. This is the allocation-free core
/// of ParallelSort: callers own both buffers, so external sorts can run it
/// over budget-reserved chunks. Per-task merge scratch is drawn from
/// ChunkArenas accounted against `budget` (null = unaccounted).
/// When `use_ovc` is true, T has OvcTraits and `budget` grants the code
/// arrays, the merge rounds run the offset-value-coded kernel
/// (internal_sort::OvcSortRange) — bit-identical output, fewer full-key
/// comparisons. Callers must only pass use_ovc for comparators that order
/// exactly like the OVC word sequence; otherwise, and without 128-bit
/// integer support, the uncoded merge runs.
template <typename T, typename Less>
void ParallelSortRange(T* data, size_t n, Less less, ThreadPool& pool,
                       size_t run_size, PartitionScheme scheme, T* scratch,
                       mem::MemoryBudget* budget = nullptr,
                       bool use_ovc = false) {
  HWF_CHECK(run_size > 0);
  HWF_TRACE_SCOPE_ARG("sort.parallel_sort", "n", n);
  if (n <= run_size || pool.num_workers() == 0) {
    Introsort(data, data + n, less, scheme);
    return;
  }
  HWF_CHECK_MSG(scratch != nullptr, "ParallelSortRange needs merge scratch");
#if defined(HWF_HAS_OVC)
  if constexpr (kHasOvcTraits<T>) {
    // The coded merge keeps two n-element code arrays beside the data. A
    // budget that cannot grant them gets the uncoded merge, which produces
    // the same order without them.
    mem::MemoryReservation code_bytes;
    if (use_ovc && code_bytes.Reserve(budget, 2 * n * sizeof(OvcCode)).ok()) {
      internal_sort::OvcSortRange(data, n, less, pool, run_size, scheme,
                                  scratch, budget);
      return;
    }
  }
#endif
  (void)use_ovc;

  {
    // Phase 1: sort fixed-size runs in parallel.
    HWF_TRACE_SCOPE("sort.run_phase");
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          Introsort(data + lo, data + hi, less, scheme);
        },
        pool, run_size);
  }

  // Phase 2: multiway merge rounds, ping-ponging between buffers. Every
  // round merges up to kSortMergeFanout adjacent runs of `width` elements
  // into one run with a loser tree.
  HWF_TRACE_SCOPE("sort.merge_phase");
  const size_t parallelism = static_cast<size_t>(pool.parallelism());
  T* src = data;
  T* dst = scratch;
  for (size_t width = run_size; width < n; width *= kSortMergeFanout) {
    const size_t group_len = width * kSortMergeFanout;
    const size_t num_groups = (n + group_len - 1) / group_len;
    // Collects the child runs of group g into caller-provided arrays.
    auto collect_group = [&](size_t g, const T** child_data,
                             size_t* child_lens) {
      const size_t begin = g * group_len;
      const size_t end = std::min(n, begin + group_len);
      size_t num_children = 0;
      for (size_t c = 0; c < kSortMergeFanout; ++c) {
        const size_t cb = begin + c * width;
        if (cb >= end) break;
        child_data[num_children] = src + cb;
        child_lens[num_children] = std::min(end, cb + width) - cb;
        ++num_children;
      }
      return num_children;
    };
    if (num_groups >= parallelism) {
      // Many groups: one task merges whole groups sequentially.
      ParallelFor(
          0, num_groups,
          [&](size_t g_lo, size_t g_hi) {
            mem::ChunkArena arena(budget, /*min_chunk_bytes=*/4096);
            mem::MemoryReservation tree_scratch;
            tree_scratch.ForceReserve(
                budget, internal_sort::LoserTreeScratchBytes<T>());
            const T** child_data =
                arena.template AllocateArray<const T*>(kSortMergeFanout);
            size_t* child_lens =
                arena.template AllocateArray<size_t>(kSortMergeFanout);
            size_t* pos = arena.template AllocateArray<size_t>(kSortMergeFanout);
            LoserTree<T, Less> tree;
            for (size_t g = g_lo; g < g_hi; ++g) {
              const size_t begin = g * group_len;
              const size_t end = std::min(n, begin + group_len);
              const size_t m = collect_group(g, child_data, child_lens);
              std::fill(pos, pos + m, 0);
              LoserTreeMerge(tree, child_data, child_lens, m, pos, dst + begin,
                             end - begin, less);
            }
          },
          pool, /*morsel_size=*/1);
    } else {
      // Few large groups (upper rounds): co-select balanced output chunks
      // and merge them independently so all threads stay busy.
      std::vector<const T*> child_data(kSortMergeFanout);
      std::vector<size_t> child_lens(kSortMergeFanout);
      for (size_t g = 0; g < num_groups; ++g) {
        const size_t begin = g * group_len;
        const size_t end = std::min(n, begin + group_len);
        const size_t group_actual = end - begin;
        const size_t m = collect_group(g, child_data.data(), child_lens.data());
        const size_t num_chunks = std::min(
            parallelism, std::max<size_t>(1, group_actual / run_size));
        TaskGroup group(pool);
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          const size_t k0 = group_actual * chunk / num_chunks;
          const size_t k1 = group_actual * (chunk + 1) / num_chunks;
          if (k0 >= k1) continue;
          group.Run([&, k0, k1] {
            mem::ChunkArena arena(budget, /*min_chunk_bytes=*/4096);
            mem::MemoryReservation tree_scratch;
            tree_scratch.ForceReserve(
                budget, internal_sort::LoserTreeScratchBytes<T>());
            size_t* pos = arena.template AllocateArray<size_t>(m);
            MultiwaySelectGeneric(child_data.data(), child_lens.data(), m, k0,
                                  less, pos);
            LoserTree<T, Less> tree;
            LoserTreeMerge(tree, child_data.data(), child_lens.data(), m, pos,
                           dst + begin + k0, k1 - k0, less);
          });
        }
        group.Wait();
      }
    }
    std::swap(src, dst);
  }
  if (src != data) {
    std::copy(src, src + n, data);
  }
}

/// Sorts `data` in parallel: thread-local introsort runs followed by
/// loser-tree multiway merge rounds (fanout kSortMergeFanout).
///
/// This mirrors the paper's preprocessing sort (§5.2): each task sorts a
/// fixed-size run with introsort (3-way quicksort partitioning by default,
/// see PartitionScheme), then sorted runs are combined with balanced
/// multiway merges — whole groups per task while groups are plentiful,
/// co-selected chunks (MultiwaySelectGeneric splits) once they are not.
/// Ties break toward the lower run index, so the result is bit-identical
/// to the earlier pairwise merge cascade. `less` must be a strict weak
/// order; for deterministic results across thread counts, make it a strict
/// total order (e.g., break ties on a row id), which all library call
/// sites do.
///
/// When `budget` is non-null the merge buffer and per-task scratch are
/// accounted against it (ForceReserve — this entry point never spills; use
/// mem::SortWithBudget for the budget-respecting external path).
template <typename T, typename Less>
void ParallelSort(std::vector<T>& data, Less less,
                  ThreadPool& pool = ThreadPool::Default(),
                  size_t run_size = kDefaultMorselSize,
                  PartitionScheme scheme = PartitionScheme::kThreeWay,
                  mem::MemoryBudget* budget = nullptr, bool use_ovc = false) {
  const size_t n = data.size();
  HWF_CHECK(run_size > 0);
  if (n <= run_size || pool.num_workers() == 0) {
    Introsort(data.begin(), data.end(), less, scheme);
    return;
  }
  mem::MemoryReservation buffer_bytes;
  buffer_bytes.ForceReserve(budget, n * sizeof(T));
  std::vector<T> buffer(n);
  ParallelSortRange(data.data(), n, less, pool, run_size, scheme,
                    buffer.data(), budget, use_ovc);
}

}  // namespace hwf

#endif  // HWF_PARALLEL_PARALLEL_SORT_H_
