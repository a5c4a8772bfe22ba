#ifndef HWF_MEM_EXTERNAL_SORT_H_
#define HWF_MEM_EXTERNAL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/stop_token.h"
#include "mem/memory_budget.h"
#include "mem/spill_file.h"
#include "mst/loser_tree.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "parallel/parallel_sort.h"
#include "parallel/thread_pool.h"

namespace hwf {
namespace mem {

/// Budget-respecting sort. Three regimes:
///
///   1. No (or unlimited) budget: plain ParallelSort.
///   2. Budget grants the n-element merge buffer: in-memory ParallelSort
///      with the buffer and scratch accounted.
///   3. Budget denies the buffer and spilling is allowed: external sort —
///      the array is cut into budget-sized chunks, each chunk is sorted in
///      place (ParallelSortRange over a smaller reserved scratch) and
///      written to a spill file as a sorted run, then the runs are streamed
///      back through the same loser-tree kernel the in-memory merge uses
///      (RunReaders refill page-wise; ties break toward the lower run, i.e.
///      the lower original chunk, so the result is identical to regime 1/2
///      for the strict total orders all call sites use).
///
/// Regime 3 requires T trivially copyable (rows are written to disk raw);
/// non-trivially-copyable inputs degrade to regime 2 with ForceReserve.
///
/// `use_ovc` opts the in-memory sorts and the regime-3 run merge into the
/// offset-value-coded kernel (see ParallelSortRange); only the in-run
/// codes of each reader buffer are kept in memory — codes are recomputed
/// per refill, never spilled.
template <typename T, typename Less>
Status SortWithBudget(std::vector<T>& data, Less less, ThreadPool& pool,
                      const MemoryContext& ctx,
                      size_t run_size = kDefaultMorselSize,
                      PartitionScheme scheme = PartitionScheme::kThreeWay,
                      bool use_ovc = false) {
  const size_t n = data.size();
  MemoryBudget* budget = ctx.budget;
  // Cooperative cancellation: a stopped token aborts before the sort (and
  // the internal ParallelFor morsels stop claiming mid-sort; the caller
  // discards the partially-sorted data on the non-OK Status).
  if (Status stop = CheckStop(); !stop.ok()) return stop;
  if (!ctx.limited() || n <= run_size) {
    ParallelSort(data, less, pool, run_size, scheme, budget, use_ovc);
    return CheckStop();
  }

  // Regime 2: the whole merge buffer fits.
  MemoryReservation buffer_bytes;
  if (buffer_bytes.Reserve(budget, n * sizeof(T)).ok()) {
    std::vector<T> buffer(n);
    ParallelSortRange(data.data(), n, less, pool, run_size, scheme,
                      buffer.data(), budget, use_ovc);
    return CheckStop();
  }

  if constexpr (!std::is_trivially_copyable_v<T>) {
    // Cannot serialize rows; degrade to accounted in-memory sort.
    buffer_bytes.ForceReserve(budget, n * sizeof(T));
    std::vector<T> buffer(n);
    ParallelSortRange(data.data(), n, less, pool, run_size, scheme,
                      buffer.data(), budget, use_ovc);
    return Status::OK();
  } else {
    if (!ctx.allow_spill) {
      buffer_bytes.ForceReserve(budget, n * sizeof(T));
      std::vector<T> buffer(n);
      ParallelSortRange(data.data(), n, less, pool, run_size, scheme,
                        buffer.data(), budget, use_ovc);
      return Status::OK();
    }

    // Regime 3: external sort.
    //
    // Chunk sizing: each chunk needs an equal-sized sort scratch, so aim
    // for available/2 bytes per chunk, clamped to [run_size, n/2] elements
    // (at least two chunks — TryReserve(n bytes) just failed, so
    // available < n*sizeof(T) and the clamp is consistent).
    const size_t avail = budget->available_bytes();
    size_t chunk_elems = avail / (2 * sizeof(T));
    chunk_elems = std::max(chunk_elems, run_size);
    chunk_elems = std::min(chunk_elems, (n + 1) / 2);
    const size_t num_chunks = (n + chunk_elems - 1) / chunk_elems;

    MemoryReservation chunk_scratch_bytes;
    if (!chunk_scratch_bytes.Reserve(budget, chunk_elems * sizeof(T)).ok()) {
      // The budget is too small even for the chunk scratch; progress beats
      // failure — take the bytes and let the overshoot counter show it.
      chunk_scratch_bytes.ForceReserve(budget, chunk_elems * sizeof(T));
    }
    std::vector<T> chunk_scratch(chunk_elems);

    StatusOr<std::unique_ptr<SpillFile>> file_or = SpillFile::Create();
    if (!file_or.ok()) return file_or.status();
    std::unique_ptr<SpillFile> file = std::move(file_or).value();

    struct Run {
      uint64_t region = 0;
      uint64_t rows = 0;
    };
    std::vector<Run> runs(num_chunks);

    for (size_t c = 0; c < num_chunks; ++c) {
      if (Status stop = CheckStop(); !stop.ok()) return stop;
      const size_t lo = c * chunk_elems;
      const size_t hi = std::min(n, lo + chunk_elems);
      ParallelSortRange(data.data() + lo, hi - lo, less, pool, run_size,
                        scheme, chunk_scratch.data(), budget, use_ovc);
      runs[c].rows = hi - lo;
      runs[c].region =
          file->AllocateRegion(RunWriter<T>::RegionBytesFor(hi - lo));
      obs::ScopedPhaseTimer spill_timer(ctx.profile, obs::ProfilePhase::kSpill);
      RunWriter<T> writer(file.get(), runs[c].region);
      Status status = writer.AppendBatch(data.data() + lo, hi - lo);
      if (status.ok()) status = writer.Finish();
      if (!status.ok()) return status;
      obs::Add(obs::Counter::kMemExternalSortRuns);
    }
    chunk_scratch.clear();
    chunk_scratch.shrink_to_fit();
    chunk_scratch_bytes.Release();

    // Merge the on-disk runs back into `data`. Each reader buffers a few
    // pages; the loser tree is rebuilt whenever a source's buffer is
    // refilled (O(k) against the pages-long stretch it serves).
    const size_t k = num_chunks;
    size_t pages_per_refill = 4;
    {
      // Fit (k readers + slack) within the budget if possible.
      const size_t per_reader = pages_per_refill * kSpillPageBytes;
      MemoryReservation reader_bytes;
      if (!reader_bytes.Reserve(budget, k * per_reader).ok()) {
        pages_per_refill = 1;
        reader_bytes.ForceReserve(budget, k * kSpillPageBytes);
      }

      std::vector<RunReader<T>> readers;
      readers.reserve(k);
      for (size_t c = 0; c < k; ++c) {
        readers.emplace_back(file.get(), runs[c].region, runs[c].rows,
                             pages_per_refill);
      }
      std::vector<const T*> src(k);
      std::vector<size_t> lens(k);
      std::vector<size_t> pos(k);
      for (size_t c = 0; c < k; ++c) {
        StatusOr<size_t> got = readers[c].Refill();
        if (!got.ok()) return got.status();
        src[c] = readers[c].data();
        lens[c] = *got;
        pos[c] = 0;
      }

#if defined(HWF_HAS_OVC)
      if constexpr (kHasOvcTraits<T>) {
        // Coded streaming merge: each reader buffer gets its in-run codes
        // recomputed on refill (one linear pass over data just read from
        // disk — cache-hot), and the tree re-Init on refill re-codes the
        // heads against -inf exactly as the in-memory kernel does. A budget
        // that cannot grant the k code buffers gets the uncoded merge
        // below, which produces the same order without them.
        const size_t per_reader_elems =
            pages_per_refill * kSpillPageBytes / sizeof(T) + 1;
        MemoryReservation code_buf_bytes;
        if (use_ovc &&
            code_buf_bytes
                .Reserve(budget, k * per_reader_elems * sizeof(OvcCode))
                .ok()) {
          std::vector<std::vector<OvcCode>> run_codes(k);
          std::vector<const OvcCode*> code_ptrs(k);
          for (size_t c = 0; c < k; ++c) {
            run_codes[c].resize(lens[c]);
            ComputeOvcRunCodes(src[c], lens[c], run_codes[c].data());
            code_ptrs[c] = run_codes[c].data();
          }
          OvcLoserTree<T> tree;
          tree.Init(src.data(), lens.data(), k, pos.data(), code_ptrs.data());
          size_t out = 0;
          while (out < n) {
            const size_t c = tree.TopSource();
            data[out++] = tree.TopKey();
            tree.Pop();
            if (pos[c] == lens[c] && !readers[c].exhausted()) {
              StatusOr<size_t> got = readers[c].Refill();
              if (!got.ok()) return got.status();
              if (*got > 0) {
                src[c] = readers[c].data();
                lens[c] = *got;
                pos[c] = 0;
                run_codes[c].resize(lens[c]);
                ComputeOvcRunCodes(src[c], lens[c], run_codes[c].data());
                code_ptrs[c] = run_codes[c].data();
                tree.Init(src.data(), lens.data(), k, pos.data(),
                          code_ptrs.data());
              }
            }
          }
          tree.stats().Flush();
          return Status::OK();
        }
      }
#endif

      LoserTree<T, Less> tree;
      tree.Init(src.data(), lens.data(), k, pos.data(), less);
      size_t out = 0;
      while (out < n) {
        const size_t c = tree.TopSource();
        data[out++] = tree.TopKey();
        tree.Pop();
        if (pos[c] == lens[c] && !readers[c].exhausted()) {
          StatusOr<size_t> got = readers[c].Refill();
          if (!got.ok()) return got.status();
          if (*got > 0) {
            src[c] = readers[c].data();
            lens[c] = *got;
            pos[c] = 0;
            tree.Init(src.data(), lens.data(), k, pos.data(), less);
          }
        }
      }
    }
    return Status::OK();
  }
}

}  // namespace mem
}  // namespace hwf

#endif  // HWF_MEM_EXTERNAL_SORT_H_
