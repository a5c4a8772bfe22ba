#ifndef HWF_MST_PREPROCESS_H_
#define HWF_MST_PREPROCESS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"
#include "parallel/thread_pool.h"

namespace hwf {

/// Fused preprocessing (paper Algorithm 1 + §4.4/§4.5 artifacts from ONE
/// sort).
///
/// The reference pipeline re-derives the same sorted sequence up to three
/// times per evaluator: ComputePrevIndices sorts (code, position) pairs,
/// ComputeNextIndices sorts the identical pairs again, and
/// ComputePermutation / ComputeDenseCodes / ComputeUniqueCodes sort
/// positions by the same ORDER BY criterion. Every artifact is a
/// different linear read-out of one stably sorted sequence, so the fused
/// pipeline sorts (code, position) records once and emits all requested
/// artifacts in a single morsel-parallel pass. Codes are argument hashes
/// (distinct aggregates) or function-order codes (window/sort_keys.h), so
/// every evaluator takes this one path. The functions in prev_index.h /
/// permutation.h remain as the reference implementations for
/// differential tests.

/// Which artifacts to emit. Evaluators request exactly what they consume;
/// unrequested vectors stay empty.
struct PreprocessRequest {
  bool want_prev = false;    // encoded prevIdcs (0 = none, j+1 = at j)
  bool want_next = false;    // nextIdcs (n = none, un-encoded)
  bool want_perm = false;    // §4.5 permutation: perm[j] = position of rank j
  bool want_dense = false;   // dense value codes (equal values share a code)
  bool want_unique = false;  // unique codes (inverse permutation)
};

template <typename Index>
struct PreprocessResult {
  std::vector<Index> prev;
  std::vector<Index> next;
  std::vector<Index> perm;
  std::vector<Index> dense_codes;
  std::vector<Index> unique_codes;
  size_t num_distinct = 0;  // Only meaningful when want_dense.
};

namespace internal_preprocess {

/// Emits every requested artifact from the sorted (code, position)
/// records. Records with equal codes appear in ascending position order —
/// the pair order guarantees it.
///
/// Dense codes need a global prefix (the code of a row is the number of
/// value boundaries before it), so they get a cheap counting pre-pass over
/// fixed chunks; everything else is position-local. Chunking is explicit
/// and deterministic (kDefaultMorselSize) so the pre-pass counts and the
/// emission pass see identical chunk boundaries regardless of how the
/// morsel scheduler interleaves them.
template <typename Index>
void EmitFromSorted(const std::vector<std::pair<uint64_t, Index>>& sorted,
                    const PreprocessRequest& req, ThreadPool& pool,
                    PreprocessResult<Index>* out) {
  const size_t n = sorted.size();
  HWF_TRACE_SCOPE_ARG("mst.preprocess_emit", "n", n);
  if (req.want_prev) out->prev.resize(n);
  if (req.want_next) out->next.resize(n);
  if (req.want_perm) out->perm.resize(n);
  if (req.want_dense) out->dense_codes.resize(n);
  if (req.want_unique) out->unique_codes.resize(n);

  const size_t chunk = kDefaultMorselSize;
  const size_t num_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;

  std::vector<Index> bases;
  if (req.want_dense) {
    bases.assign(num_chunks + 1, 0);
    ParallelFor(
        0, num_chunks,
        [&](size_t c_lo, size_t c_hi) {
          for (size_t c = c_lo; c < c_hi; ++c) {
            const size_t lo = c * chunk;
            const size_t hi = std::min(n, lo + chunk);
            Index boundaries = 0;
            for (size_t j = std::max<size_t>(lo, 1); j < hi; ++j) {
              boundaries += sorted[j - 1].first != sorted[j].first;
            }
            bases[c + 1] = boundaries;
          }
        },
        pool, /*morsel_size=*/1);
    for (size_t c = 0; c < num_chunks; ++c) bases[c + 1] += bases[c];
    out->num_distinct =
        n == 0 ? 0 : static_cast<size_t>(bases[num_chunks]) + 1;
  }

  ParallelFor(
      0, num_chunks,
      [&](size_t c_lo, size_t c_hi) {
        for (size_t c = c_lo; c < c_hi; ++c) {
          const size_t lo = c * chunk;
          const size_t hi = std::min(n, lo + chunk);
          Index code = req.want_dense ? bases[c] : Index{0};
          for (size_t j = lo; j < hi; ++j) {
            const bool boundary =
                j > 0 && sorted[j - 1].first != sorted[j].first;
            if (req.want_dense && boundary) ++code;
            const size_t pos = static_cast<size_t>(sorted[j].second);
            if (req.want_perm) out->perm[j] = static_cast<Index>(pos);
            if (req.want_unique) {
              out->unique_codes[pos] = static_cast<Index>(j);
            }
            if (req.want_dense) out->dense_codes[pos] = code;
            if (req.want_prev) {
              out->prev[pos] =
                  j > 0 && !boundary
                      ? static_cast<Index>(sorted[j - 1].second + 1)
                      : Index{0};
            }
            if (req.want_next) {
              out->next[pos] =
                  j + 1 < n && sorted[j].first == sorted[j + 1].first
                      ? sorted[j + 1].second
                      : static_cast<Index>(n);
            }
          }
        }
      },
      pool, /*morsel_size=*/1);
}

}  // namespace internal_preprocess

/// Fused preprocessing over 64-bit codes (argument hashes or order codes):
/// the record sort is a stable sort of the codes, so prev/next follow the
/// occurrence-chain semantics of ComputePrevIndices/ComputeNextIndices
/// exactly, and perm/dense/unique use "code order, position tiebreak".
template <typename Index>
PreprocessResult<Index> PreprocessHashedCodes(
    std::span<const uint64_t> codes, const PreprocessRequest& req,
    ThreadPool& pool, obs::ExecutionProfile* profile = nullptr) {
  const size_t n = codes.size();
  HWF_TRACE_SCOPE_ARG("mst.preprocess_fused", "n", n);
  using Rec = std::pair<uint64_t, Index>;
  std::vector<Rec> sorted(n);
  {
    obs::ScopedPreprocessStepTimer sort_timer(
        profile, obs::PreprocessStep::kRecordSort);
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            sorted[i] = {codes[i], static_cast<Index>(i)};
          }
        },
        pool);
    // Lexicographic pair order == stable sort of the codes; the pair's
    // word sequence is exactly that order, so OVC applies.
    ParallelSort(
        sorted, [](const Rec& a, const Rec& b) { return a < b; }, pool,
        kDefaultMorselSize, PartitionScheme::kThreeWay, nullptr,
        /*use_ovc=*/true);
  }
  PreprocessResult<Index> result;
  {
    obs::ScopedPreprocessStepTimer emit_timer(
        profile, obs::PreprocessStep::kEmitArtifacts);
    internal_preprocess::EmitFromSorted<Index>(sorted, req, pool, &result);
  }
  obs::Add(obs::Counter::kMstPreprocessFusedRows, n);
  return result;
}

}  // namespace hwf

#endif  // HWF_MST_PREPROCESS_H_
