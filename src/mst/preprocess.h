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
/// The legacy pipeline re-derives the same sorted sequence up to three
/// times per evaluator: ComputePrevIndices sorts (code, position) pairs,
/// ComputeNextIndices sorts the identical pairs again, and
/// ComputePermutation / ComputeDenseCodes / ComputeUniqueCodes sort
/// positions by the same ORDER BY criterion. Every artifact is a
/// different linear read-out of one stably sorted sequence, so the fused
/// pipeline sorts once (offset-value-coded when enabled) and emits all
/// requested artifacts in a single morsel-parallel pass. The legacy
/// functions in prev_index.h / permutation.h remain as the reference
/// implementations for differential tests and for comparators the fused
/// records cannot encode.

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

/// Emits every requested artifact from one stably sorted record sequence.
/// `pos_of(rec)` is the record's original position; `equal(a, b)` is value
/// equality (positions excluded). Records with equal values must appear in
/// ascending position order — the stable sorts used by the entry points
/// guarantee it.
///
/// Dense codes need a global prefix (the code of a row is the number of
/// value boundaries before it), so they get a cheap counting pre-pass over
/// fixed chunks; everything else is position-local. Chunking is explicit
/// and deterministic (kDefaultMorselSize) so the pre-pass counts and the
/// emission pass see identical chunk boundaries regardless of how the
/// morsel scheduler interleaves them.
template <typename Index, typename Rec, typename PosOf, typename Equal>
void EmitFromSorted(const std::vector<Rec>& sorted,
                    const PreprocessRequest& req, PosOf pos_of, Equal equal,
                    ThreadPool& pool, PreprocessResult<Index>* out) {
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
              boundaries += !equal(sorted[j - 1], sorted[j]);
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
            const bool boundary = j > 0 && !equal(sorted[j - 1], sorted[j]);
            if (req.want_dense && boundary) ++code;
            const size_t pos = static_cast<size_t>(pos_of(sorted[j]));
            if (req.want_perm) out->perm[j] = static_cast<Index>(pos);
            if (req.want_unique) {
              out->unique_codes[pos] = static_cast<Index>(j);
            }
            if (req.want_dense) out->dense_codes[pos] = code;
            if (req.want_prev) {
              out->prev[pos] =
                  j > 0 && !boundary
                      ? static_cast<Index>(
                            static_cast<size_t>(pos_of(sorted[j - 1])) + 1)
                      : Index{0};
            }
            if (req.want_next) {
              out->next[pos] =
                  j + 1 < n && equal(sorted[j], sorted[j + 1])
                      ? static_cast<Index>(pos_of(sorted[j + 1]))
                      : static_cast<Index>(n);
            }
          }
        }
      },
      pool, /*morsel_size=*/1);
}

}  // namespace internal_preprocess

/// Fused preprocessing over 64-bit value codes (hashes or dense codes):
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
    internal_preprocess::EmitFromSorted<Index>(
        sorted, req, [](const Rec& r) { return r.second; },
        [](const Rec& a, const Rec& b) { return a.first == b.first; }, pool,
        &result);
  }
  obs::Add(obs::Counter::kMstPreprocessFusedRows, n);
  return result;
}

/// The record the encoded ORDER BY sort runs over: null rank, the
/// order-preserving 64-bit key encoding, and the original position as the
/// stability tiebreak. The word sequence doubles as the OVC coding order.
template <typename Index>
struct OrderKeyRec {
  uint8_t null_rank;
  uint64_t key;
  Index pos;

  static constexpr size_t kOvcWords = 3;
  uint64_t OvcWord(size_t w) const {
    return w == 0 ? null_rank
                  : w == 1 ? key : static_cast<uint64_t>(pos);
  }

  bool operator<(const OrderKeyRec& o) const {
    if (null_rank != o.null_rank) return null_rank < o.null_rank;
    if (key != o.key) return key < o.key;
    return pos < o.pos;
  }

  bool SameValue(const OrderKeyRec& o) const {
    return null_rank == o.null_rank && key == o.key;
  }
};

/// Fused preprocessing over encoded ORDER BY keys: `get(i)` returns the
/// (null rank, encoded key) of element i — the same encoding PositionLess
/// uses, so "record order" == "comparator order with position tiebreak",
/// matching ComputePermutation / ComputeDenseCodes / ComputeUniqueCodes.
template <typename Index, typename Get>
PreprocessResult<Index> PreprocessOrderKeys(
    size_t n, Get get, const PreprocessRequest& req, ThreadPool& pool,
    obs::ExecutionProfile* profile = nullptr) {
  HWF_TRACE_SCOPE_ARG("mst.preprocess_fused", "n", n);
  using Rec = OrderKeyRec<Index>;
  std::vector<Rec> sorted(n);
  {
    obs::ScopedPreprocessStepTimer sort_timer(
        profile, obs::PreprocessStep::kRecordSort);
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            const auto [null_rank, key] = get(i);
            sorted[i] = Rec{null_rank, key, static_cast<Index>(i)};
          }
        },
        pool);
    ParallelSort(
        sorted, [](const Rec& a, const Rec& b) { return a < b; }, pool,
        kDefaultMorselSize, PartitionScheme::kThreeWay, nullptr,
        /*use_ovc=*/true);
  }
  PreprocessResult<Index> result;
  {
    obs::ScopedPreprocessStepTimer emit_timer(
        profile, obs::PreprocessStep::kEmitArtifacts);
    internal_preprocess::EmitFromSorted<Index>(
        sorted, req, [](const Rec& r) { return r.pos; },
        [](const Rec& a, const Rec& b) { return a.SameValue(b); }, pool,
        &result);
  }
  obs::Add(obs::Counter::kMstPreprocessFusedRows, n);
  return result;
}

}  // namespace hwf

#endif  // HWF_MST_PREPROCESS_H_
