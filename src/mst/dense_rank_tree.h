#ifndef HWF_MST_DENSE_RANK_TREE_H_
#define HWF_MST_DENSE_RANK_TREE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "mem/memory_budget.h"
#include "mst/merge_sort_tree.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace hwf {
namespace internal_dense_rank {

/// Population count, inline: on the default x86-64 target (no popcnt
/// instruction) std::popcount is a library call, which probed ~15% slower.
inline uint64_t Popcount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

/// A bit vector with constant-time rank of zeros: one popcount and one
/// block access per rank. Bits live in 256-bit blocks, each led by a
/// header word holding the zeros before the block (upper 40 bits) and the
/// running zero counts after the block's words 0, 1 and 2 (8 bits each) —
/// 25% over the raw bits.
class ZeroRankBits {
 public:
  /// `n` zero bits; set them with SetWord, then call Finish once.
  explicit ZeroRankBits(size_t n = 0) : blocks_(n / kBlockBits + 1), n_(n) {
    HWF_CHECK(n < (uint64_t{1} << kBaseBits));
  }

  /// Bits [64 w, 64 w + 64) = `word`, least significant bit first.
  void SetWord(size_t w, uint64_t word) {
    blocks_[w / kWordsPerBlock].words[w % kWordsPerBlock] = word;
  }

  /// Fills in the rank headers.
  void Finish() {
    // Bits past n read as zeros; Rank0 never counts them (i <= n).
    uint64_t before = 0;
    for (Block& block : blocks_) {
      uint64_t running = 0;
      uint64_t rel = 0;
      for (size_t w = 0; w < kWordsPerBlock; ++w) {
        running += 64 - Popcount64(block.words[w]);
        if (w + 1 < kWordsPerBlock) rel |= running << (8 * w);
      }
      block.header = (before << kRelBits) | rel;
      before += running;
    }
    zeros_ = Rank0(n_);
  }

  /// Zeros among bits [0, i), i <= size.
  size_t Rank0(size_t i) const {
    const Block& block = blocks_[i / kBlockBits];
    const size_t w = (i / 64) % kWordsPerBlock;
    const uint64_t below = (uint64_t{1} << (i % 64)) - 1;
    // (header << 8) >> 8w leaves the count before word w in the low byte:
    // 0 for w = 0, the running count after word w - 1 otherwise.
    const uint64_t rel = ((block.header << 8) >> (8 * w)) & 0xff;
    return static_cast<size_t>((block.header >> kRelBits) + rel +
                               Popcount64(~block.words[w] & below));
  }

  /// Zeros among all bits.
  size_t zeros() const { return zeros_; }

  size_t MemoryUsageBytes() const { return blocks_.capacity() * sizeof(Block); }

 private:
  static constexpr size_t kWordsPerBlock = 4;
  static constexpr size_t kBlockBits = 64 * kWordsPerBlock;
  static constexpr int kRelBits = 24;
  static constexpr int kBaseBits = 64 - kRelBits;

  struct Block {
    uint64_t header = 0;
    uint64_t words[kWordsPerBlock] = {};
  };

  std::vector<Block> blocks_;
  size_t n_ = 0;
  size_t zeros_ = 0;
};

/// One wavelet-matrix plane: bit k of every element of `in` (of key(e)),
/// and the elements stably partitioned by that bit, zeros first, into
/// `out`. `ones` is scratch.
template <typename T, typename Key>
ZeroRankBits SplitPlane(const std::vector<T>& in, int k, Key key,
                        std::vector<T>* out, std::vector<T>* ones) {
  const size_t n = in.size();
  out->resize(n);
  ones->resize(n);
  T* zero_dst = out->data();
  T* one_dst = ones->data();
  ZeroRankBits bits(n);
  size_t zero = 0;
  size_t one = 0;
  for (size_t w = 0; w * 64 < n; ++w) {
    const size_t end = std::min(n, w * 64 + 64);
    uint64_t word = 0;
    for (size_t j = w * 64; j < end; ++j) {
      // Both stores land: the one on the wrong side is overwritten later
      // (or sits past its side's end).
      const T v = in[j];
      const uint64_t bit = (key(v) >> k) & 1;
      word |= bit << (j % 64);
      zero_dst[zero] = v;
      one_dst[one] = v;
      zero += bit ^ 1;
      one += bit;
    }
    bits.SetWord(w, word);
  }
  bits.Finish();
  std::copy(one_dst, one_dst + one, zero_dst + zero);
  return bits;
}

/// A wavelet matrix ("The Wavelet Matrix", Information Systems 2015) over
/// values below 2^planes. "How many of values[x, y) are < t" takes two
/// zero ranks per plane: where bit k of t is 1, the plane's zeros in the
/// range are below t and the walk continues in the ones; otherwise it
/// follows the zeros.
class WaveletMatrix {
 public:
  WaveletMatrix() = default;

  template <typename Index>
  static WaveletMatrix Build(std::vector<Index> values, int planes) {
    WaveletMatrix matrix;
    std::vector<Index> next;
    std::vector<Index> ones;
    matrix.planes_.reserve(planes);
    for (int k = planes - 1; k >= 0; --k) {
      matrix.planes_.push_back(
          SplitPlane(values, k, [](Index v) { return v; }, &next, &ones));
      values.swap(next);
    }
    return matrix;
  }

  /// Plane 0 is the most significant bit.
  const ZeroRankBits* planes() const { return planes_.data(); }

  size_t MemoryUsageBytes() const {
    size_t bytes = planes_.capacity() * sizeof(ZeroRankBits);
    for (const ZeroRankBits& plane : planes_) bytes += plane.MemoryUsageBytes();
    return bytes;
  }

 private:
  std::vector<ZeroRankBits> planes_;
};

}  // namespace internal_dense_rank

/// The 3-dimensional range-counting structure for framed DENSE_RANK
/// (paper §4.4), laid out as a bit-sliced range tree.
///
/// dense_rank(row) - 1 = |{distinct codes c < code(row) present in the
/// frame}|. A code is "present" iff the frame contains its first in-frame
/// occurrence: position ∈ [a, b) ∧ prevEq < a — a 2-d dominance count,
/// restricted to codes < code(row) — the third dimension.
///
/// Layout. The outer dimension is a wavelet matrix over each position's
/// code rank r (the number of distinct codes below its code), with
/// bit_width(d) planes for d distinct codes. A query maps its position
/// range [a, b) down the planes with two zero ranks per plane. Where bit k
/// of the query's code rank is 1, the plane's zero half inside the mapped
/// range holds exactly the entries that agree with the query above bit k
/// and have 0 at k — every code there is smaller: a canonical node of the
/// range tree. Its 2-d count (encoded prevEq < a + 1) comes from the
/// plane's inner wavelet matrix, built over the prevEq keys of the plane's
/// zero half only. Entries that match the query rank on every plane have
/// an equal code and are not counted.
///
/// O(log d · log n) rank operations per row and O(n log d log n) bits —
/// the paper's O(log² n) / O(n log² n) bounds, counted in bits.
template <typename Index>
class DenseRankTree {
 public:
  /// Only `profile` (kTreeBuild) and `mem.budget` apply.
  using Options = MergeSortTreeOptions;

  DenseRankTree() = default;

  /// Builds the tree over per-position value codes. The codes must be
  /// dense-code-like: the build allocates tables of max code + 1 entries.
  static DenseRankTree Build(std::span<const Index> codes,
                             const Options& options = {},
                             ThreadPool& pool = ThreadPool::Default()) {
    DenseRankTree tree;
    const size_t n = codes.size();
    tree.n_ = n;
    if (n == 0) return tree;
    HWF_TRACE_SCOPE_ARG("mst.dense_rank_build", "n", n);
    obs::ScopedPhaseTimer timer(options.profile,
                                obs::ProfilePhase::kTreeBuild);

    // Counting pass over the codes: which codes occur, their ranks, and
    // each position's previous equal occurrence (encoded +1, 0 = none).
    const size_t num_codes =
        static_cast<size_t>(*std::max_element(codes.begin(), codes.end())) +
        1;
    std::vector<Index> last(num_codes, 0);
    std::vector<Entry> entries(n);
    for (size_t p = 0; p < n; ++p) {
      Index& prev = last[static_cast<size_t>(codes[p])];
      entries[p].prev = prev;
      prev = static_cast<Index>(p + 1);
    }
    // last[c] != 0 iff code c occurs; turn it into the code-rank table.
    size_t distinct = 0;
    for (size_t c = 0; c < num_codes; ++c) {
      const bool present = last[c] != 0;
      last[c] = static_cast<Index>(distinct);
      distinct += present;
    }
    for (size_t p = 0; p < n; ++p) {
      entries[p].rank = last[static_cast<size_t>(codes[p])];
    }
    tree.distinct_ = distinct;
    // Dense input codes rank to themselves; keep the table otherwise.
    if (distinct != num_codes) {
      last.push_back(static_cast<Index>(distinct));
      tree.code_rank_ = std::move(last);
    }

    // Outer planes, MSB first; the rank bit width makes r = d
    // representable (a code absent from the tree, above every code).
    const int outer_planes = std::bit_width(distinct);
    const int key_planes = std::bit_width(n);
    std::vector<std::vector<Index>> zero_keys(outer_planes);
    std::vector<Entry> next;
    std::vector<Entry> ones;
    tree.planes_.resize(outer_planes);
    for (int k = outer_planes - 1; k >= 0; --k) {
      Plane& plane = tree.planes_[outer_planes - 1 - k];
      plane.bits = internal_dense_rank::SplitPlane(
          entries, k, [](const Entry& e) { return e.rank; }, &next, &ones);
      std::vector<Index>& keys = zero_keys[outer_planes - 1 - k];
      keys.resize(plane.bits.zeros());
      for (size_t j = 0; j < keys.size(); ++j) keys[j] = next[j].prev;
      entries.swap(next);
    }
    std::vector<Entry>().swap(entries);
    std::vector<Entry>().swap(next);
    std::vector<Entry>().swap(ones);

    // The inner matrices are independent: one task per outer plane.
    ParallelFor(
        0, tree.planes_.size(),
        [&](size_t lo, size_t hi) {
          for (size_t l = lo; l < hi; ++l) {
            tree.planes_[l].inner = internal_dense_rank::WaveletMatrix::Build(
                std::move(zero_keys[l]), key_planes);
          }
        },
        pool, /*morsel_size=*/1);

    const size_t bytes = tree.MemoryUsageBytes();
    tree.reservation_.ForceReserve(options.mem.budget, bytes);
    obs::Add(obs::Counter::kMstLevelsBuilt, tree.planes_.size());
    obs::Add(obs::Counter::kMstLevelBytesAllocated, bytes);
    return tree;
  }

  size_t size() const { return n_; }

  size_t MemoryUsageBytes() const {
    size_t bytes = code_rank_.capacity() * sizeof(Index) +
                   planes_.capacity() * sizeof(Plane);
    for (const Plane& plane : planes_) {
      bytes += plane.bits.MemoryUsageBytes() + plane.inner.MemoryUsageBytes();
    }
    return bytes;
  }

  /// One distinct-count query: the number of distinct codes < `code` with
  /// at least one occurrence at positions [pos_lo, pos_hi).
  struct DistinctQuery {
    size_t pos_lo;
    size_t pos_hi;
    Index code;
  };

  /// out[q] = the answer to queries[q]. Each group of `group_size`
  /// queries descends the planes in lockstep, so the rank chains of
  /// different queries overlap instead of each waiting on its own loads.
  void CountDistinctLessBatch(std::span<const DistinctQuery> queries,
                              size_t group_size, size_t* out) const {
    group_size = std::max<size_t>(1, group_size);
    std::vector<Walk> walks;
    std::vector<Walk> nodes;
    for (size_t i = 0; i < queries.size(); i += group_size) {
      const size_t end = std::min(queries.size(), i + group_size);
      CountGroup(queries.subspan(i, end - i), out + i, &walks, &nodes);
    }
  }

 private:
  struct Entry {
    Index rank;  // Code rank: distinct codes below this entry's code.
    Index prev;  // Previous equal occurrence, encoded +1 (0 = none).
  };

  /// Query `query`'s range [x, y), walking down a wavelet matrix: values
  /// below `target` count, as in WaveletMatrix's comment.
  struct Walk {
    const internal_dense_rank::ZeroRankBits* planes;  // Inner walks only.
    size_t x;
    size_t y;
    uint64_t target;
    size_t query;
  };

  struct Plane {
    internal_dense_rank::ZeroRankBits bits;
    internal_dense_rank::WaveletMatrix inner;  // Over the zero half's prevs.
  };

  /// The rank of a (possibly absent) query code.
  size_t CodeRank(Index code) const {
    const size_t c = static_cast<size_t>(code);
    if (code_rank_.empty()) return std::min(c, distinct_);
    return code_rank_[std::min(c, code_rank_.size() - 1)];
  }

  void CountGroup(std::span<const DistinctQuery> queries, size_t* out,
                  std::vector<Walk>* walks, std::vector<Walk>* nodes) const {
    // Outer walks: each query's position range, mapped plane by plane
    // towards its code rank.
    walks->clear();
    for (size_t q = 0; q < queries.size(); ++q) {
      out[q] = 0;
      const DistinctQuery& query = queries[q];
      if (query.pos_lo >= query.pos_hi || n_ == 0) continue;
      walks->push_back(
          {nullptr, query.pos_lo, query.pos_hi, CodeRank(query.code), q});
    }
    // Inner walks: one per canonical node, over its plane's inner matrix
    // towards pos_lo + 1. The slot past the last node absorbs the
    // unconditional store below.
    nodes->resize(walks->size() * planes_.size() + 1);
    size_t num_nodes = 0;
    const int outer_top = static_cast<int>(planes_.size()) - 1;
    for (int k = outer_top; k >= 0 && !walks->empty(); --k) {
      const Plane& plane = planes_[outer_top - k];
      size_t live = 0;
      for (Walk walk : *walks) {
        const size_t x0 = plane.bits.Rank0(walk.x);
        const size_t y0 = plane.bits.Rank0(walk.y);
        const bool one = (walk.target >> k) & 1;
        // A set bit makes the zero half inside the range a canonical node.
        (*nodes)[num_nodes] = {plane.inner.planes(), x0, y0,
                               queries[walk.query].pos_lo + 1, walk.query};
        num_nodes += one & (x0 < y0);
        walk.x = one ? walk.x + plane.bits.zeros() - x0 : x0;
        walk.y = one ? walk.y + plane.bits.zeros() - y0 : y0;
        (*walks)[live] = walk;
        live += walk.x < walk.y;
      }
      walks->resize(live);
    }
    nodes->resize(num_nodes);
    // A node's entries with encoded prevEq < pos_lo + 1 are first
    // in-frame occurrences of distinct smaller codes.
    const int inner_top = std::bit_width(n_) - 1;
    for (int k = inner_top; k >= 0 && !nodes->empty(); --k) {
      size_t live = 0;
      for (Walk node : *nodes) {
        const internal_dense_rank::ZeroRankBits& plane =
            node.planes[inner_top - k];
        const size_t x0 = plane.Rank0(node.x);
        const size_t y0 = plane.Rank0(node.y);
        const bool one = (node.target >> k) & 1;
        out[node.query] += one ? y0 - x0 : 0;
        node.x = one ? node.x + plane.zeros() - x0 : x0;
        node.y = one ? node.y + plane.zeros() - y0 : y0;
        (*nodes)[live] = node;
        live += node.x < node.y;
      }
      nodes->resize(live);
    }
  }

  size_t n_ = 0;
  size_t distinct_ = 0;
  /// code_rank_[c] = distinct codes below c, for c < max code + 1, and
  /// `distinct_` in the last slot; empty when the codes are 0..d-1.
  std::vector<Index> code_rank_;
  std::vector<Plane> planes_;  // MSB plane first.
  mem::MemoryReservation reservation_;
};

}  // namespace hwf

#endif  // HWF_MST_DENSE_RANK_TREE_H_
