#ifndef HWF_MST_LOSER_TREE_H_
#define HWF_MST_LOSER_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/counters.h"

namespace hwf {

/// A tournament (loser) tree for stable k-way merging.
///
/// The classic Knuth/Graefe replacement-selection structure: one leaf per
/// source run, internal nodes store the *loser* of their match, the overall
/// winner sits at the root. Producing the next output element costs exactly
/// ⌈log₂ k⌉ matches along one leaf-to-root path — roughly half the
/// comparisons of a binary-heap merge (which sifts down AND up) — against a
/// flat, cache-resident array instead of a pointer-chased heap of pairs.
///
/// Ties break toward the lower source index, making the merge a stable sort
/// of the concatenated runs. This invariant is load-bearing for the merge
/// sort tree: every level must be a stable sort of level 0, and
/// MultiwaySelect chunk splits assume the same (key, child) order.
///
/// The current position of every source lives in a caller-owned `pos` array
/// so callers (cascading-pointer emission, payload gather) can observe the
/// offsets without a second copy. All internal storage is reused across
/// Init calls, so one tree instance per task amortizes allocation.
template <typename T, typename Less = std::less<T>>
class LoserTree {
 public:
  /// Prepares a tournament over `num_sources` runs. Run c spans
  /// data[c][pos[c], lens[c]); `pos` is advanced in place by Pop.
  void Init(const T* const* data, const size_t* lens, size_t num_sources,
            size_t* pos, Less less = Less()) {
    HWF_DCHECK(num_sources >= 1);
    data_ = data;
    lens_ = lens;
    pos_ = pos;
    less_.emplace(std::move(less));
    k_ = 1;
    while (k_ < num_sources) k_ <<= 1;
    loser_.resize(k_);
    key_.resize(k_);
    live_.assign(k_, 0);
    for (size_t c = 0; c < num_sources; ++c) {
      if (pos[c] < lens[c]) {
        key_[c] = data[c][pos[c]];
        live_[c] = 1;
      }
    }
    // Bottom-up tournament: winners_ holds the winner of every subtree
    // (leaves at [k_, 2k_)); each internal node records its loser.
    winners_.resize(2 * k_);
    for (size_t c = 0; c < k_; ++c) {
      winners_[k_ + c] = static_cast<uint32_t>(c);
    }
    for (size_t node = k_ - 1; node >= 1; --node) {
      const uint32_t a = winners_[2 * node];
      const uint32_t b = winners_[2 * node + 1];
      if (Beats(a, b)) {
        winners_[node] = a;
        loser_[node] = b;
      } else {
        winners_[node] = b;
        loser_[node] = a;
      }
    }
    winner_ = winners_[1];
  }

  /// True when every source is exhausted.
  bool Empty() const { return !live_[winner_]; }

  /// Source index of the current minimum.
  uint32_t TopSource() const { return winner_; }

  /// Key of the current minimum.
  const T& TopKey() const { return key_[winner_]; }

  /// Consumes the current minimum: advances its source and replays the one
  /// leaf-to-root path. ⌈log₂ k⌉ matches.
  void Pop() {
    const uint32_t c = winner_;
    const size_t next = ++pos_[c];
    if (next < lens_[c]) {
      key_[c] = data_[c][next];
    } else {
      live_[c] = 0;
    }
    uint32_t s = c;
    for (size_t node = (k_ + c) >> 1; node >= 1; node >>= 1) {
      const uint32_t t = loser_[node];
      if (Beats(t, s)) {
        loser_[node] = s;
        s = t;
      }
    }
    winner_ = s;
  }

 private:
  /// Strict "source a precedes source b" in the stable merge order:
  /// exhausted sources lose to everything, equal keys go to the lower index.
  bool Beats(uint32_t a, uint32_t b) const {
    if (!live_[a]) return false;
    if (!live_[b]) return true;
    if ((*less_)(key_[a], key_[b])) return true;
    if ((*less_)(key_[b], key_[a])) return false;
    return a < b;
  }

  const T* const* data_ = nullptr;
  const size_t* lens_ = nullptr;
  size_t* pos_ = nullptr;
  // Optional because comparators (capturing lambdas) need not be
  // default-constructible or assignable; re-emplaced on every Init.
  std::optional<Less> less_;
  size_t k_ = 0;                  // Leaf count, padded to a power of two.
  uint32_t winner_ = 0;
  std::vector<uint32_t> loser_;   // loser_[node], node in [1, k_).
  std::vector<uint32_t> winners_; // Init-time scratch.
  std::vector<T> key_;            // Current head key per source.
  std::vector<uint8_t> live_;     // 0 = exhausted (or padding).
};

/// Packed-key traits: integer key types whose (key, source-index) pair fits
/// a single wider unsigned integer. Packing makes the tournament comparison
/// ONE integer compare — and, crucially, lets the replay loop run on
/// conditional moves instead of data-dependent branches, which merging
/// makes inherently unpredictable (~50% taken). The low bits hold the
/// source index, so smaller packed value == earlier in the stable merge
/// order, preserving the tie-break invariant by construction.
template <typename Index>
struct PackedKeyTraits;

template <>
struct PackedKeyTraits<uint32_t> {
  using Packed = uint64_t;
  static constexpr int kShift = 32;
};

#if defined(__SIZEOF_INT128__)
template <>
struct PackedKeyTraits<uint64_t> {
  using Packed = unsigned __int128;
  static constexpr int kShift = 64;
};
#endif

template <typename Index, typename = void>
inline constexpr bool kHasPackedKey = false;
template <typename Index>
inline constexpr bool
    kHasPackedKey<Index, std::void_t<typename PackedKeyTraits<Index>::Packed>> =
        true;

/// Branchless loser tree over integer keys: nodes store packed
/// (key << kShift | source) VALUES, not indices, so a replay step is
/// load → compare → two conditional moves, with no indirection and no
/// unpredictable branch. Exhausted sources collapse to an all-ones
/// sentinel, which loses to every live entry (a live entry's low bits are
/// a real source index < 2^kShift - 1, so even a maximal key packs below
/// the sentinel).
///
/// Same external contract as LoserTree: stable tie-break by source index,
/// caller-owned `pos` cursors advanced by Pop.
template <typename Index>
class PackedLoserTree {
 public:
  using Packed = typename PackedKeyTraits<Index>::Packed;
  static constexpr int kShift = PackedKeyTraits<Index>::kShift;

  void Init(const Index* const* data, const size_t* lens, size_t num_sources,
            size_t* pos) {
    HWF_DCHECK(num_sources >= 1);
    data_ = data;
    lens_ = lens;
    pos_ = pos;
    k_ = 1;
    while (k_ < num_sources) k_ <<= 1;
    node_.resize(k_);
    winners_.resize(2 * k_);
    for (size_t c = 0; c < k_; ++c) {
      winners_[k_ + c] = c < num_sources && pos[c] < lens[c]
                             ? Pack(data[c][pos[c]], c)
                             : kSentinel;
    }
    for (size_t node = k_ - 1; node >= 1; --node) {
      const Packed a = winners_[2 * node];
      const Packed b = winners_[2 * node + 1];
      winners_[node] = a < b ? a : b;
      node_[node] = a < b ? b : a;
    }
    winner_ = winners_[1];
  }

  bool Empty() const { return winner_ == kSentinel; }

  uint32_t TopSource() const {
    return static_cast<uint32_t>(winner_ & kIdxMask);
  }

  Index TopKey() const { return static_cast<Index>(winner_ >> kShift); }

  void Pop() {
    const size_t c = TopSource();
    const size_t next = ++pos_[c];
    Packed cur = next < lens_[c] ? Pack(data_[c][next], c) : kSentinel;
    for (size_t node = (k_ + c) >> 1; node >= 1; node >>= 1) {
      const Packed other = node_[node];
      const Packed lo = other < cur ? other : cur;  // cmov, not a branch
      node_[node] = other < cur ? cur : other;
      cur = lo;
    }
    winner_ = cur;
  }

 private:
  static constexpr Packed kSentinel = ~Packed{0};
  static constexpr Packed kIdxMask = (Packed{1} << kShift) - 1;

  static Packed Pack(Index key, size_t source) {
    return (static_cast<Packed>(key) << kShift) | static_cast<Packed>(source);
  }

  const Index* const* data_ = nullptr;
  const size_t* lens_ = nullptr;
  size_t* pos_ = nullptr;
  size_t k_ = 0;
  Packed winner_ = 0;
  std::vector<Packed> node_;     // Loser values, nodes [1, k_).
  std::vector<Packed> winners_;  // Init-time scratch.
};

// ---------------------------------------------------------------------------
// Offset-value coding (Do & Graefe, "Robust and Efficient Sorting with
// Offset-Value Coding").
// ---------------------------------------------------------------------------
//
// Every element in a sorted run carries a code describing its first
// difference from its predecessor: (arity - offset, value at offset),
// packed into one 128-bit integer so that for two elements coded against a
// COMMON base, the smaller code identifies the smaller element. Most merge
// comparisons therefore resolve on a single integer compare; only
// equal-code matches fall back to comparing key words — and then only the
// words past the shared offset. The PackedLoserTree above is the
// degenerate single-word case of the same idea (key and tie-break in one
// integer); the coded tree below generalizes it to multi-word records.
//
// Code algebra (proofs in DESIGN.md §10). For a and b coded against the
// same base, with base <= a and base <= b:
//   - codes differ: the smaller code wins, and the loser's code is
//     ALREADY its code relative to the winner (no update needed).
//   - codes equal and non-zero: a and b agree with the base — hence with
//     each other — through the code's offset word; compare the remaining
//     words. The loser's new code is (first differing word, its value)
//     relative to the winner. Full equality ties break by source index
//     and the loser's code becomes 0 ("equal to base").
// A freshly computed code is only valid against the element it was
// computed against: replacement elements entering a tournament mid-merge
// MUST use their precomputed in-run code (relative to the run predecessor,
// which is exactly the element just emitted); recomputing "fresh" codes
// against -inf mid-merge gives wrong merge orders.

#if defined(__SIZEOF_INT128__)
#define HWF_HAS_OVC 1

/// 128-bit offset-value code: ((arity - offset) << 64) | value. Offset 0
/// relative to the conceptual -inf element yields the largest offset
/// component, code 0 means "equal to base".
using OvcCode = unsigned __int128;

/// Key-word access for offset-value coding. Types opt in either through
/// this specialization or by exposing `static constexpr size_t kOvcWords`
/// and `uint64_t OvcWord(size_t) const` members (picked up generically
/// below). The word sequence must order exactly like the comparator the
/// sort is invoked with: word 0 compares first, ties fall through to word
/// 1, and so on. Callers assert that contract by passing use_ovc = true.
template <typename T, typename = void>
struct OvcTraits;

template <typename T>
struct OvcTraits<T, std::void_t<decltype(T::kOvcWords)>> {
  static constexpr size_t kNumWords = T::kOvcWords;
  static uint64_t Word(const T& v, size_t w) { return v.OvcWord(w); }
};

/// (code, position) pairs — the preprocessing record sorts.
template <typename F, typename S>
struct OvcTraits<std::pair<F, S>,
                 std::enable_if_t<std::is_unsigned_v<F> &&
                                  std::is_unsigned_v<S> && sizeof(F) <= 8 &&
                                  sizeof(S) <= 8>> {
  static constexpr size_t kNumWords = 2;
  static uint64_t Word(const std::pair<F, S>& v, size_t w) {
    return w == 0 ? static_cast<uint64_t>(v.first)
                  : static_cast<uint64_t>(v.second);
  }
};

template <typename T, typename = void>
inline constexpr bool kHasOvcTraits = false;
template <typename T>
inline constexpr bool
    kHasOvcTraits<T, std::void_t<decltype(OvcTraits<T>::kNumWords)>> = true;

/// Code for an element whose first difference from its base is at word
/// `offset` with word value `value`.
template <typename T>
constexpr OvcCode OvcEncode(size_t offset, uint64_t value) {
  return (static_cast<OvcCode>(OvcTraits<T>::kNumWords - offset) << 64) |
         static_cast<OvcCode>(value);
}

/// Code of `v` relative to the conceptual -inf element (smaller than
/// everything): first difference at word 0. Valid as a common base for any
/// set of elements, so tournaments are initialized with it.
template <typename T>
OvcCode OvcInitialCode(const T& v) {
  return OvcEncode<T>(0, OvcTraits<T>::Word(v, 0));
}

/// Code of `v` relative to `base`; requires base <= v in the word order.
template <typename T>
OvcCode OvcCodeAgainst(const T& v, const T& base) {
  constexpr size_t kWords = OvcTraits<T>::kNumWords;
  for (size_t w = 0; w < kWords; ++w) {
    const uint64_t x = OvcTraits<T>::Word(v, w);
    if (x != OvcTraits<T>::Word(base, w)) return OvcEncode<T>(w, x);
  }
  return 0;
}

/// In-run codes of a sorted run: codes[0] relative to -inf, codes[i]
/// relative to data[i-1]. One linear pass, run by run, in parallel — this
/// is where merge rounds get their replacement codes from.
template <typename T>
void ComputeOvcRunCodes(const T* data, size_t n, OvcCode* codes) {
  if (n == 0) return;
  codes[0] = OvcInitialCode(data[0]);
  for (size_t i = 1; i < n; ++i) {
    codes[i] = OvcCodeAgainst(data[i], data[i - 1]);
  }
}

/// Comparison tallies of one merge, flushed to the global counters in one
/// add per merge (not per element).
struct OvcStats {
  uint64_t comparisons = 0;
  uint64_t code_resolved = 0;

  void Flush() {
    if (comparisons > 0) {
      obs::Add(obs::Counter::kSortComparisons, comparisons);
      obs::Add(obs::Counter::kSortOvcResolved, code_resolved);
    }
    comparisons = 0;
    code_resolved = 0;
  }
};

/// Three-way compare of two elements coded against a common base (-1: a
/// precedes, 1: b precedes, 0: equal). Implements the code algebra above:
/// the loser's code is rewritten in place to be relative to the winner.
/// On a full tie the caller picks the winner by source index and must set
/// the loser's code to 0.
template <typename T>
int OvcCompare(const T& a, OvcCode& ca, const T& b, OvcCode& cb,
               OvcStats& stats) {
  ++stats.comparisons;
  if (ca != cb) {
    ++stats.code_resolved;
    return ca < cb ? -1 : 1;
  }
  constexpr size_t kWords = OvcTraits<T>::kNumWords;
  // Equal codes (including 0): agreement through the offset word; compare
  // the rest. ca >> 64 is kWords - offset, so the first word to look at is
  // offset + 1; for code 0 that lands past the end and falls straight to
  // the tie return.
  for (size_t w = kWords - static_cast<size_t>(ca >> 64) + 1; w < kWords;
       ++w) {
    const uint64_t x = OvcTraits<T>::Word(a, w);
    const uint64_t y = OvcTraits<T>::Word(b, w);
    if (x == y) continue;
    if (x < y) {
      cb = OvcEncode<T>(w, y);
      return -1;
    }
    ca = OvcEncode<T>(w, x);
    return 1;
  }
  return 0;
}

/// Loser tree over offset-value-coded runs: same external contract as
/// LoserTree (stable tie-break by source index, caller-owned `pos`
/// cursors), but each head carries its code relative to the last emitted
/// element, so a tournament match is usually one 128-bit compare.
///
/// Init codes every head against -inf (the one base all runs share).
/// Pop's replacement head takes its PRECOMPUTED in-run code from
/// `in_codes` — its run predecessor is the element just emitted, which is
/// exactly the base every code in the tree is relative to. The loser
/// stored at each node is coded relative to the winner of that node's
/// subtree; since the emitted winner won every match on its leaf-to-root
/// path, all codes the replay touches share the emitted element as base.
template <typename T>
class OvcLoserTree {
 public:
  /// Run c spans data[c][pos[c], lens[c]); in_codes[c] aligns with data[c]
  /// and holds in-run codes (ComputeOvcRunCodes). Heads are re-coded
  /// against -inf here, so chunked merges starting at pos[c] > 0 are fine.
  void Init(const T* const* data, const size_t* lens, size_t num_sources,
            size_t* pos, const OvcCode* const* in_codes) {
    HWF_DCHECK(num_sources >= 1);
    data_ = data;
    lens_ = lens;
    pos_ = pos;
    in_codes_ = in_codes;
    k_ = 1;
    while (k_ < num_sources) k_ <<= 1;
    loser_.resize(k_);
    key_.resize(k_);
    code_.assign(k_, 0);
    live_.assign(k_, 0);
    for (size_t c = 0; c < num_sources; ++c) {
      if (pos[c] < lens[c]) {
        key_[c] = data[c][pos[c]];
        code_[c] = OvcInitialCode(key_[c]);
        live_[c] = 1;
      }
    }
    winners_.resize(2 * k_);
    for (size_t c = 0; c < k_; ++c) {
      winners_[k_ + c] = static_cast<uint32_t>(c);
    }
    for (size_t node = k_ - 1; node >= 1; --node) {
      const uint32_t a = winners_[2 * node];
      const uint32_t b = winners_[2 * node + 1];
      if (Beats(a, b)) {
        winners_[node] = a;
        loser_[node] = b;
      } else {
        winners_[node] = b;
        loser_[node] = a;
      }
    }
    winner_ = winners_[1];
  }

  bool Empty() const { return !live_[winner_]; }

  uint32_t TopSource() const { return winner_; }

  const T& TopKey() const { return key_[winner_]; }

  /// Code of the current minimum relative to the previously popped
  /// element — by construction the in-run code of the merged output, so a
  /// merge round emits the codes its successor round consumes for free.
  OvcCode TopCode() const { return code_[winner_]; }

  void Pop() {
    const uint32_t c = winner_;
    const size_t next = ++pos_[c];
    if (next < lens_[c]) {
      key_[c] = data_[c][next];
      code_[c] = in_codes_[c][next];
    } else {
      live_[c] = 0;
    }
    uint32_t s = c;
    for (size_t node = (k_ + c) >> 1; node >= 1; node >>= 1) {
      const uint32_t t = loser_[node];
      if (Beats(t, s)) {
        loser_[node] = s;
        s = t;
      }
    }
    winner_ = s;
  }

  /// Accumulated comparison tallies; callers flush once per merge.
  OvcStats& stats() { return stats_; }

 private:
  bool Beats(uint32_t a, uint32_t b) {
    if (!live_[a]) return false;
    if (!live_[b]) return true;
    const int cmp = OvcCompare(key_[a], code_[a], key_[b], code_[b], stats_);
    if (cmp != 0) return cmp < 0;
    // Full tie: the lower source wins (stability); the loser equals the
    // winner, i.e. code 0 against the new base.
    if (a < b) {
      code_[b] = 0;
      return true;
    }
    code_[a] = 0;
    return false;
  }

  const T* const* data_ = nullptr;
  const size_t* lens_ = nullptr;
  size_t* pos_ = nullptr;
  const OvcCode* const* in_codes_ = nullptr;
  size_t k_ = 0;
  uint32_t winner_ = 0;
  std::vector<uint32_t> loser_;
  std::vector<uint32_t> winners_;
  std::vector<T> key_;
  std::vector<OvcCode> code_;  // Head code per source, base = last emitted.
  std::vector<uint8_t> live_;
  OvcStats stats_;
};

/// Coded counterpart of LoserTreeMerge: merges `m` coded runs into `out`
/// and writes the outputs' in-run codes to `out_codes` (out_codes[0] is
/// relative to -inf — valid when the merge output starts a run; chunked
/// merges fix their first boundary up afterwards, see ParallelSortRange).
/// Output order is bit-identical to LoserTreeMerge under the natural word
/// order.
template <typename T>
void OvcLoserTreeMerge(OvcLoserTree<T>& tree, const T* const* data,
                       const size_t* lens, size_t m, size_t* pos,
                       const OvcCode* const* in_codes, T* out,
                       OvcCode* out_codes, size_t out_len) {
  if (m == 1) {
    std::copy(data[0] + pos[0], data[0] + pos[0] + out_len, out);
    std::copy(in_codes[0] + pos[0], in_codes[0] + pos[0] + out_len, out_codes);
    pos[0] += out_len;
    return;
  }
  if (m == 2) {
    const T* a = data[0];
    const T* b = data[1];
    const size_t la = lens[0];
    const size_t lb = lens[1];
    size_t i = pos[0];
    size_t j = pos[1];
    OvcStats& stats = tree.stats();
    // Heads coded against -inf; every later head uses its in-run code,
    // whose base is the element emitted right before it.
    OvcCode ca = i < la ? OvcInitialCode(a[i]) : OvcCode{0};
    OvcCode cb = j < lb ? OvcInitialCode(b[j]) : OvcCode{0};
    size_t o = 0;
    while (o < out_len && i < la && j < lb) {
      const int cmp = OvcCompare(a[i], ca, b[j], cb, stats);
      if (cmp <= 0) {
        out[o] = a[i];
        out_codes[o] = ca;
        if (cmp == 0) cb = 0;  // Tie: run 0 wins, b's head equals the base.
        ++i;
        if (i < la) ca = in_codes[0][i];
      } else {
        out[o] = b[j];
        out_codes[o] = cb;
        ++j;
        if (j < lb) cb = in_codes[1][j];
      }
      ++o;
    }
    while (o < out_len && i < la) {
      out[o] = a[i];
      out_codes[o] = ca;
      ++o;
      ++i;
      if (i < la) ca = in_codes[0][i];
    }
    while (o < out_len && j < lb) {
      out[o] = b[j];
      out_codes[o] = cb;
      ++o;
      ++j;
      if (j < lb) cb = in_codes[1][j];
    }
    pos[0] = i;
    pos[1] = j;
    stats.Flush();
    return;
  }
  tree.Init(data, lens, m, pos, in_codes);
  for (size_t o = 0; o < out_len; ++o) {
    out[o] = tree.TopKey();
    out_codes[o] = tree.TopCode();
    tree.Pop();
  }
  tree.stats().Flush();
}

#endif  // defined(__SIZEOF_INT128__)

#if !defined(HWF_HAS_OVC)
/// Without 128-bit integers the coded path is unavailable; sorts fall back
/// to the uncoded reference merge (use_ovc is ignored).
template <typename T, typename = void>
inline constexpr bool kHasOvcTraits = false;
#endif

/// Splits the stable (tie-by-source-index) k-way merge of `m` sorted runs at
/// global rank `k`, for an arbitrary strict weak order: on return,
/// offsets[c] is the number of elements run c contributes to the first k
/// merge outputs. Generic counterpart of internal_mst::MultiwaySelect
/// (which exploits integer keys); used to co-select chunk boundaries for
/// the parallel sort's multiway merge phase.
///
/// Quickselect over sorted runs: each round pivots on the median of the
/// widest candidate window and either accepts everything before the pivot
/// or discards everything from it on, halving that window. O(m² log² L)
/// comparisons — called once per output chunk, never per element.
template <typename T, typename Less>
void MultiwaySelectGeneric(const T* const* data, const size_t* lens, size_t m,
                           size_t k, Less less, size_t* offsets) {
  std::vector<size_t> acc(m, 0);  // Accepted prefix (among the k smallest).
  std::vector<size_t> hi(m);      // Exclusive candidate upper bound.
  for (size_t c = 0; c < m; ++c) hi[c] = lens[c];
  size_t need = k;
  while (need > 0) {
    // Pivot: middle of the widest candidate window.
    size_t p = m;
    size_t widest = 0;
    for (size_t c = 0; c < m; ++c) {
      const size_t w = hi[c] - acc[c];
      if (w > widest) {
        widest = w;
        p = c;
      }
    }
    HWF_DCHECK(p < m);  // k must not exceed the total candidate count.
    const size_t i = acc[p] + (widest - 1) / 2;
    const T& v = data[p][i];
    // Candidates strictly before position (v, p, i) in the merge order:
    // runs below p contribute elements <= v, runs above only elements < v.
    size_t total_before = 0;
    std::vector<size_t> before(m);
    for (size_t c = 0; c < m; ++c) {
      if (c == p) {
        before[c] = i - acc[c];
      } else {
        const T* b = data[c] + acc[c];
        const T* e = data[c] + hi[c];
        before[c] = static_cast<size_t>(
            (c < p ? std::upper_bound(b, e, v, less)
                   : std::lower_bound(b, e, v, less)) -
            b);
      }
      total_before += before[c];
    }
    if (total_before < need) {
      // Everything before the pivot, plus the pivot itself, is among the k
      // smallest.
      for (size_t c = 0; c < m; ++c) acc[c] += before[c];
      acc[p] += 1;
      need -= total_before + 1;
    } else {
      // The k smallest all precede the pivot: shrink every window.
      for (size_t c = 0; c < m; ++c) hi[c] = acc[c] + before[c];
    }
  }
  for (size_t c = 0; c < m; ++c) offsets[c] = acc[c];
}

/// Reusable per-task scratch for run merging: child run descriptors, the
/// per-child cursor array, and the loser tree's node storage. One instance
/// per worker task amortizes every allocation across the runs (or chunks)
/// that task merges.
template <typename Index, typename Payload>
struct MergeScratch {
  std::vector<const Index*> child_data;
  std::vector<size_t> child_lens;
  std::vector<const Payload*> child_payload;
  std::vector<size_t> offsets;
  std::vector<uint32_t> sort_idx;  // Level-1 payload sort permutation.
  // Packed (branchless) tournament whenever the key type supports it.
  std::conditional_t<kHasPackedKey<Index>, PackedLoserTree<Index>,
                     LoserTree<Index>>
      tree;
};

namespace internal_mst {

/// Branchless-core 2-way merge with the same contract as MergeRunLoserTree
/// below. The MST's last run of a level is frequently partial, so fanout-f
/// builds still see plenty of 2-child merges; a tournament over two runs
/// would waste its log factor on them.
template <typename Index, typename Payload, bool kHasPayload>
void MergeRun2Way(const Index* const* child_data, const size_t* child_lens,
                  Index* out, size_t out_len, Index* cascade_out,
                  size_t sampling, size_t fanout,
                  const Payload* const* child_payload, Payload* out_payload,
                  size_t out_offset, size_t* offsets) {
  const Index* a = child_data[0];
  const Index* b = child_data[1];
  const size_t la = child_lens[0];
  const size_t lb = child_lens[1];
  const Payload* pa = nullptr;
  const Payload* pb = nullptr;
  if constexpr (kHasPayload) {
    pa = child_payload[0];
    pb = child_payload[1];
  }
  size_t i = offsets[0];
  size_t j = offsets[1];
  size_t o = out_offset;
  const size_t end = out_offset + out_len;
  while (o < end) {
    size_t seg_end = end;
    if (cascade_out != nullptr) {
      if (o % sampling == 0) {
        Index* slot = cascade_out + (o / sampling) * fanout;
        slot[0] = static_cast<Index>(i);
        slot[1] = static_cast<Index>(j);
        for (size_t c = 2; c < fanout; ++c) slot[c] = 0;
      }
      seg_end = std::min(end, (o / sampling + 1) * sampling);
    }
    while (o < seg_end) {
      if (i < la && j < lb) {
        // Both runs live: branchless core. Each step consumes one element,
        // so min(remaining_a, remaining_b) steps are safe without bounds
        // checks. Ties take child 0 (stability).
        size_t steps = std::min(seg_end - o, std::min(la - i, lb - j));
        while (steps-- > 0) {
          const Index ka = a[i];
          const Index kb = b[j];
          const bool take_b = kb < ka;
          out[o] = take_b ? kb : ka;
          if constexpr (kHasPayload) {
            out_payload[o] = take_b ? pb[j] : pa[i];
          }
          i += !take_b;
          j += take_b;
          ++o;
        }
      } else if (i < la) {
        const size_t steps = std::min(seg_end - o, la - i);
        std::copy(a + i, a + i + steps, out + o);
        if constexpr (kHasPayload) {
          std::copy(pa + i, pa + i + steps, out_payload + o);
        }
        i += steps;
        o += steps;
      } else {
        const size_t steps = std::min(seg_end - o, lb - j);
        std::copy(b + j, b + j + steps, out + o);
        if constexpr (kHasPayload) {
          std::copy(pb + j, pb + j + steps, out_payload + o);
        }
        j += steps;
        o += steps;
      }
    }
  }
  offsets[0] = i;
  offsets[1] = j;
}

/// Loser-tree k-way merge of `num_children` sorted runs into `out`, with
/// the merge-sort-tree contract (merge_sort_tree.h): stable tie-break by
/// child index, cascading-pointer emission every `sampling` output
/// positions (the child offsets consumed so far), optional payload gather,
/// and chunked merging via `out_offset`/`start_offsets` for the §5.2
/// upper-level strategy.
template <typename Index, typename Payload, bool kHasPayload>
void MergeRunLoserTree(MergeScratch<Index, Payload>& scratch,
                       const Index* const* child_data, const size_t* child_lens,
                       size_t num_children, Index* out, size_t out_len,
                       Index* cascade_out, size_t sampling, size_t fanout,
                       const Payload* const* child_payload,
                       Payload* out_payload, size_t out_offset = 0,
                       const size_t* start_offsets = nullptr) {
  std::vector<size_t>& offsets = scratch.offsets;
  offsets.assign(num_children, 0);
  if (start_offsets != nullptr) {
    offsets.assign(start_offsets, start_offsets + num_children);
  }
  if (num_children == 1) {
    // Degenerate tail run: a straight copy (cascade offsets trivially 0).
    const size_t i = offsets[0];
    std::copy(child_data[0] + i, child_data[0] + i + out_len,
              out + out_offset);
    if constexpr (kHasPayload) {
      std::copy(child_payload[0] + i, child_payload[0] + i + out_len,
                out_payload + out_offset);
    }
    if (cascade_out != nullptr) {
      for (size_t o = out_offset; o < out_offset + out_len; ++o) {
        if (o % sampling != 0) continue;
        Index* slot = cascade_out + (o / sampling) * fanout;
        slot[0] = static_cast<Index>(offsets[0] + (o - out_offset));
        for (size_t c = 1; c < fanout; ++c) slot[c] = 0;
      }
    }
    return;
  }
  if (num_children == 2) {
    MergeRun2Way<Index, Payload, kHasPayload>(
        child_data, child_lens, out, out_len, cascade_out, sampling, fanout,
        child_payload, out_payload, out_offset, offsets.data());
    return;
  }
  auto& tree = scratch.tree;
  tree.Init(child_data, child_lens, num_children, offsets.data());
  size_t o = out_offset;
  const size_t end = out_offset + out_len;
  while (o < end) {
    size_t seg_end = end;
    if (cascade_out != nullptr) {
      if (o % sampling == 0) {
        Index* slot = cascade_out + (o / sampling) * fanout;
        for (size_t c = 0; c < num_children; ++c) {
          slot[c] = static_cast<Index>(offsets[c]);
        }
        for (size_t c = num_children; c < fanout; ++c) slot[c] = 0;
      }
      seg_end = std::min(end, (o / sampling + 1) * sampling);
    }
    for (; o < seg_end; ++o) {
      const uint32_t c = tree.TopSource();
      out[o] = tree.TopKey();
      if constexpr (kHasPayload) {
        out_payload[o] = child_payload[c][offsets[c]];
      }
      tree.Pop();
    }
  }
}

}  // namespace internal_mst

/// Merges `m` sorted runs into `out` with a loser tree (no cascade/payload
/// machinery): the parallel sort's multiway merge kernel. `pos` holds the
/// per-run start offsets (e.g. from MultiwaySelectGeneric) and is advanced
/// past the consumed elements. Ties break toward the lower run index, so
/// the output matches a left-biased pairwise merge tree bit for bit.
template <typename T, typename Less>
void LoserTreeMerge(LoserTree<T, Less>& tree, const T* const* data,
                    const size_t* lens, size_t m, size_t* pos, T* out,
                    size_t out_len, Less less) {
  if (m == 1) {
    std::copy(data[0] + pos[0], data[0] + pos[0] + out_len, out);
    pos[0] += out_len;
    return;
  }
  if (m == 2) {
    const T* a = data[0];
    const T* b = data[1];
    size_t i = pos[0];
    size_t j = pos[1];
    size_t o = 0;
    while (o < out_len && i < lens[0] && j < lens[1]) {
      size_t steps = std::min(out_len - o, std::min(lens[0] - i, lens[1] - j));
      while (steps-- > 0) {
        const bool take_b = less(b[j], a[i]);
        out[o++] = take_b ? b[j] : a[i];
        i += !take_b;
        j += take_b;
      }
    }
    if (o < out_len) {
      if (i < lens[0]) {
        std::copy(a + i, a + i + (out_len - o), out + o);
        i += out_len - o;
      } else {
        std::copy(b + j, b + j + (out_len - o), out + o);
        j += out_len - o;
      }
    }
    pos[0] = i;
    pos[1] = j;
    return;
  }
  tree.Init(data, lens, m, pos, less);
  for (size_t o = 0; o < out_len; ++o) {
    out[o] = tree.TopKey();
    tree.Pop();
  }
}

}  // namespace hwf

#endif  // HWF_MST_LOSER_TREE_H_
