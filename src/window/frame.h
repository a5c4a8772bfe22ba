#ifndef HWF_WINDOW_FRAME_H_
#define HWF_WINDOW_FRAME_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "window/spec.h"

namespace hwf {

/// A half-open range of positions within a partition's sort order.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
  bool empty() const { return begin >= end; }
  size_t size() const { return empty() ? 0 : end - begin; }
};

/// The materialized frame of one row: up to three disjoint ascending
/// position ranges (§4.7 — exclusion clauses punch at most two holes).
class FrameRanges {
 public:
  /// Appends a range; empty ranges are dropped. Ranges must be added in
  /// ascending, non-overlapping order.
  void Add(size_t begin, size_t end) {
    if (begin >= end) return;
    HWF_DCHECK(count_ == 0 || ranges_[count_ - 1].end <= begin);
    HWF_DCHECK(count_ < kMaxRanges);
    ranges_[count_++] = RowRange{begin, end};
  }

  size_t count() const { return count_; }
  const RowRange& operator[](size_t i) const {
    HWF_DCHECK(i < count_);
    return ranges_[i];
  }

  /// Total number of rows across all ranges.
  size_t TotalRows() const {
    size_t total = 0;
    for (size_t i = 0; i < count_; ++i) total += ranges_[i].size();
    return total;
  }

  /// Whether `pos` lies inside one of the ranges.
  bool Contains(size_t pos) const {
    for (size_t i = 0; i < count_; ++i) {
      if (pos >= ranges_[i].begin && pos < ranges_[i].end) return true;
    }
    return false;
  }

  static constexpr size_t kMaxRanges = 3;

 private:
  std::array<RowRange, kMaxRanges> ranges_;
  size_t count_ = 0;
};

/// Resolves per-row window frames within one partition.
///
/// The executor fills in the per-position context (sorted order keys for
/// RANGE, peer groups, evaluated per-row offsets) and then queries
/// Resolve(i) for every position. All inputs are in partition sort order.
class FrameResolver {
 public:
  struct Inputs {
    size_t n = 0;
    FrameSpec frame;

    /// RANGE support: the single numeric ORDER BY key per position, plus
    /// the region [nonnull_begin, nonnull_end) holding the non-NULL keys
    /// (NULLs sort to one end per the key's nulls_first flag).
    std::vector<double> range_keys;
    std::vector<uint8_t> range_key_valid;
    bool ascending = true;
    size_t nonnull_begin = 0;
    size_t nonnull_end = 0;

    /// Peer groups (equal ORDER BY values). Required for RANGE CURRENT ROW
    /// bounds, GROUPS mode, and GROUP/TIES exclusion; otherwise may stay
    /// empty.
    std::vector<size_t> peer_start;
    std::vector<size_t> peer_end;
    std::vector<size_t> group_index;   // per position
    std::vector<size_t> group_starts;  // per group; sentinel n at the end

    /// Per-row offsets already evaluated per position (empty = use the
    /// constant offset from the FrameSpec). Integral for ROWS/GROUPS,
    /// numeric for RANGE.
    std::vector<int64_t> begin_offsets;
    std::vector<int64_t> end_offsets;
    std::vector<double> begin_offsets_numeric;
    std::vector<double> end_offsets_numeric;
  };

  explicit FrameResolver(Inputs inputs);

  /// The frame of the row at partition position i, as disjoint ranges with
  /// exclusion applied.
  FrameRanges Resolve(size_t i) const;

  /// The frame before exclusion: a single clamped [begin, end) range.
  RowRange ResolveBase(size_t i) const;

 private:
  int64_t BeginOffset(size_t i) const;
  int64_t EndOffset(size_t i) const;
  double BeginOffsetNumeric(size_t i) const;
  double EndOffsetNumeric(size_t i) const;

  /// First non-NULL, non-NaN position whose key is >= bound (ascending)
  /// or <= bound (descending).
  size_t LowerBoundKey(double bound) const;
  /// One past the last non-NULL, non-NaN position whose key is <= bound
  /// (ascending) or >= bound (descending).
  size_t UpperBoundKey(double bound) const;

  Inputs in_;
  /// The non-NULL keys that are numbers, [number_begin_, number_end_): the
  /// RANGE offset searches' domain, sorted under plain `<`.
  size_t number_begin_ = 0;
  size_t number_end_ = 0;
};

}  // namespace hwf

#endif  // HWF_WINDOW_FRAME_H_
