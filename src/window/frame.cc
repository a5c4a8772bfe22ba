#include "window/frame.h"

#include <algorithm>
#include <cmath>

namespace hwf {

FrameResolver::FrameResolver(Inputs inputs) : in_(std::move(inputs)) {
  const FrameSpec& frame = in_.frame;
  const bool needs_peers =
      frame.exclusion == FrameExclusion::kGroup ||
      frame.exclusion == FrameExclusion::kTies ||
      frame.mode == FrameMode::kGroups ||
      (frame.mode == FrameMode::kRange &&
       (frame.begin.kind == FrameBoundKind::kCurrentRow ||
        frame.end.kind == FrameBoundKind::kCurrentRow ||
        frame.begin.kind == FrameBoundKind::kPreceding ||
        frame.begin.kind == FrameBoundKind::kFollowing ||
        frame.end.kind == FrameBoundKind::kPreceding ||
        frame.end.kind == FrameBoundKind::kFollowing));
  if (needs_peers) {
    HWF_CHECK_MSG(in_.peer_start.size() == in_.n && in_.peer_end.size() == in_.n,
                  "peer groups required for this frame specification");
  }
  if (frame.mode == FrameMode::kGroups) {
    HWF_CHECK_MSG(in_.group_index.size() == in_.n,
                  "group indexes required for GROUPS mode");
  }
  // NaN keys sort above every number: last in ASC, first in DESC.
  number_begin_ = in_.nonnull_begin;
  number_end_ = in_.nonnull_end;
  if (in_.range_keys.empty()) return;
  const double* keys = in_.range_keys.data();
  const double* split = std::partition_point(
      keys + number_begin_, keys + number_end_,
      [&](double key) { return std::isnan(key) != in_.ascending; });
  (in_.ascending ? number_end_ : number_begin_) =
      static_cast<size_t>(split - keys);
}

int64_t FrameResolver::BeginOffset(size_t i) const {
  if (!in_.begin_offsets.empty()) {
    return std::max<int64_t>(0, in_.begin_offsets[i]);
  }
  return in_.frame.begin.offset;
}

int64_t FrameResolver::EndOffset(size_t i) const {
  if (!in_.end_offsets.empty()) {
    return std::max<int64_t>(0, in_.end_offsets[i]);
  }
  return in_.frame.end.offset;
}

double FrameResolver::BeginOffsetNumeric(size_t i) const {
  if (!in_.begin_offsets_numeric.empty()) {
    return std::max(0.0, in_.begin_offsets_numeric[i]);
  }
  return static_cast<double>(in_.frame.begin.offset);
}

double FrameResolver::EndOffsetNumeric(size_t i) const {
  if (!in_.end_offsets_numeric.empty()) {
    return std::max(0.0, in_.end_offsets_numeric[i]);
  }
  return static_cast<double>(in_.frame.end.offset);
}

size_t FrameResolver::LowerBoundKey(double bound) const {
  const double* keys = in_.range_keys.data();
  const double* first = keys + number_begin_;
  const double* last = keys + number_end_;
  if (in_.ascending) {
    return static_cast<size_t>(std::lower_bound(first, last, bound) - keys);
  }
  // Descending keys: first position with key <= bound.
  return static_cast<size_t>(
      std::lower_bound(first, last, bound,
                       [](double key, double b) { return key > b; }) -
      keys);
}

size_t FrameResolver::UpperBoundKey(double bound) const {
  const double* keys = in_.range_keys.data();
  const double* first = keys + number_begin_;
  const double* last = keys + number_end_;
  if (in_.ascending) {
    return static_cast<size_t>(std::upper_bound(first, last, bound) - keys);
  }
  // Descending keys: one past the last position with key >= bound.
  return static_cast<size_t>(
      std::upper_bound(first, last, bound,
                       [](double b, double key) { return key < b; }) -
      keys);
}

RowRange FrameResolver::ResolveBase(size_t i) const {
  const FrameSpec& frame = in_.frame;
  const int64_t n = static_cast<int64_t>(in_.n);
  const int64_t pos = static_cast<int64_t>(i);
  int64_t begin = 0;
  int64_t end = n;

  switch (frame.mode) {
    case FrameMode::kRows: {
      switch (frame.begin.kind) {
        case FrameBoundKind::kUnboundedPreceding:
          begin = 0;
          break;
        case FrameBoundKind::kPreceding:
          begin = pos - BeginOffset(i);
          break;
        case FrameBoundKind::kCurrentRow:
          begin = pos;
          break;
        case FrameBoundKind::kFollowing:
          begin = pos + BeginOffset(i);
          break;
        case FrameBoundKind::kUnboundedFollowing:
          HWF_CHECK_MSG(false, "frame start cannot be UNBOUNDED FOLLOWING");
      }
      switch (frame.end.kind) {
        case FrameBoundKind::kUnboundedPreceding:
          HWF_CHECK_MSG(false, "frame end cannot be UNBOUNDED PRECEDING");
          break;
        case FrameBoundKind::kPreceding:
          end = pos - EndOffset(i) + 1;
          break;
        case FrameBoundKind::kCurrentRow:
          end = pos + 1;
          break;
        case FrameBoundKind::kFollowing:
          end = pos + EndOffset(i) + 1;
          break;
        case FrameBoundKind::kUnboundedFollowing:
          end = n;
          break;
      }
      break;
    }
    case FrameMode::kRange: {
      const double key = in_.range_keys.empty() ? 0.0 : in_.range_keys[i];
      // SQL semantics: a row with a NULL key is a peer of every other NULL
      // row; offset bounds select exactly the peer group. NaN keys follow
      // PostgreSQL (in_range_float8_float8): NaN plus or minus any offset
      // is NaN, so a NaN row's offset bounds select its peer group too,
      // and a number's bounds never reach the NaN rows.
      const bool peer_bounds =
          (!in_.range_key_valid.empty() && in_.range_key_valid[i] == 0) ||
          std::isnan(key);
      // The key an offset bound stands for: PRECEDING lies below the key
      // in ASC order and above it in DESC.
      auto bound_key = [&](FrameBoundKind kind, double offset) {
        return (kind == FrameBoundKind::kPreceding) == in_.ascending
                   ? key - offset
                   : key + offset;
      };
      switch (frame.begin.kind) {
        case FrameBoundKind::kUnboundedPreceding:
          begin = 0;
          break;
        case FrameBoundKind::kCurrentRow:
          begin = static_cast<int64_t>(in_.peer_start[i]);
          break;
        case FrameBoundKind::kPreceding:
        case FrameBoundKind::kFollowing:
          begin = static_cast<int64_t>(
              peer_bounds ? in_.peer_start[i]
                          : LowerBoundKey(bound_key(frame.begin.kind,
                                                    BeginOffsetNumeric(i))));
          break;
        case FrameBoundKind::kUnboundedFollowing:
          HWF_CHECK_MSG(false, "frame start cannot be UNBOUNDED FOLLOWING");
      }
      switch (frame.end.kind) {
        case FrameBoundKind::kUnboundedPreceding:
          HWF_CHECK_MSG(false, "frame end cannot be UNBOUNDED PRECEDING");
          break;
        case FrameBoundKind::kCurrentRow:
          end = static_cast<int64_t>(in_.peer_end[i]);
          break;
        case FrameBoundKind::kPreceding:
        case FrameBoundKind::kFollowing:
          end = static_cast<int64_t>(
              peer_bounds ? in_.peer_end[i]
                          : UpperBoundKey(bound_key(frame.end.kind,
                                                    EndOffsetNumeric(i))));
          break;
        case FrameBoundKind::kUnboundedFollowing:
          end = n;
          break;
      }
      break;
    }
    case FrameMode::kGroups: {
      const int64_t g = static_cast<int64_t>(in_.group_index[i]);
      const int64_t num_groups =
          static_cast<int64_t>(in_.group_starts.size()) - 1;
      auto group_begin = [&](int64_t group) -> int64_t {
        if (group < 0) return 0;
        if (group >= num_groups) return n;
        return static_cast<int64_t>(in_.group_starts[group]);
      };
      auto group_end = [&](int64_t group) -> int64_t {
        if (group < 0) return 0;
        if (group >= num_groups) return n;
        return static_cast<int64_t>(in_.group_starts[group + 1]);
      };
      switch (frame.begin.kind) {
        case FrameBoundKind::kUnboundedPreceding:
          begin = 0;
          break;
        case FrameBoundKind::kPreceding:
          begin = group_begin(std::max<int64_t>(0, g - BeginOffset(i)));
          break;
        case FrameBoundKind::kCurrentRow:
          begin = static_cast<int64_t>(in_.peer_start[i]);
          break;
        case FrameBoundKind::kFollowing:
          begin = group_begin(g + BeginOffset(i));
          break;
        case FrameBoundKind::kUnboundedFollowing:
          HWF_CHECK_MSG(false, "frame start cannot be UNBOUNDED FOLLOWING");
      }
      switch (frame.end.kind) {
        case FrameBoundKind::kUnboundedPreceding:
          HWF_CHECK_MSG(false, "frame end cannot be UNBOUNDED PRECEDING");
          break;
        case FrameBoundKind::kPreceding: {
          const int64_t group = g - EndOffset(i);
          end = group < 0 ? 0 : group_end(group);
          break;
        }
        case FrameBoundKind::kCurrentRow:
          end = static_cast<int64_t>(in_.peer_end[i]);
          break;
        case FrameBoundKind::kFollowing:
          end = group_end(std::min(num_groups, g + EndOffset(i)));
          break;
        case FrameBoundKind::kUnboundedFollowing:
          end = n;
          break;
      }
      break;
    }
  }

  begin = std::clamp<int64_t>(begin, 0, n);
  end = std::clamp<int64_t>(end, 0, n);
  if (begin >= end) return RowRange{0, 0};
  return RowRange{static_cast<size_t>(begin), static_cast<size_t>(end)};
}

FrameRanges FrameResolver::Resolve(size_t i) const {
  const RowRange base = ResolveBase(i);
  FrameRanges result;
  if (base.empty()) return result;

  // Up to two exclusion holes, ascending.
  RowRange holes[2];
  size_t num_holes = 0;
  switch (in_.frame.exclusion) {
    case FrameExclusion::kNoOthers:
      break;
    case FrameExclusion::kCurrentRow:
      holes[num_holes++] = RowRange{i, i + 1};
      break;
    case FrameExclusion::kGroup:
      holes[num_holes++] = RowRange{in_.peer_start[i], in_.peer_end[i]};
      break;
    case FrameExclusion::kTies:
      if (in_.peer_start[i] < i) {
        holes[num_holes++] = RowRange{in_.peer_start[i], i};
      }
      if (i + 1 < in_.peer_end[i]) {
        holes[num_holes++] = RowRange{i + 1, in_.peer_end[i]};
      }
      break;
  }

  size_t cursor = base.begin;
  for (size_t h = 0; h < num_holes; ++h) {
    const size_t hole_begin = std::max(holes[h].begin, base.begin);
    const size_t hole_end = std::min(holes[h].end, base.end);
    if (hole_begin >= hole_end) continue;  // Hole outside the frame.
    if (cursor < hole_begin) result.Add(cursor, hole_begin);
    cursor = std::max(cursor, hole_end);
  }
  if (cursor < base.end) result.Add(cursor, base.end);
  return result;
}

}  // namespace hwf
