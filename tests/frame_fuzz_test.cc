// Frame-resolution fuzzing against an independent oracle.
//
// FrameResolver is shared by every engine, so the engine-agreement tests
// cannot catch its bugs. This suite recomputes each row's frame membership
// from first principles — "is position j inside row i's frame?" decided by
// direct scanning — and compares with the resolver's range decomposition.
#include "window/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "tests/window_test_util.h"
#include "window/spec.h"

namespace hwf {
namespace {

struct Oracle {
  // Per position: sort key value (int; -1 = NULL, NULLs sort last) in
  // partition order, i.e. non-decreasing with NULLs at the end for
  // ascending keys, non-increasing with NULLs at the end for descending.
  std::vector<int> keys;
  bool ascending = true;
  FrameSpec frame;
  std::vector<int64_t> begin_offsets;  // Per row; used if non-empty.
  std::vector<int64_t> end_offsets;

  bool IsNull(size_t i) const { return keys[i] < 0; }
  bool Peers(size_t a, size_t b) const {
    if (IsNull(a) || IsNull(b)) return IsNull(a) && IsNull(b);
    return keys[a] == keys[b];
  }

  int64_t BeginOffset(size_t i) const {
    return begin_offsets.empty() ? frame.begin.offset
                                 : std::max<int64_t>(0, begin_offsets[i]);
  }
  int64_t EndOffset(size_t i) const {
    return end_offsets.empty() ? frame.end.offset
                               : std::max<int64_t>(0, end_offsets[i]);
  }

  /// Group index of a position (consecutive peers share a group).
  size_t GroupOf(size_t i) const {
    size_t group = 0;
    for (size_t j = 1; j <= i; ++j) {
      if (!Peers(j - 1, j)) ++group;
    }
    return group;
  }

  /// Whether position j is in the BASE frame of row i, by direct
  /// first-principles evaluation.
  bool InBaseFrame(size_t i, size_t j) const {
    const int64_t n = static_cast<int64_t>(keys.size());
    const int64_t pi = static_cast<int64_t>(i);
    const int64_t pj = static_cast<int64_t>(j);
    switch (frame.mode) {
      case FrameMode::kRows: {
        int64_t lo;
        int64_t hi;
        switch (frame.begin.kind) {
          case FrameBoundKind::kUnboundedPreceding:
            lo = 0;
            break;
          case FrameBoundKind::kPreceding:
            lo = pi - BeginOffset(i);
            break;
          case FrameBoundKind::kCurrentRow:
            lo = pi;
            break;
          case FrameBoundKind::kFollowing:
            lo = pi + BeginOffset(i);
            break;
          default:
            return false;
        }
        switch (frame.end.kind) {
          case FrameBoundKind::kUnboundedFollowing:
            hi = n - 1;
            break;
          case FrameBoundKind::kPreceding:
            hi = pi - EndOffset(i);
            break;
          case FrameBoundKind::kCurrentRow:
            hi = pi;
            break;
          case FrameBoundKind::kFollowing:
            hi = pi + EndOffset(i);
            break;
          default:
            return false;
        }
        return pj >= lo && pj <= hi;
      }
      case FrameMode::kRange: {
        // NULL current row: frame = its peer group (for offset bounds).
        auto begin_holds = [&]() -> bool {
          switch (frame.begin.kind) {
            case FrameBoundKind::kUnboundedPreceding:
              return true;
            case FrameBoundKind::kCurrentRow:
              // j at-or-after the start of i's peer group.
              for (size_t x = 0; x < keys.size(); ++x) {
                if (Peers(x, i)) return j >= x;
              }
              return false;
            case FrameBoundKind::kPreceding:
            case FrameBoundKind::kFollowing: {
              if (IsNull(i)) {
                // Frame = peer group: begin holds iff j >= first peer.
                for (size_t x = 0; x < keys.size(); ++x) {
                  if (Peers(x, i)) return j >= x;
                }
                return false;
              }
              // RANGE frames are positional: NULLs sort last here, so a
              // NULL j lies after any resolved start boundary.
              if (IsNull(j)) return true;
              const double off = static_cast<double>(BeginOffset(i));
              const double ki = keys[i];
              const double kj = keys[j];
              const bool preceding =
                  frame.begin.kind == FrameBoundKind::kPreceding;
              if (ascending) {
                return preceding ? kj >= ki - off : kj >= ki + off;
              }
              return preceding ? kj <= ki + off : kj <= ki - off;
            }
            default:
              return false;
          }
        };
        auto end_holds = [&]() -> bool {
          switch (frame.end.kind) {
            case FrameBoundKind::kUnboundedFollowing:
              return true;
            case FrameBoundKind::kCurrentRow:
              for (size_t x = keys.size(); x > 0; --x) {
                if (Peers(x - 1, i)) return j <= x - 1;
              }
              return false;
            case FrameBoundKind::kPreceding:
            case FrameBoundKind::kFollowing: {
              if (IsNull(i)) {
                for (size_t x = keys.size(); x > 0; --x) {
                  if (Peers(x - 1, i)) return j <= x - 1;
                }
                return false;
              }
              if (IsNull(j)) return false;
              const double off = static_cast<double>(EndOffset(i));
              const double ki = keys[i];
              const double kj = keys[j];
              const bool following =
                  frame.end.kind == FrameBoundKind::kFollowing;
              if (ascending) {
                return following ? kj <= ki + off : kj <= ki - off;
              }
              return following ? kj >= ki - off : kj >= ki + off;
            }
            default:
              return false;
          }
        };
        return begin_holds() && end_holds();
      }
      case FrameMode::kGroups: {
        const int64_t gi = static_cast<int64_t>(GroupOf(i));
        const int64_t gj = static_cast<int64_t>(GroupOf(j));
        int64_t lo;
        int64_t hi;
        switch (frame.begin.kind) {
          case FrameBoundKind::kUnboundedPreceding:
            lo = 0;
            break;
          case FrameBoundKind::kPreceding:
            lo = gi - BeginOffset(i);
            break;
          case FrameBoundKind::kCurrentRow:
            lo = gi;
            break;
          case FrameBoundKind::kFollowing:
            lo = gi + BeginOffset(i);
            break;
          default:
            return false;
        }
        switch (frame.end.kind) {
          case FrameBoundKind::kUnboundedFollowing:
            hi = static_cast<int64_t>(keys.size());
            break;
          case FrameBoundKind::kPreceding:
            hi = gi - EndOffset(i);
            break;
          case FrameBoundKind::kCurrentRow:
            hi = gi;
            break;
          case FrameBoundKind::kFollowing:
            hi = gi + EndOffset(i);
            break;
          default:
            return false;
        }
        return gj >= lo && gj <= hi;
      }
    }
    return false;
  }

  /// Full membership including exclusion.
  bool InFrame(size_t i, size_t j) const {
    if (!InBaseFrame(i, j)) return false;
    switch (frame.exclusion) {
      case FrameExclusion::kNoOthers:
        return true;
      case FrameExclusion::kCurrentRow:
        return j != i;
      case FrameExclusion::kGroup:
        return !Peers(i, j);
      case FrameExclusion::kTies:
        return j == i || !Peers(i, j);
    }
    return true;
  }
};

FrameResolver::Inputs BuildInputs(const Oracle& oracle) {
  const size_t n = oracle.keys.size();
  FrameResolver::Inputs inputs;
  inputs.n = n;
  inputs.frame = oracle.frame;
  inputs.ascending = oracle.ascending;
  // Peers / groups.
  inputs.peer_start.resize(n);
  inputs.peer_end.resize(n);
  inputs.group_index.resize(n);
  size_t begin = 0;
  size_t group = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || !oracle.Peers(i - 1, i)) {
      inputs.group_starts.push_back(begin);
      for (size_t j = begin; j < i; ++j) {
        inputs.peer_start[j] = begin;
        inputs.peer_end[j] = i;
        inputs.group_index[j] = group;
      }
      begin = i;
      ++group;
    }
  }
  inputs.group_starts.push_back(n);
  // Range keys (NULLs last in partition order by construction).
  inputs.range_keys.resize(n);
  inputs.range_key_valid.resize(n);
  size_t num_nulls = 0;
  for (size_t i = 0; i < n; ++i) {
    inputs.range_keys[i] = oracle.IsNull(i) ? 0 : oracle.keys[i];
    inputs.range_key_valid[i] = oracle.IsNull(i) ? 0 : 1;
    num_nulls += oracle.IsNull(i) ? 1 : 0;
  }
  inputs.nonnull_begin = 0;
  inputs.nonnull_end = n - num_nulls;
  // Per-row offsets.
  if (!oracle.begin_offsets.empty()) {
    if (oracle.frame.mode == FrameMode::kRange) {
      inputs.begin_offsets_numeric.assign(oracle.begin_offsets.begin(),
                                          oracle.begin_offsets.end());
    } else {
      inputs.begin_offsets = oracle.begin_offsets;
    }
  }
  if (!oracle.end_offsets.empty()) {
    if (oracle.frame.mode == FrameMode::kRange) {
      inputs.end_offsets_numeric.assign(oracle.end_offsets.begin(),
                                        oracle.end_offsets.end());
    } else {
      inputs.end_offsets = oracle.end_offsets;
    }
  }
  return inputs;
}

FrameBound RandomBound(Pcg32& rng, bool is_begin, bool with_columns) {
  switch (rng.Bounded(with_columns ? 5 : 4)) {
    case 0:
      return is_begin ? FrameBound::UnboundedPreceding()
                      : FrameBound::UnboundedFollowing();
    case 1:
      return FrameBound::CurrentRow();
    case 2:
      return FrameBound::Preceding(static_cast<int64_t>(rng.Bounded(8)));
    case 3:
      return FrameBound::Following(static_cast<int64_t>(rng.Bounded(8)));
    default:
      // Per-row offsets: the column index is a placeholder (0); the test
      // injects the evaluated offsets directly into the resolver inputs.
      return is_begin ? FrameBound::PrecedingColumn(0)
                      : FrameBound::FollowingColumn(0);
  }
}

TEST(FrameFuzz, ResolverMatchesFirstPrinciplesOracle) {
  Pcg32 rng(424242);
  for (int round = 0; round < 400; ++round) {
    Oracle oracle;
    const size_t n = 1 + rng.Bounded(40);
    oracle.ascending = rng.Bounded(2) == 0;
    // Keys in partition order: sorted with duplicates, NULLs at the end.
    std::vector<int> keys(n);
    for (auto& k : keys) k = static_cast<int>(rng.Bounded(12));
    std::sort(keys.begin(), keys.end());
    if (!oracle.ascending) std::reverse(keys.begin(), keys.end());
    const size_t nulls = rng.Bounded(4) == 0 ? rng.Bounded(n) / 3 : 0;
    for (size_t i = n - nulls; i < n; ++i) keys[i] = -1;
    oracle.keys = keys;

    oracle.frame.mode = static_cast<FrameMode>(rng.Bounded(3));
    const bool with_columns = rng.Bounded(3) == 0;
    oracle.frame.begin = RandomBound(rng, true, with_columns);
    oracle.frame.end = RandomBound(rng, false, with_columns);
    oracle.frame.exclusion = static_cast<FrameExclusion>(rng.Bounded(4));
    if (oracle.frame.begin.offset_column.has_value() ||
        oracle.frame.end.offset_column.has_value()) {
      oracle.begin_offsets.resize(n);
      oracle.end_offsets.resize(n);
      for (size_t i = 0; i < n; ++i) {
        oracle.begin_offsets[i] = static_cast<int64_t>(rng.Bounded(8));
        oracle.end_offsets[i] = static_cast<int64_t>(rng.Bounded(8));
      }
      if (!oracle.frame.begin.offset_column.has_value()) {
        oracle.begin_offsets.clear();
      }
      if (!oracle.frame.end.offset_column.has_value()) {
        oracle.end_offsets.clear();
      }
    }

    FrameResolver resolver(BuildInputs(oracle));
    for (size_t i = 0; i < n; ++i) {
      const FrameRanges ranges = resolver.Resolve(i);
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(ranges.Contains(j), oracle.InFrame(i, j))
            << "round " << round << " i=" << i << " j=" << j
            << " mode=" << static_cast<int>(oracle.frame.mode)
            << " excl=" << static_cast<int>(oracle.frame.exclusion)
            << " asc=" << oracle.ascending;
      }
    }
  }
}

// The rank family answers every frame shape the resolver produces (all
// modes, constant and per-row bounds, every exclusion, with and without a
// FILTER) through the batched count kernel; it must match the naive
// evaluator.
TEST(FrameFuzz, RankFamilyMatchesNaiveOverFuzzedFrames) {
  // test::MakeRandomTable columns.
  constexpr size_t kGrp = 0;
  constexpr size_t kOrd = 1;
  constexpr size_t kVal = 2;
  constexpr size_t kPrice = 3;
  constexpr size_t kFlag = 5;
  constexpr size_t kOff = 6;
  const WindowFunctionKind kinds[] = {
      WindowFunctionKind::kRank, WindowFunctionKind::kRowNumber,
      WindowFunctionKind::kPercentRank, WindowFunctionKind::kCumeDist,
      WindowFunctionKind::kNtile};
  Pcg32 rng(515151);
  for (int round = 0; round < 60; ++round) {
    const Table table = test::MakeRandomTable(
        200 + rng.Bounded(900), /*seed=*/7000 + round,
        /*partitions=*/1 + static_cast<int>(rng.Bounded(3)));
    WindowSpec spec;
    spec.partition_by = {kGrp};
    spec.order_by = {SortKey{kOrd, rng.Bounded(2) == 0, rng.Bounded(2) == 0}};
    spec.frame.mode = static_cast<FrameMode>(rng.Bounded(3));
    spec.frame.begin = RandomBound(rng, true, true);
    spec.frame.end = RandomBound(rng, false, true);
    // Per-row offsets come from the table's offset column.
    if (spec.frame.begin.offset_column.has_value()) {
      spec.frame.begin.offset_column = kOff;
    }
    if (spec.frame.end.offset_column.has_value()) {
      spec.frame.end.offset_column = kOff;
    }
    spec.frame.exclusion = static_cast<FrameExclusion>(rng.Bounded(4));
    WindowFunctionCall call;
    call.kind = kinds[round % 5];
    if (rng.Bounded(2) == 0) {
      call.order_by = {SortKey{rng.Bounded(2) ? kVal : kPrice,
                               rng.Bounded(2) == 0, rng.Bounded(2) == 0}};
    }
    if (rng.Bounded(2) == 0) call.filter = kFlag;
    call.param = 1 + rng.Bounded(7);
    if (!ValidateWindowSpec(table, spec).ok() ||
        !ValidateWindowCall(table, spec, call).ok()) {
      continue;
    }
    test::ExpectMatchesNaive(
        table, spec, call,
        "round " + std::to_string(round) + " " +
            WindowFunctionKindName(call.kind) +
            " mode=" + std::to_string(static_cast<int>(spec.frame.mode)) +
            " excl=" +
            std::to_string(static_cast<int>(spec.frame.exclusion)) +
            " filter=" + std::to_string(call.filter.has_value()));
  }
}

}  // namespace
}  // namespace hwf
