// Frame-resolution fuzzing against an independent oracle.
//
// FrameResolver is shared by every engine, so the engine-agreement tests
// cannot catch its bugs. This suite recomputes each row's frame membership
// from first principles — "is position j inside row i's frame?" decided by
// direct scanning — and compares with the resolver's range decomposition.
#include "window/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

// ---------------------------------------------------------------------------
// RANGE offset frames over special double keys (NaN, +-inf, -0.0, NULL),
// checked against a brute-force scan built on PostgreSQL's
// in_range_float8_float8 rather than on the resolver's binary searches.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// in_range_float8_float8: whether `val` is on the frame side of the bound
/// `base` - `offset` (sub) or `base` + `offset`; less: val <= bound, else
/// val >= bound. NaN equals NaN and sorts above every number.
bool InRange(double val, double base, double offset, bool sub, bool less) {
  if (std::isnan(val)) return std::isnan(base) || !less;
  if (std::isnan(base)) return less;
  // +inf infinitely precedes +inf and -inf infinitely follows -inf.
  if (std::isinf(offset) && std::isinf(base) && (sub ? base > 0 : base < 0)) {
    return true;
  }
  const double bound = sub ? base - offset : base + offset;
  return less ? val <= bound : val >= bound;
}

/// SQL's total order of doubles: NaN above +inf, -0.0 equal to 0.0.
bool SqlLess(double a, double b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

struct RangeCase {
  std::vector<double> keys;  // Partition order; NULL slots hold 0.
  std::vector<uint8_t> valid;
  bool ascending = true;
  FrameSpec frame;
  std::vector<double> begin_offsets;  // Per row; used if non-empty.
  std::vector<double> end_offsets;

  size_t n() const { return keys.size(); }
  bool Peers(size_t a, size_t b) const {
    if (!valid[a] || !valid[b]) return !valid[a] && !valid[b];
    return !SqlLess(keys[a], keys[b]) && !SqlLess(keys[b], keys[a]);
  }
  size_t PeerStart(size_t i) const {
    while (i > 0 && Peers(i - 1, i)) --i;
    return i;
  }
  size_t PeerEnd(size_t i) const {
    while (i + 1 < n() && Peers(i, i + 1)) ++i;
    return i + 1;
  }
  size_t NonNullBegin() const {
    size_t i = 0;
    while (i < n() && !valid[i]) ++i;
    return i;
  }
  size_t NonNullEnd() const {
    size_t i = n();
    while (i > 0 && !valid[i - 1]) --i;
    return i;
  }
  double Offset(const FrameBound& bound, const std::vector<double>& offsets,
                size_t i) const {
    return offsets.empty() ? static_cast<double>(bound.offset) : offsets[i];
  }

  /// The base frame of row i by scanning every position.
  RowRange Expected(size_t i) const {
    const size_t lo = NonNullBegin();
    const size_t hi = NonNullEnd();
    RowRange range{0, n()};
    auto offset_bound = [&](const FrameBound& bound,
                            const std::vector<double>& offsets, bool is_end) {
      // A NULL row's offset bounds select its peer group.
      if (!valid[i]) return is_end ? PeerEnd(i) : PeerStart(i);
      const bool sub =
          (bound.kind == FrameBoundKind::kPreceding) == ascending;
      // The frame head is the first row past the bound, the tail the last
      // row before it.
      const bool less = is_end == ascending;
      const double offset = Offset(bound, offsets, i);
      if (!is_end) {
        for (size_t j = lo; j < hi; ++j) {
          if (InRange(keys[j], keys[i], offset, sub, less)) return j;
        }
        return hi;
      }
      for (size_t j = hi; j > lo; --j) {
        if (InRange(keys[j - 1], keys[i], offset, sub, less)) return j;
      }
      return lo;
    };
    switch (frame.begin.kind) {
      case FrameBoundKind::kCurrentRow:
        range.begin = PeerStart(i);
        break;
      case FrameBoundKind::kPreceding:
      case FrameBoundKind::kFollowing:
        range.begin = offset_bound(frame.begin, begin_offsets, false);
        break;
      default:
        break;
    }
    switch (frame.end.kind) {
      case FrameBoundKind::kCurrentRow:
        range.end = PeerEnd(i);
        break;
      case FrameBoundKind::kPreceding:
      case FrameBoundKind::kFollowing:
        range.end = offset_bound(frame.end, end_offsets, true);
        break;
      default:
        break;
    }
    return range;
  }

  FrameResolver::Inputs Inputs() const {
    FrameResolver::Inputs inputs;
    inputs.n = n();
    inputs.frame = frame;
    inputs.range_keys = keys;
    inputs.range_key_valid = valid;
    inputs.ascending = ascending;
    inputs.nonnull_begin = NonNullBegin();
    inputs.nonnull_end = NonNullEnd();
    for (size_t i = 0; i < n(); ++i) {
      inputs.peer_start.push_back(PeerStart(i));
      inputs.peer_end.push_back(PeerEnd(i));
    }
    inputs.begin_offsets_numeric = begin_offsets;
    inputs.end_offsets_numeric = end_offsets;
    return inputs;
  }
};

FrameBound RandomRangeBound(Pcg32& rng, bool is_begin, bool* per_row) {
  switch (rng.Bounded(6)) {
    case 0:
      return is_begin ? FrameBound::UnboundedPreceding()
                      : FrameBound::UnboundedFollowing();
    case 1:
      return FrameBound::CurrentRow();
    case 2:
      return FrameBound::Preceding(rng.Bounded(3));
    case 3:
      return FrameBound::Following(rng.Bounded(3));
    case 4:
      *per_row = true;
      return FrameBound::PrecedingColumn(0);
    default:
      *per_row = true;
      return FrameBound::FollowingColumn(0);
  }
}

TEST(FrameFuzz, RangeOffsetsOverSpecialKeysMatchBruteForce) {
  const double kNan = std::nan("");
  const double kKeys[] = {kNan, -kNan, kInf, -kInf, 0.0, -0.0,
                          -1.5, 1.0,   2.0,  2.25, 3.0, 1e300};
  const double kOffsets[] = {0.0, 0.5, 1.0, 2.25, 1e300, kInf};
  Pcg32 rng(31337);
  size_t nan_rows = 0;
  for (int round = 0; round < 3000; ++round) {
    RangeCase c;
    const size_t n = 1 + rng.Bounded(30);
    c.ascending = rng.Bounded(2) == 0;
    std::vector<double> values;
    size_t nulls = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bounded(6) == 0) {
        ++nulls;
      } else {
        values.push_back(kKeys[rng.Bounded(std::size(kKeys))]);
      }
    }
    std::sort(values.begin(), values.end(), SqlLess);
    if (!c.ascending) std::reverse(values.begin(), values.end());
    const bool nulls_first = rng.Bounded(2) == 0;
    c.keys.assign(nulls_first ? nulls : 0, 0.0);
    c.valid.assign(nulls_first ? nulls : 0, 0);
    for (const double v : values) {
      c.keys.push_back(v);
      c.valid.push_back(1);
      nan_rows += std::isnan(v) ? 1 : 0;
    }
    if (!nulls_first) {
      c.keys.resize(n, 0.0);
      c.valid.resize(n, 0);
    }
    c.frame.mode = FrameMode::kRange;
    bool begin_per_row = false;
    bool end_per_row = false;
    c.frame.begin = RandomRangeBound(rng, true, &begin_per_row);
    c.frame.end = RandomRangeBound(rng, false, &end_per_row);
    for (size_t i = 0; i < n; ++i) {
      if (begin_per_row) {
        c.begin_offsets.push_back(kOffsets[rng.Bounded(std::size(kOffsets))]);
      }
      if (end_per_row) {
        c.end_offsets.push_back(kOffsets[rng.Bounded(std::size(kOffsets))]);
      }
    }

    const FrameResolver resolver(c.Inputs());
    for (size_t i = 0; i < n; ++i) {
      const RowRange expected = c.Expected(i);
      const RowRange actual = resolver.ResolveBase(i);
      const std::string where =
          "round " + std::to_string(round) + " row " + std::to_string(i) +
          " key " + (c.valid[i] ? std::to_string(c.keys[i]) : "NULL") +
          " asc=" + std::to_string(c.ascending) +
          " begin=" + std::to_string(static_cast<int>(c.frame.begin.kind)) +
          " end=" + std::to_string(static_cast<int>(c.frame.end.kind));
      ASSERT_EQ(actual.empty(), expected.empty()) << where;
      if (expected.empty()) continue;
      ASSERT_EQ(actual.begin, expected.begin) << where;
      ASSERT_EQ(actual.end, expected.end) << where;
    }
  }
  EXPECT_GT(nan_rows, 1000u);
}

// The reported case, through the executor: 30 numbers and 10 NaNs under
// RANGE BETWEEN 1 PRECEDING AND 1 FOLLOWING. A number counts the numbers
// within 1 of it, a NaN row counts the NaN rows.
TEST(FrameFuzz, RangeOverNanKeysCountsNumbersAndNanPeers) {
  std::vector<double> x;
  for (int r = 0; r < 40; ++r) {
    x.push_back(r % 4 == 3 ? std::nan("") : static_cast<double>(r % 6));
  }
  Table table;
  table.AddColumn("x", Column::FromDouble(x));
  for (const bool ascending : {true, false}) {
    WindowSpec spec;
    spec.order_by = {SortKey{0, ascending, false}};
    spec.frame.mode = FrameMode::kRange;
    spec.frame.begin = FrameBound::Preceding(1);
    spec.frame.end = FrameBound::Following(1);
    WindowFunctionCall call;
    call.kind = WindowFunctionKind::kCountStar;
    for (const WindowEngine engine :
         {WindowEngine::kMergeSortTree, WindowEngine::kNaive}) {
      WindowExecutorOptions options;
      options.engine = engine;
      const StatusOr<Column> counts =
          EvaluateWindowFunction(table, spec, call, options);
      ASSERT_TRUE(counts.ok()) << counts.status().ToString();
      for (size_t r = 0; r < x.size(); ++r) {
        int64_t expected = 0;
        for (const double other : x) {
          expected += std::isnan(x[r]) ? std::isnan(other)
                                       : std::abs(other - x[r]) <= 1;
        }
        ASSERT_EQ(counts->GetInt64(r), expected)
            << "row " << r << " x=" << x[r] << " asc=" << ascending;
      }
    }
  }
}

}  // namespace
}  // namespace hwf
