// Randomized conformance fuzzing: generate random window specifications
// (frame mode, bounds, exclusion, partitioning, per-row offsets) and
// random function calls (argument, function order, FILTER, parameters) and
// require the merge sort tree engine to agree with the naive oracle on
// random tables with NULLs and heavy duplicates.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/counters.h"
#include "tests/window_test_util.h"
#include "window/evaluator.h"

namespace hwf {
namespace {

using test::ExpectColumnsEqual;
using test::ExpectMatchesNaive;
using test::MakeRandomTable;
using test::MakeSpecialKeyTable;

// MakeRandomTable schema.
constexpr size_t kGrp = 0;
constexpr size_t kOrd = 1;
constexpr size_t kVal = 2;
constexpr size_t kPrice = 3;
constexpr size_t kName = 4;
constexpr size_t kFlag = 5;
constexpr size_t kOff = 6;

FrameBound RandomBound(Pcg32& rng, bool is_begin) {
  switch (rng.Bounded(5)) {
    case 0:
      return is_begin ? FrameBound::UnboundedPreceding()
                      : FrameBound::UnboundedFollowing();
    case 1:
      return FrameBound::CurrentRow();
    case 2:
      return FrameBound::Preceding(static_cast<int64_t>(rng.Bounded(20)));
    case 3:
      return FrameBound::Following(static_cast<int64_t>(rng.Bounded(20)));
    default:
      return rng.Bounded(2) ? FrameBound::PrecedingColumn(kOff)
                            : FrameBound::FollowingColumn(kOff);
  }
}

WindowSpec RandomSpec(Pcg32& rng) {
  WindowSpec spec;
  if (rng.Bounded(2)) spec.partition_by.push_back(kGrp);
  // Frame order: one or two keys with random modifiers.
  const size_t order_cols[] = {kOrd, kPrice, kName};
  const size_t num_order = 1 + rng.Bounded(2);
  for (size_t i = 0; i < num_order; ++i) {
    spec.order_by.push_back(SortKey{order_cols[rng.Bounded(3)],
                                    rng.Bounded(2) == 0,
                                    rng.Bounded(2) == 0});
  }
  switch (rng.Bounded(3)) {
    case 0:
      spec.frame.mode = FrameMode::kRows;
      break;
    case 1:
      spec.frame.mode = FrameMode::kGroups;
      break;
    default:
      // RANGE with offsets needs exactly one numeric key.
      spec.frame.mode = FrameMode::kRange;
      spec.order_by = {SortKey{rng.Bounded(2) ? kOrd : kPrice,
                               rng.Bounded(2) == 0, rng.Bounded(2) == 0}};
      break;
  }
  spec.frame.begin = RandomBound(rng, true);
  spec.frame.end = RandomBound(rng, false);
  switch (rng.Bounded(4)) {
    case 0:
      spec.frame.exclusion = FrameExclusion::kCurrentRow;
      break;
    case 1:
      spec.frame.exclusion = FrameExclusion::kGroup;
      break;
    case 2:
      spec.frame.exclusion = FrameExclusion::kTies;
      break;
    default:
      break;
  }
  return spec;
}

WindowFunctionCall RandomCall(Pcg32& rng) {
  static const WindowFunctionKind kKinds[] = {
      WindowFunctionKind::kCountStar,     WindowFunctionKind::kCount,
      WindowFunctionKind::kSum,           WindowFunctionKind::kMin,
      WindowFunctionKind::kMax,           WindowFunctionKind::kAvg,
      WindowFunctionKind::kCountDistinct, WindowFunctionKind::kSumDistinct,
      WindowFunctionKind::kAvgDistinct,   WindowFunctionKind::kMinDistinct,
      WindowFunctionKind::kMaxDistinct,   WindowFunctionKind::kRank,
      WindowFunctionKind::kDenseRank,     WindowFunctionKind::kRowNumber,
      WindowFunctionKind::kPercentRank,   WindowFunctionKind::kCumeDist,
      WindowFunctionKind::kNtile,         WindowFunctionKind::kPercentileDisc,
      WindowFunctionKind::kPercentileCont, WindowFunctionKind::kMedian,
      WindowFunctionKind::kFirstValue,    WindowFunctionKind::kLastValue,
      WindowFunctionKind::kNthValue,      WindowFunctionKind::kLead,
      WindowFunctionKind::kLag,
  };
  WindowFunctionCall call;
  call.kind = kKinds[rng.Bounded(sizeof(kKinds) / sizeof(kKinds[0]))];
  // Argument: numeric for aggregates/percentiles, any for value functions.
  switch (call.kind) {
    case WindowFunctionKind::kFirstValue:
    case WindowFunctionKind::kLastValue:
    case WindowFunctionKind::kNthValue:
    case WindowFunctionKind::kLead:
    case WindowFunctionKind::kLag: {
      const size_t args[] = {kVal, kPrice, kName};
      call.argument = args[rng.Bounded(3)];
      call.ignore_nulls = rng.Bounded(2) == 0;
      break;
    }
    case WindowFunctionKind::kCountDistinct: {
      const size_t args[] = {kVal, kPrice, kName};
      call.argument = args[rng.Bounded(3)];
      break;
    }
    default:
      call.argument = rng.Bounded(2) ? kVal : kPrice;
      break;
  }
  if (rng.Bounded(2)) {
    call.order_by.push_back(SortKey{rng.Bounded(2) ? kVal : kPrice,
                                    rng.Bounded(2) == 0,
                                    rng.Bounded(2) == 0});
  }
  if (rng.Bounded(3) == 0) call.filter = kFlag;
  call.fraction = static_cast<double>(rng.Bounded(101)) / 100.0;
  call.param = 1 + rng.Bounded(5);
  return call;
}

std::string Describe(const WindowSpec& spec, const WindowFunctionCall& call) {
  std::ostringstream out;
  out << WindowFunctionKindName(call.kind)
      << " mode=" << static_cast<int>(spec.frame.mode)
      << " begin=" << static_cast<int>(spec.frame.begin.kind) << "/"
      << spec.frame.begin.offset
      << " end=" << static_cast<int>(spec.frame.end.kind) << "/"
      << spec.frame.end.offset
      << " excl=" << static_cast<int>(spec.frame.exclusion)
      << " filter=" << call.filter.has_value()
      << " ignore_nulls=" << call.ignore_nulls << " param=" << call.param
      << " fraction=" << call.fraction;
  return out.str();
}

TEST(WindowFuzz, RandomSpecsAgreeWithOracle) {
  Pcg32 rng(20260707);
  const int kRounds = 150;
  for (int round = 0; round < kRounds; ++round) {
    Table table = MakeRandomTable(60 + rng.Bounded(60),
                                  /*seed=*/1000 + round,
                                  /*partitions=*/1 + rng.Bounded(4),
                                  /*null_fraction=*/0.2);
    WindowSpec spec = RandomSpec(rng);
    WindowFunctionCall call = RandomCall(rng);
    // Validation may legitimately reject a combination (e.g. dense_rank +
    // exclusion, rank with no usable order); skip those.
    if (!ValidateWindowSpec(table, spec).ok() ||
        !ValidateWindowCall(table, spec, call).ok()) {
      continue;
    }
    SCOPED_TRACE("round " + std::to_string(round) + ": " +
                 Describe(spec, call));
    WindowExecutorOptions options;
    options.morsel_size = 1 + rng.Bounded(64);
    options.tree.fanout = 2 + rng.Bounded(31);
    options.tree.sampling = 1 + rng.Bounded(64);
    ExpectMatchesNaive(table, spec, call,
                       "fuzz round " + std::to_string(round), options);
  }
}

// The rank family alone, on tables larger than one probe chunk (512 rows),
// so the batched count kernel's chunking and group refills are exercised
// under every frame shape, exclusion and FILTER.
TEST(WindowFuzz, RankFamilyAgreesWithOracle) {
  static const WindowFunctionKind kRankKinds[] = {
      WindowFunctionKind::kRank, WindowFunctionKind::kRowNumber,
      WindowFunctionKind::kPercentRank, WindowFunctionKind::kCumeDist,
      WindowFunctionKind::kNtile};
  Pcg32 rng(20261018);
  for (int round = 0; round < 40; ++round) {
    Table table = MakeRandomTable(600 + rng.Bounded(900),
                                  /*seed=*/5000 + round,
                                  /*partitions=*/1 + rng.Bounded(3),
                                  /*null_fraction=*/0.2);
    WindowSpec spec = RandomSpec(rng);
    WindowFunctionCall call = RandomCall(rng);
    call.kind = kRankKinds[round % 5];
    if (!ValidateWindowSpec(table, spec).ok() ||
        !ValidateWindowCall(table, spec, call).ok()) {
      continue;
    }
    SCOPED_TRACE("round " + std::to_string(round) + ": " +
                 Describe(spec, call));
    WindowExecutorOptions options;
    options.tree.fanout = 2 + rng.Bounded(31);
    options.tree.sampling = 1 + rng.Bounded(64);
    ExpectMatchesNaive(table, spec, call,
                       "rank fuzz round " + std::to_string(round), options);
  }
}

// MakeSpecialKeyTable schema.
constexpr size_t kSpD = 0;
constexpr size_t kSpI = 1;
constexpr size_t kSpS = 2;
constexpr size_t kSpV = 3;
constexpr size_t kSpW = 4;
constexpr size_t kSpFlag = 5;

/// Sort key `column` in modifier combination `combo` (bit 0: DESC, bit 1:
/// NULLS FIRST), so callers can walk all four combinations.
SortKey SpecialKey(size_t column, size_t combo) {
  return SortKey{column, (combo & 1) == 0, (combo & 2) != 0};
}

SortKey RandomSpecialKey(Pcg32& rng) {
  const size_t columns[] = {kSpD, kSpI, kSpS};
  return SpecialKey(columns[rng.Bounded(3)], rng.Bounded(4));
}

/// A call over the special-key table. `combo` fixes the modifiers of the
/// first function ORDER BY key, when the call gets one.
WindowFunctionCall RandomSpecialCall(Pcg32& rng, size_t combo) {
  struct KindAndArgs {
    WindowFunctionKind kind;
    std::vector<size_t> args;
  };
  static const KindAndArgs kCalls[] = {
      {WindowFunctionKind::kRank, {}},
      {WindowFunctionKind::kDenseRank, {}},
      {WindowFunctionKind::kRowNumber, {}},
      {WindowFunctionKind::kPercentRank, {}},
      {WindowFunctionKind::kCumeDist, {}},
      {WindowFunctionKind::kNtile, {}},
      {WindowFunctionKind::kPercentileDisc, {kSpD, kSpV, kSpW}},
      {WindowFunctionKind::kPercentileCont, {kSpW}},
      {WindowFunctionKind::kMedian, {kSpW}},
      {WindowFunctionKind::kFirstValue, {kSpD, kSpS, kSpV}},
      {WindowFunctionKind::kLastValue, {kSpD, kSpI, kSpW}},
      {WindowFunctionKind::kNthValue, {kSpD, kSpS, kSpV}},
      {WindowFunctionKind::kLead, {kSpD, kSpI, kSpS}},
      {WindowFunctionKind::kLag, {kSpD, kSpV}},
      {WindowFunctionKind::kCountDistinct, {kSpD, kSpI, kSpS}},
      {WindowFunctionKind::kSum, {kSpV, kSpW}},
      {WindowFunctionKind::kCount, {kSpD}},
  };
  const KindAndArgs& pick = kCalls[rng.Bounded(std::size(kCalls))];
  WindowFunctionCall call;
  call.kind = pick.kind;
  if (!pick.args.empty()) {
    call.argument = pick.args[rng.Bounded(pick.args.size())];
  }
  call.ignore_nulls = rng.Bounded(2) == 0;
  if (rng.Bounded(3) != 0) {
    const size_t columns[] = {kSpD, kSpI, kSpS};
    call.order_by.push_back(SpecialKey(columns[rng.Bounded(3)], combo));
    if (rng.Bounded(2)) call.order_by.push_back(RandomSpecialKey(rng));
  }
  if (rng.Bounded(4) == 0) call.filter = kSpFlag;
  call.fraction = static_cast<double>(rng.Bounded(101)) / 100.0;
  call.param = 1 + rng.Bounded(4);
  return call;
}

/// ROW_NUMBER over the whole partition is the row's index in the spec's
/// canonical order, which this recomputes with CompareRowsBy: a check of
/// the executor's sort and partitioning, which both engines share.
void ExpectRowNumberIsSortIndex(const Table& table, const WindowSpec& spec,
                                const std::string& context) {
  WindowSpec whole = spec;
  whole.frame = FrameSpec{};
  whole.frame.end = FrameBound::UnboundedFollowing();
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kRowNumber;
  StatusOr<Column> actual = EvaluateWindowFunction(table, whole, call);
  ASSERT_TRUE(actual.ok()) << context << ": " << actual.status().ToString();

  std::vector<SortKey> partition_keys;
  for (size_t column : spec.partition_by) {
    partition_keys.push_back(SortKey{column, true, true});
  }
  std::vector<size_t> ids(table.num_rows());
  std::iota(ids.begin(), ids.end(), size_t{0});
  std::sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
    int cmp = CompareRowsBy(table, a, b, partition_keys);
    if (cmp == 0) cmp = CompareRowsBy(table, a, b, spec.order_by);
    return cmp != 0 ? cmp < 0 : a < b;
  });
  Column expected(DataType::kInt64, table.num_rows());
  int64_t row_number = 0;
  for (size_t j = 0; j < ids.size(); ++j) {
    if (j > 0 &&
        CompareRowsBy(table, ids[j - 1], ids[j], partition_keys) != 0) {
      row_number = 0;
    }
    expected.SetInt64(ids[j], ++row_number);
  }
  ExpectColumnsEqual(*actual, expected, context + " row_number");
}

// Keys at the edges of the sort-key encoding — NaNs of several payloads
// (one negative), +-inf, +-0.0, INT64_MIN/MAX and NULLs — under every
// partitioning shape and every ASC/DESC x NULLS FIRST/LAST combination of
// the frame and function ORDER BY. Frames are ROWS, GROUPS, or (on a single
// numeric key) RANGE with offsets, whose NaN semantics frame_fuzz_test
// checks against a brute-force scan.
TEST(WindowFuzz, SpecialKeysAgreeWithOracle) {
  const std::vector<std::vector<size_t>> partitionings = {
      {}, {kSpD}, {kSpS}, {kSpD, kSpI}, {kSpS, kSpI}};
  const size_t order_columns[] = {kSpD, kSpI, kSpS};
  Pcg32 rng(20261019);
  // A second stream for the frame-order calls, so the grid above draws the
  // same tables, specs and calls as without them.
  Pcg32 order_rng(20261020);
  size_t checked = 0;
  size_t range_checked = 0;
  uint64_t flipped_order_levels = 0;
  for (size_t p = 0; p < partitionings.size(); ++p) {
    for (size_t column : order_columns) {
      for (size_t combo = 0; combo < 4; ++combo) {
        Table table = MakeSpecialKeyTable(120 + rng.Bounded(200),
                                          /*seed=*/7000 + checked);
        WindowSpec spec;
        spec.partition_by = partitionings[p];
        spec.order_by.push_back(SpecialKey(column, combo));
        const bool range = column != kSpS && rng.Bounded(3) == 0;
        if (!range && rng.Bounded(2)) {
          spec.order_by.push_back(RandomSpecialKey(rng));
        }
        spec.frame.mode = range            ? FrameMode::kRange
                          : rng.Bounded(2) ? FrameMode::kRows
                                           : FrameMode::kGroups;
        spec.frame.begin = rng.Bounded(2)
                               ? FrameBound::Preceding(rng.Bounded(6))
                               : FrameBound::UnboundedPreceding();
        spec.frame.end = rng.Bounded(2) ? FrameBound::Following(rng.Bounded(6))
                                        : FrameBound::CurrentRow();
        if (rng.Bounded(4) == 0) spec.frame.exclusion = FrameExclusion::kTies;
        const std::string where = "partitioning " + std::to_string(p) +
                                  " column " + std::to_string(column) +
                                  " combo " + std::to_string(combo);
        ExpectRowNumberIsSortIndex(table, spec, where);
        for (size_t c = 0; c < 4; ++c) {
          WindowFunctionCall call = RandomSpecialCall(rng, (combo + c) % 4);
          if (!ValidateWindowCall(table, spec, call).ok()) continue;
          SCOPED_TRACE(where + ": " + Describe(spec, call));
          ExpectMatchesNaive(table, spec, call, where);
          ++checked;
          range_checked += range ? 1 : 0;
        }
        // A value function or LEAD/LAG whose function ORDER BY is the
        // window's own takes the positional path and builds no tree; the
        // same call with one key's direction or NULL placement flipped
        // keeps the selection tree.
        static const WindowFunctionKind kSelectKinds[] = {
            WindowFunctionKind::kLead, WindowFunctionKind::kLag,
            WindowFunctionKind::kFirstValue, WindowFunctionKind::kLastValue,
            WindowFunctionKind::kNthValue};
        WindowFunctionCall call;
        call.kind = kSelectKinds[order_rng.Bounded(std::size(kSelectKinds))];
        call.argument = order_columns[order_rng.Bounded(3)];
        call.ignore_nulls = order_rng.Bounded(2) == 0;
        if (order_rng.Bounded(4) == 0) call.filter = kSpFlag;
        call.param = order_rng.Bounded(4) +
                     (call.kind == WindowFunctionKind::kNthValue ? 1 : 0);
        call.order_by = spec.order_by;
        {
          SCOPED_TRACE(where + " frame order: " + Describe(spec, call));
          const obs::CounterDeltaTracker delta;
          ExpectMatchesNaive(table, spec, call, where + " frame order");
          EXPECT_EQ(delta.DeltaOf(obs::Counter::kMstLevelsBuilt), 0u);
        }
        SortKey& flip = call.order_by[order_rng.Bounded(call.order_by.size())];
        if (order_rng.Bounded(2)) {
          flip.ascending = !flip.ascending;
        } else {
          flip.nulls_first = !flip.nulls_first;
        }
        {
          SCOPED_TRACE(where + " flipped order: " + Describe(spec, call));
          const obs::CounterDeltaTracker delta;
          ExpectMatchesNaive(table, spec, call, where + " flipped order");
          flipped_order_levels +=
              delta.DeltaOf(obs::Counter::kMstLevelsBuilt);
        }
      }
    }
  }
  EXPECT_GT(checked, 150u);
  EXPECT_GT(range_checked, 20u);
  EXPECT_GT(flipped_order_levels, 0u);
}

}  // namespace
}  // namespace hwf
