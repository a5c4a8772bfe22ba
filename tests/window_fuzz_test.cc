// Randomized conformance fuzzing: generate random window specifications
// (frame mode, bounds, exclusion, partitioning, per-row offsets) and
// random function calls (argument, function order, FILTER, parameters) and
// require the merge sort tree engine to agree with the naive oracle on
// random tables with NULLs and heavy duplicates.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "tests/window_test_util.h"

namespace hwf {
namespace {

using test::ExpectMatchesNaive;
using test::MakeRandomTable;

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

}  // namespace
}  // namespace hwf
