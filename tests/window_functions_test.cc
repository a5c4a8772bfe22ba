// Conformance tests: the merge sort tree engine must agree with the naive
// per-frame oracle for every window function under a broad grid of frame
// specifications, NULL patterns, FILTER clauses, and partitionings.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "obs/counters.h"
#include "tests/window_test_util.h"

namespace hwf {
namespace {

using test::ExpectMatchesNaive;
using test::MakeRandomTable;

// Column indexes in MakeRandomTable's schema.
constexpr size_t kGrp = 0;
constexpr size_t kOrd = 1;
constexpr size_t kVal = 2;
constexpr size_t kPrice = 3;
constexpr size_t kName = 4;
constexpr size_t kFlag = 5;
constexpr size_t kOff = 6;

std::vector<WindowFunctionCall> AllCalls() {
  std::vector<WindowFunctionCall> calls;
  auto add = [&](WindowFunctionKind kind, std::optional<size_t> argument) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = argument;
    calls.push_back(call);
  };
  add(WindowFunctionKind::kCountStar, std::nullopt);
  add(WindowFunctionKind::kCount, kVal);
  add(WindowFunctionKind::kSum, kVal);
  add(WindowFunctionKind::kSum, kPrice);
  add(WindowFunctionKind::kMin, kPrice);
  add(WindowFunctionKind::kMax, kVal);
  add(WindowFunctionKind::kAvg, kPrice);
  add(WindowFunctionKind::kCountDistinct, kVal);
  add(WindowFunctionKind::kCountDistinct, kName);
  add(WindowFunctionKind::kSumDistinct, kVal);
  add(WindowFunctionKind::kSumDistinct, kPrice);
  add(WindowFunctionKind::kAvgDistinct, kVal);
  add(WindowFunctionKind::kMinDistinct, kVal);
  add(WindowFunctionKind::kMaxDistinct, kPrice);
  // Rank family with a function-level ORDER BY on a different column than
  // the frame order — the paper's core extension.
  for (auto kind :
       {WindowFunctionKind::kRank, WindowFunctionKind::kDenseRank,
        WindowFunctionKind::kRowNumber, WindowFunctionKind::kPercentRank,
        WindowFunctionKind::kCumeDist}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.order_by = {SortKey{kVal, true, false}};
    calls.push_back(call);
    call.order_by = {SortKey{kPrice, false, true}};  // DESC NULLS FIRST.
    calls.push_back(call);
  }
  {
    WindowFunctionCall ntile;
    ntile.kind = WindowFunctionKind::kNtile;
    ntile.order_by = {SortKey{kPrice, true, false}};
    ntile.param = 4;
    calls.push_back(ntile);
  }
  for (double fraction : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    WindowFunctionCall pct;
    pct.kind = WindowFunctionKind::kPercentileDisc;
    pct.argument = kPrice;
    pct.fraction = fraction;
    calls.push_back(pct);
    pct.kind = WindowFunctionKind::kPercentileCont;
    calls.push_back(pct);
  }
  {
    WindowFunctionCall median;
    median.kind = WindowFunctionKind::kMedian;
    median.argument = kVal;
    calls.push_back(median);
  }
  for (auto kind : {WindowFunctionKind::kFirstValue,
                    WindowFunctionKind::kLastValue}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = kName;
    call.order_by = {SortKey{kPrice, true, false}};
    calls.push_back(call);
    call.argument = kVal;
    call.order_by = {};
    calls.push_back(call);  // Falls back to the frame order.
  }
  {
    WindowFunctionCall nth;
    nth.kind = WindowFunctionKind::kNthValue;
    nth.argument = kPrice;
    nth.order_by = {SortKey{kVal, true, false}};
    nth.param = 3;
    calls.push_back(nth);
  }
  for (auto kind : {WindowFunctionKind::kLead, WindowFunctionKind::kLag}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = kVal;
    call.order_by = {SortKey{kPrice, true, false}};
    call.param = 2;
    calls.push_back(call);
    call.param = 0;
    calls.push_back(call);
  }
  return calls;
}

void RunAllCallsAgainstNaive(const Table& table, const WindowSpec& spec,
                             const std::string& context) {
  for (const WindowFunctionCall& call : AllCalls()) {
    if (call.kind == WindowFunctionKind::kDenseRank &&
        spec.frame.exclusion != FrameExclusion::kNoOthers) {
      continue;  // Documented: unsupported combination.
    }
    ExpectMatchesNaive(
        table, spec, call,
        context + " / " + WindowFunctionKindName(call.kind));
  }
}

WindowSpec BaseSpec() {
  WindowSpec spec;
  spec.partition_by = {kGrp};
  spec.order_by = {SortKey{kOrd, true, false}};
  return spec;
}

TEST(WindowConformance, DefaultRunningFrame) {
  Table table = MakeRandomTable(180, 1);
  RunAllCallsAgainstNaive(table, BaseSpec(), "running");
}

TEST(WindowConformance, SlidingRowsFrame) {
  Table table = MakeRandomTable(170, 2);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::Preceding(7);
  spec.frame.end = FrameBound::Following(3);
  RunAllCallsAgainstNaive(table, spec, "sliding");
}

TEST(WindowConformance, BothPrecedingFrame) {
  // The current row is OUTSIDE its own frame.
  Table table = MakeRandomTable(150, 3);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::Preceding(10);
  spec.frame.end = FrameBound::Preceding(3);
  RunAllCallsAgainstNaive(table, spec, "both-preceding");
}

TEST(WindowConformance, UnboundedBothSides) {
  Table table = MakeRandomTable(160, 4);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::UnboundedPreceding();
  spec.frame.end = FrameBound::UnboundedFollowing();
  RunAllCallsAgainstNaive(table, spec, "unbounded");
}

TEST(WindowConformance, RangeFrame) {
  Table table = MakeRandomTable(170, 5);
  WindowSpec spec = BaseSpec();
  spec.frame.mode = FrameMode::kRange;
  spec.frame.begin = FrameBound::Preceding(4);
  spec.frame.end = FrameBound::CurrentRow();
  RunAllCallsAgainstNaive(table, spec, "range");
}

TEST(WindowConformance, RangeFrameDescending) {
  Table table = MakeRandomTable(150, 6);
  WindowSpec spec = BaseSpec();
  spec.order_by = {SortKey{kOrd, false, false}};
  spec.frame.mode = FrameMode::kRange;
  spec.frame.begin = FrameBound::Preceding(3);
  spec.frame.end = FrameBound::Following(2);
  RunAllCallsAgainstNaive(table, spec, "range-desc");
}

TEST(WindowConformance, GroupsFrame) {
  Table table = MakeRandomTable(160, 7);
  WindowSpec spec = BaseSpec();
  spec.frame.mode = FrameMode::kGroups;
  spec.frame.begin = FrameBound::Preceding(2);
  spec.frame.end = FrameBound::Following(1);
  RunAllCallsAgainstNaive(table, spec, "groups");
}

TEST(WindowConformance, NonMonotonicPerRowOffsets) {
  // Per-row offsets (the paper's §6.5 non-monotonic frames): tuples enter
  // and leave the frame multiple times.
  Table table = MakeRandomTable(170, 8);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::PrecedingColumn(kOff);
  spec.frame.end = FrameBound::FollowingColumn(kOff);
  RunAllCallsAgainstNaive(table, spec, "non-monotonic");
}

class ExclusionConformanceTest
    : public ::testing::TestWithParam<FrameExclusion> {};

TEST_P(ExclusionConformanceTest, AllFunctionsMatchNaive) {
  Table table = MakeRandomTable(150, 9);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::Preceding(8);
  spec.frame.end = FrameBound::Following(8);
  spec.frame.exclusion = GetParam();
  RunAllCallsAgainstNaive(table, spec, "exclusion");
}

INSTANTIATE_TEST_SUITE_P(Exclusions, ExclusionConformanceTest,
                         ::testing::Values(FrameExclusion::kCurrentRow,
                                           FrameExclusion::kGroup,
                                           FrameExclusion::kTies));

TEST(WindowConformance, ExclusionWithRunningFrameDistincts) {
  // Exclusion + DISTINCT aggregates exercises the gap-walk correction the
  // paper only sketches (§4.7).
  Table table = MakeRandomTable(200, 10, /*partitions=*/1);
  WindowSpec spec;
  spec.order_by = {SortKey{kOrd, true, false}};
  spec.frame.begin = FrameBound::UnboundedPreceding();
  spec.frame.end = FrameBound::UnboundedFollowing();
  spec.frame.exclusion = FrameExclusion::kGroup;
  for (auto kind :
       {WindowFunctionKind::kCountDistinct, WindowFunctionKind::kSumDistinct,
        WindowFunctionKind::kMinDistinct, WindowFunctionKind::kMaxDistinct,
        WindowFunctionKind::kAvgDistinct}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = kVal;
    ExpectMatchesNaive(table, spec, call,
                       std::string("exclusion-distinct/") +
                           WindowFunctionKindName(kind));
  }
}

TEST(WindowConformance, FilterClause) {
  Table table = MakeRandomTable(160, 11);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::Preceding(12);
  for (WindowFunctionCall call : AllCalls()) {
    call.filter = kFlag;
    ExpectMatchesNaive(table, spec, call,
                       std::string("filter/") +
                           WindowFunctionKindName(call.kind));
  }
}

TEST(WindowConformance, IgnoreNullsValueFunctions) {
  Table table = MakeRandomTable(150, 12, /*partitions=*/2,
                                /*null_fraction=*/0.4);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::Preceding(9);
  for (auto kind :
       {WindowFunctionKind::kFirstValue, WindowFunctionKind::kLastValue,
        WindowFunctionKind::kNthValue, WindowFunctionKind::kLead,
        WindowFunctionKind::kLag}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = kVal;
    call.order_by = {SortKey{kPrice, true, false}};
    call.ignore_nulls = true;
    call.param = 2;
    ExpectMatchesNaive(table, spec, call,
                       std::string("ignore-nulls/") +
                           WindowFunctionKindName(kind));
  }
}

TEST(WindowConformance, NoPartitioning) {
  Table table = MakeRandomTable(140, 13);
  WindowSpec spec;
  spec.order_by = {SortKey{kOrd, true, false}};
  spec.frame.begin = FrameBound::Preceding(5);
  RunAllCallsAgainstNaive(table, spec, "no-partition");
}

TEST(WindowConformance, ManySmallPartitions) {
  Table table = MakeRandomTable(200, 14, /*partitions=*/40);
  RunAllCallsAgainstNaive(table, BaseSpec(), "small-partitions");
}

TEST(WindowConformance, NoOrderBy) {
  // Frame order degenerates to input order; rank functions need a
  // function-level order.
  Table table = MakeRandomTable(120, 15);
  WindowSpec spec;
  spec.partition_by = {kGrp};
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kCountDistinct;
  call.argument = kVal;
  ExpectMatchesNaive(table, spec, call, "no-order/count-distinct");
  call.kind = WindowFunctionKind::kRank;
  call.order_by = {SortKey{kVal, true, false}};
  ExpectMatchesNaive(table, spec, call, "no-order/rank");
}

TEST(WindowConformance, TinyEdgeCases) {
  for (size_t rows : {0u, 1u, 2u, 3u}) {
    Table table = MakeRandomTable(rows, 16 + rows);
    RunAllCallsAgainstNaive(table, BaseSpec(),
                            "tiny-" + std::to_string(rows));
  }
}

// LEAD/LAG and FIRST/LAST/NTH_VALUE whose function order is the frame
// order (no function ORDER BY, or the window's own) are answered
// positionally, without a selection tree: every frame shape, FILTER,
// IGNORE NULLS and EXCLUDE must still match the oracle, and no tree level
// may be built.
TEST(WindowConformance, LeadLagFrameOrder) {
  struct Shape {
    const char* name;
    WindowSpec spec;
  };
  std::vector<Shape> shapes;
  auto add_shape = [&](const char* name, FrameBound begin, FrameBound end,
                       FrameExclusion exclusion = FrameExclusion::kNoOthers) {
    WindowSpec spec = BaseSpec();
    spec.frame.begin = begin;
    spec.frame.end = end;
    spec.frame.exclusion = exclusion;
    shapes.push_back({name, spec});
  };
  add_shape("following-only", FrameBound::Following(5),
            FrameBound::Following(10));
  add_shape("empty", FrameBound::Preceding(2), FrameBound::Preceding(4));
  add_shape("running", FrameBound::UnboundedPreceding(),
            FrameBound::CurrentRow());
  add_shape("sliding", FrameBound::Preceding(6), FrameBound::Following(4));
  add_shape("exclude-current", FrameBound::Preceding(8),
            FrameBound::Following(8), FrameExclusion::kCurrentRow);
  add_shape("exclude-group", FrameBound::Preceding(8),
            FrameBound::Following(8), FrameExclusion::kGroup);
  add_shape("exclude-ties", FrameBound::UnboundedPreceding(),
            FrameBound::UnboundedFollowing(), FrameExclusion::kTies);
  {
    // Peer-heavy: two ORDER BY values, GROUPS frame with ties excluded.
    WindowSpec spec = BaseSpec();
    spec.order_by = {SortKey{kFlag, false, false}};
    spec.frame.mode = FrameMode::kGroups;
    spec.frame.begin = FrameBound::Preceding(1);
    spec.frame.end = FrameBound::CurrentRow();
    spec.frame.exclusion = FrameExclusion::kTies;
    shapes.push_back({"peers", spec});
  }

  struct KindParam {
    WindowFunctionKind kind;
    int64_t param;
  };
  const KindParam kinds[] = {
      {WindowFunctionKind::kLead, 0},       {WindowFunctionKind::kLead, 1},
      {WindowFunctionKind::kLead, 1000},    {WindowFunctionKind::kLag, 0},
      {WindowFunctionKind::kLag, 1},        {WindowFunctionKind::kLag, 1000},
      {WindowFunctionKind::kFirstValue, 0}, {WindowFunctionKind::kLastValue, 0},
      {WindowFunctionKind::kNthValue, 1},   {WindowFunctionKind::kNthValue, 3},
      {WindowFunctionKind::kNthValue, 1000},
  };
  // Variants: plain, explicit window order, FILTER, IGNORE NULLS over a
  // NULL-heavy argument (many current rows are NULL).
  enum Variant { kPlain, kExplicitOrder, kFiltered, kIgnoreNulls };
  const Table table = MakeRandomTable(170, 21);
  const Table null_heavy = MakeRandomTable(170, 22, /*partitions=*/3,
                                           /*null_fraction=*/0.45);
  for (const Shape& shape : shapes) {
    for (const KindParam& kp : kinds) {
      for (size_t argument : {kVal, kPrice, kName}) {
        for (Variant variant :
             {kPlain, kExplicitOrder, kFiltered, kIgnoreNulls}) {
          WindowFunctionCall call;
          call.kind = kp.kind;
          call.param = kp.param;
          call.argument = argument;
          if (variant == kExplicitOrder) call.order_by = shape.spec.order_by;
          if (variant == kFiltered) call.filter = kFlag;
          call.ignore_nulls = variant == kIgnoreNulls;
          const Table& input = variant == kIgnoreNulls ? null_heavy : table;
          for (int width : {32, 64}) {
            WindowExecutorOptions options;
            options.force_index_width = width;
            const std::string context =
                std::string(shape.name) + "/" +
                WindowFunctionKindName(kp.kind) + "(" +
                std::to_string(kp.param) + ") arg " +
                std::to_string(argument) + " variant " +
                std::to_string(variant) + " width " + std::to_string(width);
            const obs::CounterDeltaTracker delta;
            ExpectMatchesNaive(input, shape.spec, call, context, options);
            EXPECT_EQ(delta.DeltaOf(obs::Counter::kMstLevelsBuilt), 0u)
                << context;
          }
        }
      }
    }
  }

  // Without any ORDER BY there is no order to select in: both engines
  // reject the call.
  WindowSpec unordered;
  unordered.partition_by = {kGrp};
  for (const KindParam& kp : kinds) {
    WindowFunctionCall call;
    call.kind = kp.kind;
    call.param = kp.param;
    call.argument = kVal;
    for (WindowEngine engine :
         {WindowEngine::kMergeSortTree, WindowEngine::kNaive}) {
      WindowExecutorOptions options;
      options.engine = engine;
      StatusOr<Column> result =
          EvaluateWindowFunction(table, unordered, call, options);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << WindowFunctionKindName(kp.kind);
    }
  }
}

TEST(WindowConformance, LeadLagFrameOrderBuildsNoTree) {
  const Table table = MakeRandomTable(10000, 23, /*partitions=*/1);
  WindowSpec spec;
  spec.order_by = {SortKey{kOrd, true, false}};
  spec.frame.begin = FrameBound::Preceding(20);
  spec.frame.end = FrameBound::Following(20);
  WindowFunctionCall lead;
  lead.kind = WindowFunctionKind::kLead;
  lead.argument = kVal;
  lead.param = 2;

  obs::CounterDeltaTracker delta;
  ASSERT_TRUE(EvaluateWindowFunction(table, spec, lead).ok());
  EXPECT_EQ(delta.DeltaOf(obs::Counter::kMstLevelsBuilt), 0u);

  lead.order_by = {SortKey{kVal, true, false}};
  delta.Rebase();
  ASSERT_TRUE(EvaluateWindowFunction(table, spec, lead).ok());
  EXPECT_GT(delta.DeltaOf(obs::Counter::kMstLevelsBuilt), 0u);
}

TEST(WindowConformance, ForcedIndexWidths) {
  Table table = MakeRandomTable(150, 17);
  WindowSpec spec = BaseSpec();
  for (int width : {32, 64}) {
    WindowExecutorOptions options;
    options.force_index_width = width;
    WindowFunctionCall call;
    call.kind = WindowFunctionKind::kCountDistinct;
    call.argument = kVal;
    ExpectMatchesNaive(table, spec, call,
                       "width-" + std::to_string(width), options);
    call.kind = WindowFunctionKind::kMedian;
    call.argument = kPrice;
    ExpectMatchesNaive(table, spec, call,
                       "width-median-" + std::to_string(width), options);
    WindowFunctionCall dense_rank;
    dense_rank.kind = WindowFunctionKind::kDenseRank;
    dense_rank.order_by = {SortKey{kVal, true, false}};
    ExpectMatchesNaive(table, spec, dense_rank,
                       "width-dense-rank-" + std::to_string(width), options);
    dense_rank.filter = kFlag;
    ExpectMatchesNaive(table, spec, dense_rank,
                       "width-dense-rank-filter-" + std::to_string(width),
                       options);
  }
}

TEST(WindowConformance, SmallTreeFanoutAndSampling) {
  Table table = MakeRandomTable(180, 18);
  WindowSpec spec = BaseSpec();
  for (size_t fanout : {2u, 4u, 64u}) {
    for (size_t sampling : {1u, 4u, 128u}) {
      WindowExecutorOptions options;
      options.tree.fanout = fanout;
      options.tree.sampling = sampling;
      WindowFunctionCall call;
      call.kind = WindowFunctionKind::kRank;
      call.order_by = {SortKey{kVal, true, false}};
      ExpectMatchesNaive(table, spec, call,
                         "fanout-" + std::to_string(fanout) + "-k-" +
                             std::to_string(sampling),
                         options);
    }
  }
}

TEST(WindowConformance, MultiWorkerPoolMatchesSerialOracle) {
  // The container may have a single core, so the default pool has no
  // workers; run the full call set on an explicit 4-worker pool to
  // exercise TaskGroup scheduling, chunked upper-level tree merges, and
  // the across-partition path, comparing against the serial naive oracle.
  Table table = MakeRandomTable(250, 20);
  WindowSpec spec = BaseSpec();
  spec.frame.begin = FrameBound::Preceding(11);
  spec.frame.end = FrameBound::Following(6);

  ThreadPool parallel(4);
  ThreadPool serial(0);
  WindowExecutorOptions options;
  options.morsel_size = 24;  // Many tasks.
  for (const WindowFunctionCall& call : AllCalls()) {
    options.engine = WindowEngine::kMergeSortTree;
    StatusOr<Column> mst =
        EvaluateWindowFunction(table, spec, call, options, parallel);
    ASSERT_TRUE(mst.ok()) << WindowFunctionKindName(call.kind);
    options.engine = WindowEngine::kNaive;
    StatusOr<Column> naive =
        EvaluateWindowFunction(table, spec, call, options, serial);
    ASSERT_TRUE(naive.ok());
    test::ExpectColumnsEqual(*mst, *naive,
                             std::string("parallel-pool/") +
                                 WindowFunctionKindName(call.kind));
  }
}

TEST(WindowConformance, SmallMorselsExerciseTaskParallelism) {
  Table table = MakeRandomTable(300, 19);
  WindowSpec spec = BaseSpec();
  WindowExecutorOptions options;
  options.morsel_size = 16;  // Many tasks even at this size.
  for (const WindowFunctionCall& call : AllCalls()) {
    ExpectMatchesNaive(table, spec, call,
                       std::string("morsel/") +
                           WindowFunctionKindName(call.kind),
                       options);
  }
}

}  // namespace
}  // namespace hwf
