// The competitor engines (incremental, order statistic tree) must produce
// the same results as the naive oracle on their supported functions — the
// paper's comparisons are only meaningful if all engines agree.
#include <gtest/gtest.h>

#include <string>

#include "tests/window_test_util.h"

namespace hwf {
namespace {

using test::ExpectColumnsEqual;
using test::MakeRandomTable;

constexpr size_t kOrd = 1;
constexpr size_t kVal = 2;
constexpr size_t kPrice = 3;
constexpr size_t kOff = 6;

void ExpectEngineMatchesNaive(const Table& table, const WindowSpec& spec,
                              const WindowFunctionCall& call,
                              WindowEngine engine, const std::string& context,
                              size_t morsel_size = 32) {
  WindowExecutorOptions options;
  options.engine = engine;
  options.morsel_size = morsel_size;
  StatusOr<Column> actual = EvaluateWindowFunction(table, spec, call, options);
  ASSERT_TRUE(actual.ok()) << context << ": " << actual.status().ToString();

  options.engine = WindowEngine::kNaive;
  StatusOr<Column> expected =
      EvaluateWindowFunction(table, spec, call, options);
  ASSERT_TRUE(expected.ok()) << context;
  ExpectColumnsEqual(*actual, *expected, context);
}

WindowSpec SlidingSpec(int64_t preceding, int64_t following) {
  WindowSpec spec;
  spec.partition_by = {0};
  spec.order_by = {SortKey{kOrd, true, false}};
  spec.frame.begin = FrameBound::Preceding(preceding);
  spec.frame.end = FrameBound::Following(following);
  return spec;
}

TEST(IncrementalEngine, DistinctAggregates) {
  Table table = MakeRandomTable(250, 21);
  for (auto kind :
       {WindowFunctionKind::kCountDistinct, WindowFunctionKind::kSumDistinct,
        WindowFunctionKind::kAvgDistinct}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = kVal;
    ExpectEngineMatchesNaive(table, SlidingSpec(9, 4), call,
                             WindowEngine::kIncremental,
                             WindowFunctionKindName(kind));
  }
}

TEST(IncrementalEngine, Percentiles) {
  Table table = MakeRandomTable(250, 22);
  for (auto kind :
       {WindowFunctionKind::kMedian, WindowFunctionKind::kPercentileDisc,
        WindowFunctionKind::kPercentileCont}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = kPrice;
    call.fraction = 0.9;
    ExpectEngineMatchesNaive(table, SlidingSpec(15, 0), call,
                             WindowEngine::kIncremental,
                             WindowFunctionKindName(kind));
  }
}

TEST(IncrementalEngine, ModeMatchesNaive) {
  Table table = MakeRandomTable(300, 29);
  WindowFunctionCall mode;
  mode.kind = WindowFunctionKind::kMode;
  mode.argument = kVal;
  ExpectEngineMatchesNaive(table, SlidingSpec(11, 5), mode,
                           WindowEngine::kIncremental, "mode sliding");
  // Running frame and string argument.
  WindowSpec running;
  running.partition_by = {0};
  running.order_by = {SortKey{kOrd, true, false}};
  ExpectEngineMatchesNaive(table, running, mode, WindowEngine::kIncremental,
                           "mode running");
  mode.argument = 4;  // name column (strings)
  ExpectEngineMatchesNaive(table, SlidingSpec(9, 2), mode,
                           WindowEngine::kIncremental, "mode strings");
  // With FILTER.
  mode.argument = kVal;
  mode.filter = 5;
  ExpectEngineMatchesNaive(table, SlidingSpec(8, 8), mode,
                           WindowEngine::kIncremental, "mode filter");
}

TEST(IncrementalEngine, NonMonotonicFrames) {
  Table table = MakeRandomTable(200, 23);
  WindowSpec spec;
  spec.order_by = {SortKey{kOrd, true, false}};
  spec.frame.begin = FrameBound::PrecedingColumn(kOff);
  spec.frame.end = FrameBound::FollowingColumn(kOff);
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kCountDistinct;
  call.argument = kVal;
  ExpectEngineMatchesNaive(table, spec, call, WindowEngine::kIncremental,
                           "non-monotonic distinct count");
  call.kind = WindowFunctionKind::kMedian;
  call.argument = kPrice;
  ExpectEngineMatchesNaive(table, spec, call, WindowEngine::kIncremental,
                           "non-monotonic median");
}

TEST(IncrementalEngine, UnsupportedKindsReportNotImplemented) {
  Table table = MakeRandomTable(50, 24);
  WindowSpec spec = SlidingSpec(5, 0);
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kRank;
  call.order_by = {SortKey{kVal, true, false}};
  WindowExecutorOptions options;
  options.engine = WindowEngine::kIncremental;
  StatusOr<Column> result = EvaluateWindowFunction(table, spec, call, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

TEST(OrderStatisticTreeEngine, Percentiles) {
  Table table = MakeRandomTable(250, 25);
  for (auto kind :
       {WindowFunctionKind::kMedian, WindowFunctionKind::kPercentileDisc,
        WindowFunctionKind::kPercentileCont}) {
    WindowFunctionCall call;
    call.kind = kind;
    call.argument = kPrice;
    call.fraction = 0.25;
    ExpectEngineMatchesNaive(table, SlidingSpec(12, 3), call,
                             WindowEngine::kOrderStatisticTree,
                             WindowFunctionKindName(kind));
  }
}

TEST(OrderStatisticTreeEngine, Rank) {
  Table table = MakeRandomTable(250, 26);
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kRank;
  call.order_by = {SortKey{kVal, true, false}};
  ExpectEngineMatchesNaive(table, SlidingSpec(10, 10), call,
                           WindowEngine::kOrderStatisticTree, "rank");
}

TEST(OrderStatisticTreeEngine, RunningFrameWithLargeMorsels) {
  // Single morsel == the pure serial algorithm (no task rebuilds).
  Table table = MakeRandomTable(300, 27);
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kMedian;
  call.argument = kPrice;
  WindowSpec spec;
  spec.order_by = {SortKey{kOrd, true, false}};
  ExpectEngineMatchesNaive(table, spec, call,
                           WindowEngine::kOrderStatisticTree,
                           "running median single morsel",
                           /*morsel_size=*/1u << 30);
}

TEST(AllEngines, AgreeOnFramedMedian) {
  // The headline comparison of the paper: every engine computes the same
  // framed median.
  Table table = MakeRandomTable(400, 28, /*partitions=*/1,
                                /*null_fraction=*/0.0);
  WindowSpec spec;
  spec.order_by = {SortKey{kOrd, true, false}};
  spec.frame.begin = FrameBound::Preceding(49);
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kMedian;
  call.argument = kPrice;

  WindowExecutorOptions options;
  StatusOr<Column> reference = EvaluateWindowFunction(table, spec, call);
  ASSERT_TRUE(reference.ok());
  for (WindowEngine engine :
       {WindowEngine::kNaive, WindowEngine::kIncremental,
        WindowEngine::kOrderStatisticTree}) {
    options.engine = engine;
    StatusOr<Column> other =
        EvaluateWindowFunction(table, spec, call, options);
    ASSERT_TRUE(other.ok());
    ExpectColumnsEqual(*other, *reference,
                       "engine " + std::to_string(static_cast<int>(engine)));
  }
}

// Percentile arguments holding NaN (several payloads), +-inf and -0.0:
// the engines' order-maintained values must follow the SQL order of
// doubles the naive engine sorts by (NaN above +inf, -0.0 equal to 0.0).
TEST(BaselineEngines, PercentilesOverSpecialDoublesMatchNaive) {
  constexpr size_t kSpecialD = 0;  // test::MakeSpecialKeyTable columns.
  constexpr size_t kSpecialV = 3;
  const Table table = test::MakeSpecialKeyTable(300, 4711);
  for (const WindowEngine engine :
       {WindowEngine::kOrderStatisticTree, WindowEngine::kIncremental}) {
    for (const auto& [preceding, following] :
         {std::pair<int64_t, int64_t>{5, 0}, {3, 3}, {12, 2}}) {
      WindowSpec spec;
      spec.order_by = {SortKey{kSpecialV, true, false}};
      spec.frame.begin = FrameBound::Preceding(preceding);
      spec.frame.end = FrameBound::Following(following);
      for (const auto kind :
           {WindowFunctionKind::kMedian, WindowFunctionKind::kPercentileCont,
            WindowFunctionKind::kPercentileDisc}) {
        for (const double fraction : {0.1, 0.5, 0.9}) {
          WindowFunctionCall call;
          call.kind = kind;
          call.argument = kSpecialD;
          call.fraction = fraction;
          ExpectEngineMatchesNaive(
              table, spec, call, engine,
              std::string(WindowFunctionKindName(kind)) + " engine " +
                  std::to_string(static_cast<int>(engine)) + " rows " +
                  std::to_string(preceding) + "/" + std::to_string(following) +
                  " fraction " + std::to_string(fraction));
          if (kind == WindowFunctionKind::kMedian) break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hwf
