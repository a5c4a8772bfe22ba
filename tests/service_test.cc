// Tests for the concurrent query service layer: SQL parsing/planning,
// admission control, cancellation, cross-query tree reuse and concurrent
// differential correctness.
#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "service/catalog.h"
#include "service/result_format.h"
#include "service/sql_parser.h"
#include "tests/window_test_util.h"
#include "window/executor.h"

namespace hwf {
namespace {

using service::ParsedStatement;
using service::ParseStatement;
using service::PlannedQuery;
using service::PlanQuery;
using service::QueryOptions;
using service::QueryResult;
using service::QueryService;
using service::ServiceOptions;

// This suite manages budgets through ServiceOptions/QueryOptions; the
// forced-spill CI job's HWF_TEST_MEMORY_LIMIT would act as a per-query
// limit, which (by design) disables cross-query tree caching and breaks
// the cache-hit assertions.
const bool g_env_cleared = [] {
  unsetenv("HWF_TEST_MEMORY_LIMIT");
  return true;
}();

/// Exact equality, including doubles bit-for-bit (the service differential
/// tests claim determinism, not approximation).
void ExpectBitIdentical(const Column& actual, const Column& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  ASSERT_EQ(actual.type(), expected.type()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual.IsNull(i), expected.IsNull(i)) << context << " row " << i;
    if (actual.IsNull(i)) continue;
    switch (actual.type()) {
      case DataType::kInt64:
        ASSERT_EQ(actual.GetInt64(i), expected.GetInt64(i))
            << context << " row " << i;
        break;
      case DataType::kDouble:
        ASSERT_EQ(actual.GetDouble(i), expected.GetDouble(i))
            << context << " row " << i;
        break;
      case DataType::kString:
        ASSERT_EQ(actual.GetString(i), expected.GetString(i))
            << context << " row " << i;
        break;
    }
  }
}

/// The paper's Fig. 9 shape: a moving percentile over a sliding ROWS
/// window on TPC-H lineitem. Synthesized columns, same structure.
Table MakeLineitem(size_t rows) {
  Pcg32 rng(99);
  Column shipdate(DataType::kInt64);
  Column extendedprice(DataType::kDouble);
  for (size_t i = 0; i < rows; ++i) {
    shipdate.AppendInt64(static_cast<int64_t>(rng.Bounded(2500)));
    extendedprice.AppendDouble(static_cast<double>(rng.Bounded(1000000)) /
                               100.0);
  }
  Table table;
  table.AddColumn("l_shipdate", std::move(shipdate));
  table.AddColumn("l_extendedprice", std::move(extendedprice));
  return table;
}

// ---------------------------------------------------------------------------
// Parser and planner
// ---------------------------------------------------------------------------

TEST(SqlParser, Fig9RoundTripsBitIdenticalToHandBuiltSpec) {
  Table lineitem = MakeLineitem(20000);
  const std::string sql =
      "select percentile_disc(0.5 order by l_extendedprice) over "
      "(order by l_shipdate rows between 999 preceding and current row) "
      "from lineitem";
  StatusOr<PlannedQuery> plan = PlanQuery(sql, lineitem);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->groups.size(), 1u);
  ASSERT_EQ(plan->groups[0].calls.size(), 1u);

  // The hand-built formulation of the same query.
  WindowSpec spec;
  spec.order_by = {SortKey{0, true, false}};
  spec.frame.mode = FrameMode::kRows;
  spec.frame.begin = FrameBound::Preceding(999);
  spec.frame.end = FrameBound::CurrentRow();
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kPercentileDisc;
  call.fraction = 0.5;
  call.argument = 1;
  call.order_by = {SortKey{1, true, false}};

  EXPECT_TRUE(plan->groups[0].spec == spec);
  const WindowFunctionCall& parsed = plan->groups[0].calls[0];
  EXPECT_EQ(parsed.kind, call.kind);
  EXPECT_EQ(parsed.argument, call.argument);
  EXPECT_EQ(parsed.fraction, call.fraction);

  // Executing the parsed plan and the hand-built plan must agree bit for
  // bit (the acceptance criterion for the SQL front-end).
  StatusOr<std::vector<Column>> from_sql = EvaluateWindowFunctions(
      lineitem, plan->groups[0].spec, plan->groups[0].calls);
  ASSERT_TRUE(from_sql.ok()) << from_sql.status().ToString();
  StatusOr<Column> by_hand = EvaluateWindowFunction(lineitem, spec, call);
  ASSERT_TRUE(by_hand.ok()) << by_hand.status().ToString();
  ExpectBitIdentical((*from_sql)[0], *by_hand, "fig9");
}

TEST(SqlParser, CoversEveryFrameAndExclusionForm) {
  Table table = test::MakeRandomTable(100, 3);
  struct Case {
    const char* sql_frame;
    FrameSpec expected;
  };
  const size_t off = table.MustColumnIndex("off");
  const std::vector<Case> cases = {
      {"rows between unbounded preceding and current row",
       {FrameMode::kRows, FrameBound::UnboundedPreceding(),
        FrameBound::CurrentRow(), FrameExclusion::kNoOthers}},
      {"rows between 2 preceding and 3 following",
       {FrameMode::kRows, FrameBound::Preceding(2), FrameBound::Following(3),
        FrameExclusion::kNoOthers}},
      {"rows between off preceding and off following",
       {FrameMode::kRows, FrameBound::PrecedingColumn(off),
        FrameBound::FollowingColumn(off), FrameExclusion::kNoOthers}},
      {"rows between current row and unbounded following",
       {FrameMode::kRows, FrameBound::CurrentRow(),
        FrameBound::UnboundedFollowing(), FrameExclusion::kNoOthers}},
      {"rows 2 preceding",  // single-bound shorthand
       {FrameMode::kRows, FrameBound::Preceding(2), FrameBound::CurrentRow(),
        FrameExclusion::kNoOthers}},
      {"groups between 1 preceding and 1 following",
       {FrameMode::kGroups, FrameBound::Preceding(1), FrameBound::Following(1),
        FrameExclusion::kNoOthers}},
      {"range between 5 preceding and 5 following",
       {FrameMode::kRange, FrameBound::Preceding(5), FrameBound::Following(5),
        FrameExclusion::kNoOthers}},
      {"rows between 4 preceding and 4 following exclude no others",
       {FrameMode::kRows, FrameBound::Preceding(4), FrameBound::Following(4),
        FrameExclusion::kNoOthers}},
      {"rows between 4 preceding and 4 following exclude current row",
       {FrameMode::kRows, FrameBound::Preceding(4), FrameBound::Following(4),
        FrameExclusion::kCurrentRow}},
      {"rows between 4 preceding and 4 following exclude group",
       {FrameMode::kRows, FrameBound::Preceding(4), FrameBound::Following(4),
        FrameExclusion::kGroup}},
      {"rows between 4 preceding and 4 following exclude ties",
       {FrameMode::kRows, FrameBound::Preceding(4), FrameBound::Following(4),
        FrameExclusion::kTies}},
  };
  for (const Case& c : cases) {
    const std::string sql = std::string("select sum(val) over (order by ord ") +
                            c.sql_frame + ") from t";
    StatusOr<PlannedQuery> plan = PlanQuery(sql, table);
    ASSERT_TRUE(plan.ok()) << c.sql_frame << ": " << plan.status().ToString();
    const FrameSpec& frame = plan->groups[0].spec.frame;
    EXPECT_EQ(frame.mode, c.expected.mode) << c.sql_frame;
    EXPECT_EQ(frame.begin.kind, c.expected.begin.kind) << c.sql_frame;
    EXPECT_EQ(frame.begin.offset, c.expected.begin.offset) << c.sql_frame;
    EXPECT_EQ(frame.begin.offset_column, c.expected.begin.offset_column)
        << c.sql_frame;
    EXPECT_EQ(frame.end.kind, c.expected.end.kind) << c.sql_frame;
    EXPECT_EQ(frame.end.offset, c.expected.end.offset) << c.sql_frame;
    EXPECT_EQ(frame.end.offset_column, c.expected.end.offset_column)
        << c.sql_frame;
    EXPECT_EQ(frame.exclusion, c.expected.exclusion) << c.sql_frame;
  }
}

TEST(SqlParser, DefaultFramesFollowTheStandard) {
  Table table = test::MakeRandomTable(50, 4);
  {
    // No ORDER BY: the whole partition.
    StatusOr<PlannedQuery> plan =
        PlanQuery("select sum(val) over (partition by grp) from t", table);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const FrameSpec& frame = plan->groups[0].spec.frame;
    EXPECT_EQ(frame.begin.kind, FrameBoundKind::kUnboundedPreceding);
    EXPECT_EQ(frame.end.kind, FrameBoundKind::kUnboundedFollowing);
  }
  {
    // ORDER BY: up to and including the current peer group.
    StatusOr<PlannedQuery> plan =
        PlanQuery("select sum(val) over (order by ord) from t", table);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const FrameSpec& frame = plan->groups[0].spec.frame;
    EXPECT_EQ(frame.mode, FrameMode::kGroups);
    EXPECT_EQ(frame.begin.kind, FrameBoundKind::kUnboundedPreceding);
    EXPECT_EQ(frame.end.kind, FrameBoundKind::kCurrentRow);
  }
}

TEST(SqlParser, ParsesModifiersAndGroupsByIdenticalSpec) {
  Table table = test::MakeRandomTable(50, 5);
  const std::string sql =
      "select sum(distinct val) over (order by ord rows between 5 preceding "
      "and current row) as s, "
      "count(*) over (order by ord rows between 5 preceding and current row) "
      "as c, "
      "rank(order by price desc) over (partition by grp order by ord desc "
      "nulls last rows between 3 preceding and 3 following) as r, "
      "first_value(name) filter (where flag) ignore nulls over (order by ord "
      "rows between 5 preceding and current row) as f "
      "from t";
  StatusOr<PlannedQuery> plan = PlanQuery(sql, table);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Items 1, 2 and 4 share an OVER clause; item 3 differs.
  ASSERT_EQ(plan->groups.size(), 2u);
  EXPECT_EQ(plan->groups[0].calls.size(), 3u);
  EXPECT_EQ(plan->groups[1].calls.size(), 1u);
  EXPECT_EQ(plan->output_names,
            (std::vector<std::string>{"s", "c", "r", "f"}));

  const WindowFunctionCall& sum = plan->groups[0].calls[0];
  EXPECT_EQ(sum.kind, WindowFunctionKind::kSumDistinct);
  const WindowFunctionCall& rank = plan->groups[1].calls[0];
  EXPECT_EQ(rank.kind, WindowFunctionKind::kRank);
  ASSERT_EQ(rank.order_by.size(), 1u);
  EXPECT_FALSE(rank.order_by[0].ascending);
  EXPECT_TRUE(rank.order_by[0].nulls_first);  // PostgreSQL DESC default
  const WindowSpec& rank_spec = plan->groups[1].spec;
  ASSERT_EQ(rank_spec.order_by.size(), 1u);
  EXPECT_FALSE(rank_spec.order_by[0].ascending);
  EXPECT_FALSE(rank_spec.order_by[0].nulls_first);  // explicit NULLS LAST
  const WindowFunctionCall& fv = plan->groups[0].calls[2];
  EXPECT_EQ(fv.kind, WindowFunctionKind::kFirstValue);
  EXPECT_TRUE(fv.ignore_nulls);
  ASSERT_TRUE(fv.filter.has_value());
  EXPECT_EQ(*fv.filter, table.MustColumnIndex("flag"));
}

TEST(SqlParser, RejectsMalformedStatements) {
  Table table = test::MakeRandomTable(10, 6);
  const char* cases[] = {
      "",
      "select",
      "select from t",
      "select sum(val) from t",  // missing OVER
      "select sum(val) over () from",
      "select bogus(val) over () from t",
      "select sum(nope) over () from t",
      "select sum(val) over (order by) from t",
      "select sum(val) over (rows between 1 preceding) from t",
      "select sum(val) over (rows between 1 and 2) from t",
      "select sum(val) over (rows between 1.5 preceding and current row) "
      "from t",
      "select sum(val) over (rows banana) from t",
      "select sum(val) over (order by ord exclude ties) from t",
      "select rank(distinct val) over (order by ord) from t",
      "select percentile_disc(0.5) over (order by ord) from t",
      "select ntile() over (order by ord) from t",
      "select sum(val) over (order by ord) from t extra",
      "select count(*) within group (order by ord) over () from t; select",
  };
  for (const char* sql : cases) {
    StatusOr<PlannedQuery> plan = PlanQuery(sql, table);
    EXPECT_FALSE(plan.ok()) << "accepted: " << sql;
  }
}

// ---------------------------------------------------------------------------
// Service: execution, admission, cancellation, cache
// ---------------------------------------------------------------------------

/// A query heavy enough to still be running when the test reacts to it:
/// a wide percentile frame over every row.
std::string SlowSql() {
  return "select percentile_disc(0.5 order by val) over (order by ord rows "
         "between 49999 preceding and current row), "
         "dense_rank() over (order by ord rows between 49999 preceding and "
         "current row) from big";
}

Table MakeBigTable() { return test::MakeRandomTable(150000, 11, 4, 0.1); }

TEST(QueryService, ExecutesSqlIdenticallyToDirectExecutor) {
  Table table = test::MakeRandomTable(20000, 7);
  QueryService svc;
  svc.RegisterTable("t", test::MakeRandomTable(20000, 7));

  const std::string sql =
      "select sum(val) over (partition by grp order by ord rows between 3 "
      "preceding and 2 following) as s, median(price) over (partition by grp "
      "order by ord rows between 3 preceding and 2 following) as m from t";
  StatusOr<QueryResult> result = svc.Query(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_columns(), 2u);
  EXPECT_EQ(result->table.column_name(0), "s");
  EXPECT_EQ(result->table.column_name(1), "m");

  StatusOr<PlannedQuery> plan = PlanQuery(sql, table);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ThreadPool serial(-1);
  StatusOr<std::vector<Column>> direct = EvaluateWindowFunctions(
      table, plan->groups[0].spec, plan->groups[0].calls, {}, serial);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ExpectBitIdentical(result->table.column(0), (*direct)[0], "sum");
  ExpectBitIdentical(result->table.column(1), (*direct)[1], "median");
}

TEST(QueryService, RejectsWhenAdmissionQueueIsFull) {
  ServiceOptions options;
  options.num_sessions = 1;
  options.max_queued = 1;
  QueryService svc(options);
  svc.RegisterTable("big", MakeBigTable());

  StatusOr<uint64_t> running = svc.Submit(SlowSql());
  ASSERT_TRUE(running.ok()) << running.status().ToString();
  // Give the lone session a moment to pop the running query off the queue.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (svc.stats().executing == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(svc.stats().executing, 1u);

  StatusOr<uint64_t> queued = svc.Submit(SlowSql());
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  StatusOr<uint64_t> rejected = svc.Submit(SlowSql());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(svc.stats().rejected, 1u);

  // Drain: cancel both admitted queries and wait them out.
  EXPECT_TRUE(svc.Cancel(*running).ok());
  EXPECT_TRUE(svc.Cancel(*queued).ok());
  (void)svc.Wait(*running);
  (void)svc.Wait(*queued);
}

TEST(QueryService, RejectsWhenAdmissionBudgetIsExhausted) {
  ServiceOptions options;
  options.num_sessions = 1;
  options.max_queued = 8;
  options.memory_limit_bytes = 1 << 20;
  options.per_query_reservation_bytes = 700 << 10;  // two do not fit
  QueryService svc(options);
  svc.RegisterTable("big", MakeBigTable());

  StatusOr<uint64_t> first = svc.Submit(SlowSql());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(svc.stats().reserved_bytes, 700u << 10);
  StatusOr<uint64_t> second = svc.Submit(SlowSql());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE(svc.Cancel(*first).ok());
  (void)svc.Wait(*first);
  // The admission reservation is released by completion.
  EXPECT_EQ(svc.stats().reserved_bytes, 0u);
}

TEST(QueryService, CancellationUnwindsPromptlyAndReleasesReservation) {
  ServiceOptions options;
  options.num_sessions = 1;
  options.memory_limit_bytes = 64 << 20;
  options.per_query_reservation_bytes = 1 << 20;
  QueryService svc(options);
  svc.RegisterTable("big", MakeBigTable());

  StatusOr<uint64_t> id = svc.Submit(SlowSql());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const auto spin_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (svc.stats().executing == 0 &&
         std::chrono::steady_clock::now() < spin_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(svc.stats().executing, 1u);
  EXPECT_EQ(svc.stats().reserved_bytes, 1u << 20);

  const auto cancel_time = std::chrono::steady_clock::now();
  ASSERT_TRUE(svc.Cancel(*id).ok());
  StatusOr<QueryResult> result = svc.Wait(*id);
  const auto waited = std::chrono::steady_clock::now() - cancel_time;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Cooperative stop is polled at morsel granularity, so the unwind must
  // be fast — far faster than the query itself would have taken.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(waited).count(),
            15);
  EXPECT_EQ(svc.stats().reserved_bytes, 0u);
  EXPECT_GE(svc.stats().cancelled, 1u);
}

TEST(QueryService, ExpiredDeadlineReportsDeadlineExceeded) {
  QueryService svc;
  svc.RegisterTable("big", MakeBigTable());
  QueryOptions options;
  options.timeout_seconds = 1e-9;  // already expired at admission
  StatusOr<QueryResult> result = svc.Query(SlowSql(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryService, CacheHitSkipsSortAndTreeBuild) {
  QueryService svc;
  svc.RegisterTable("t", test::MakeRandomTable(50000, 13, 1, 0.1));
  const std::string sql =
      "select percentile_disc(0.5 order by val) over (order by ord rows "
      "between 500 preceding and current row) from t";

  StatusOr<QueryResult> cold = svc.Query(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_NE(cold->profile, nullptr);
  EXPECT_GT(cold->profile->phase_seconds(obs::ProfilePhase::kSort), 0.0);
  EXPECT_GT(cold->profile->phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);

  StatusOr<QueryResult> warm = svc.Query(sql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // Probe-only repeat: the sort permutation and the merge sort tree come
  // from the cache, so those phases never execute.
  EXPECT_EQ(warm->profile->phase_seconds(obs::ProfilePhase::kSort), 0.0);
  EXPECT_EQ(warm->profile->phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);
  EXPECT_GT(warm->profile->phase_seconds(obs::ProfilePhase::kProbe), 0.0);
  EXPECT_GT(svc.stats().cache.hits, 0u);

  ExpectBitIdentical(warm->table.column(0), cold->table.column(0),
                     "cache hit result");
}

TEST(QueryService, RepeatedDenseRankBuildsNoLevels) {
  QueryService svc;  // The default cache holds the range tree easily.
  svc.RegisterTable("t", test::MakeRandomTable(20000, 19, 4));
  const std::string sql =
      "select dense_rank(order by val) over (partition by grp order by ord "
      "rows between 100 preceding and current row) from t";

  obs::CounterDeltaTracker delta;
  StatusOr<QueryResult> cold = svc.Query(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(delta.DeltaOf(obs::Counter::kMstLevelsBuilt), 0u);
  EXPECT_GT(cold->profile->phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);

  delta.Rebase();
  StatusOr<QueryResult> warm = svc.Query(sql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(delta.DeltaOf(obs::Counter::kMstLevelsBuilt), 0u);
  EXPECT_EQ(warm->profile->phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);
  ExpectBitIdentical(warm->table.column(0), cold->table.column(0),
                     "cached dense_rank");
}

TEST(QueryService, ReRegisteringATableInvalidatesItsCacheKey) {
  QueryService svc;
  svc.RegisterTable("t", test::MakeRandomTable(5000, 17, 1));
  const std::string sql =
      "select sum(val) over (order by ord rows between 10 preceding and "
      "current row) from t";
  StatusOr<QueryResult> before = svc.Query(sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Same name, different rows: the epoch changes, so the cached artifacts
  // of the old version must not be reused.
  Table replacement = test::MakeRandomTable(5000, 18, 1);
  svc.RegisterTable("t", test::MakeRandomTable(5000, 18, 1));
  StatusOr<QueryResult> after = svc.Query(sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  StatusOr<PlannedQuery> plan = PlanQuery(sql, replacement);
  ASSERT_TRUE(plan.ok());
  ThreadPool serial(-1);
  StatusOr<std::vector<Column>> direct = EvaluateWindowFunctions(
      replacement, plan->groups[0].spec, plan->groups[0].calls, {}, serial);
  ASSERT_TRUE(direct.ok());
  ExpectBitIdentical(after->table.column(0), (*direct)[0],
                     "post-replacement");
}

TEST(QueryService, EightConcurrentSessionsMatchSerialExecution) {
  const Table table = test::MakeRandomTable(30000, 21);
  const std::vector<std::string> queries = {
      "select sum(val) over (partition by grp order by ord rows between 3 "
      "preceding and 2 following) from t",
      "select count(distinct name) over (order by ord, val rows between 10 "
      "preceding and current row) from t",
      "select rank(order by price desc) over (partition by grp order by ord "
      "groups between 2 preceding and 2 following) from t",
      "select median(price) over (order by ord rows between 20 preceding and "
      "current row exclude group) from t",
      "select first_value(name) ignore nulls over (order by ord rows between "
      "5 preceding and 5 following exclude current row) from t",
      "select lead(val, 2) over (order by ord rows between unbounded "
      "preceding and unbounded following) from t",
      "select dense_rank() over (order by ord rows between 15 preceding and "
      "current row) from t",
      "select cume_dist() over (partition by grp order by val rows between 4 "
      "preceding and 4 following) from t",
  };

  // Serial reference results, computed outside the service.
  ThreadPool serial(-1);
  std::vector<Column> expected;
  for (const std::string& sql : queries) {
    StatusOr<PlannedQuery> plan = PlanQuery(sql, table);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    ASSERT_EQ(plan->groups.size(), 1u);
    StatusOr<std::vector<Column>> direct = EvaluateWindowFunctions(
        table, plan->groups[0].spec, plan->groups[0].calls, {}, serial);
    ASSERT_TRUE(direct.ok()) << sql << ": " << direct.status().ToString();
    expected.push_back(std::move((*direct)[0]));
  }

  ServiceOptions options;
  options.num_sessions = 8;
  options.max_queued = 64;
  QueryService svc(options);
  svc.RegisterTable("t", test::MakeRandomTable(30000, 21));

  // All eight queries submitted concurrently from eight client threads,
  // twice (the second wave hits the tree cache).
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::thread> clients;
    std::vector<StatusOr<QueryResult>> results(
        queries.size(), StatusOr<QueryResult>(Status::Internal("unset")));
    for (size_t q = 0; q < queries.size(); ++q) {
      clients.emplace_back([&, q] { results[q] = svc.Query(queries[q]); });
    }
    for (std::thread& t : clients) t.join();
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(results[q].ok())
          << "wave " << wave << " query " << q << ": "
          << results[q].status().ToString();
      ExpectBitIdentical(results[q]->table.column(0), expected[q],
                         "wave " + std::to_string(wave) + " query " +
                             std::to_string(q));
    }
  }
}

// Satellite: two executors sharing one ThreadPool from different threads
// must produce bit-identical results to serial execution.
TEST(ConcurrentExecutors, TwoExecutorsOnSharedPoolMatchSerial) {
  const Table table = test::MakeRandomTable(20000, 31);

  WindowSpec spec_a;
  spec_a.partition_by = {table.MustColumnIndex("grp")};
  spec_a.order_by = {SortKey{table.MustColumnIndex("ord"), true, false}};
  spec_a.frame.begin = FrameBound::Preceding(7);
  spec_a.frame.end = FrameBound::CurrentRow();
  WindowFunctionCall call_a;
  call_a.kind = WindowFunctionKind::kPercentileDisc;
  call_a.argument = table.MustColumnIndex("price");
  call_a.fraction = 0.25;

  WindowSpec spec_b;
  spec_b.order_by = {SortKey{table.MustColumnIndex("val"), true, false}};
  spec_b.frame.begin = FrameBound::Preceding(50);
  spec_b.frame.end = FrameBound::Following(50);
  WindowFunctionCall call_b;
  call_b.kind = WindowFunctionKind::kCountDistinct;
  call_b.argument = table.MustColumnIndex("name");

  ThreadPool serial(-1);
  StatusOr<Column> serial_a =
      EvaluateWindowFunction(table, spec_a, call_a, {}, serial);
  StatusOr<Column> serial_b =
      EvaluateWindowFunction(table, spec_b, call_b, {}, serial);
  ASSERT_TRUE(serial_a.ok()) << serial_a.status().ToString();
  ASSERT_TRUE(serial_b.ok()) << serial_b.status().ToString();

  ThreadPool shared(4);
  for (int round = 0; round < 5; ++round) {
    StatusOr<Column> result_a = Status::Internal("unset");
    StatusOr<Column> result_b = Status::Internal("unset");
    std::thread ta([&] {
      result_a = EvaluateWindowFunction(table, spec_a, call_a, {}, shared);
    });
    std::thread tb([&] {
      result_b = EvaluateWindowFunction(table, spec_b, call_b, {}, shared);
    });
    ta.join();
    tb.join();
    ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
    ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();
    ExpectBitIdentical(*result_a, *serial_a,
                       "executor A round " + std::to_string(round));
    ExpectBitIdentical(*result_b, *serial_b,
                       "executor B round " + std::to_string(round));
  }
}

// ---------------------------------------------------------------------------
// Result formatting
// ---------------------------------------------------------------------------

TEST(ResultFormat, JsonEscapesAndRendersNulls) {
  Column s(DataType::kString);
  s.AppendString("plain");
  s.AppendString("q\"uote\nline");
  s.AppendNull();
  Column d(DataType::kDouble);
  d.AppendDouble(1.5);
  d.AppendDouble(-0.25);
  d.AppendNull();
  Table table;
  table.AddColumn("s", std::move(s));
  table.AddColumn("d", std::move(d));
  const std::string json =
      service::FormatTable(table, service::ResultFormat::kJson);
  EXPECT_EQ(json,
            "{\"columns\":[\"s\",\"d\"],\"rows\":[[\"plain\",1.5],"
            "[\"q\\\"uote\\nline\",-0.25],[null,null]]}\n");
}

TEST(ResultFormat, ExitCodesAreDistinctPerStatusCode) {
  EXPECT_EQ(service::ExitCodeForStatus(Status::OK()), 0);
  EXPECT_EQ(service::ExitCodeForStatus(Status::InvalidArgument("x")), 3);
  EXPECT_EQ(service::ExitCodeForStatus(Status::OutOfRange("x")), 4);
  EXPECT_EQ(service::ExitCodeForStatus(Status::NotImplemented("x")), 5);
  EXPECT_EQ(service::ExitCodeForStatus(Status::TypeMismatch("x")), 6);
  EXPECT_EQ(service::ExitCodeForStatus(Status::Internal("x")), 7);
  EXPECT_EQ(service::ExitCodeForStatus(Status::ResourceExhausted("x")), 8);
  EXPECT_EQ(service::ExitCodeForStatus(Status::Cancelled("x")), 9);
  EXPECT_EQ(service::ExitCodeForStatus(Status::DeadlineExceeded("x")), 10);
}

}  // namespace
}  // namespace hwf
