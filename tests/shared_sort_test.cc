#include "window/shared_sort.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mst/tree_cache.h"
#include "obs/counters.h"
#include "tests/window_test_util.h"
#include "window/executor.h"

namespace hwf {
namespace {

using test::MakeRandomTable;

WindowSpec Spec(std::vector<size_t> partition_by, std::vector<SortKey> order_by,
                FrameSpec frame = {}) {
  WindowSpec spec;
  spec.partition_by = std::move(partition_by);
  spec.order_by = std::move(order_by);
  spec.frame = frame;
  return spec;
}

FrameSpec RowsFrame(FrameBound begin, FrameBound end) {
  FrameSpec frame;
  frame.mode = FrameMode::kRows;
  frame.begin = begin;
  frame.end = end;
  return frame;
}

// ---------------------------------------------------------------------------
// Coverage rules
// ---------------------------------------------------------------------------

TEST(OrderingCovers, PrefixOfLongerOrderingIsCovered) {
  WindowSpec producer = Spec({0}, {SortKey{1, true, false},
                                   SortKey{2, true, false}});
  WindowSpec consumer = Spec({0}, {SortKey{1, true, false}});
  EXPECT_TRUE(OrderingCovers(producer, consumer));
  // The converse needs keys the producer never sorted by.
  EXPECT_FALSE(OrderingCovers(consumer, producer));
  // The empty ORDER BY is a prefix of everything (same partition set).
  EXPECT_TRUE(OrderingCovers(producer, Spec({0}, {})));
}

TEST(OrderingCovers, ExactOrderingWithPermutedPartitionColumns) {
  WindowSpec a = Spec({0, 5}, {SortKey{1, true, false}});
  WindowSpec b = Spec({5, 0}, {SortKey{1, true, false}});
  EXPECT_TRUE(OrderingCovers(a, b));
  EXPECT_TRUE(OrderingCovers(b, a));
  // Duplicated partition columns dedup to the same set.
  EXPECT_TRUE(OrderingCovers(a, Spec({0, 5, 0}, {SortKey{1, true, false}})));
}

TEST(OrderingCovers, DirectionMismatchIsNotCovered) {
  WindowSpec asc = Spec({0}, {SortKey{1, true, false}});
  WindowSpec desc = Spec({0}, {SortKey{1, false, false}});
  EXPECT_FALSE(OrderingCovers(asc, desc));
  EXPECT_FALSE(OrderingCovers(desc, asc));
}

TEST(OrderingCovers, NullPlacementMismatchIsNotCovered) {
  WindowSpec nulls_last = Spec({0}, {SortKey{1, true, false}});
  WindowSpec nulls_first = Spec({0}, {SortKey{1, true, true}});
  EXPECT_FALSE(OrderingCovers(nulls_last, nulls_first));
}

TEST(OrderingCovers, DifferentPartitionSetsAreNotCovered) {
  WindowSpec by_grp = Spec({0}, {SortKey{1, true, false}});
  WindowSpec by_flag = Spec({5}, {SortKey{1, true, false}});
  WindowSpec by_both = Spec({0, 5}, {SortKey{1, true, false}});
  EXPECT_FALSE(OrderingCovers(by_grp, by_flag));
  EXPECT_FALSE(OrderingCovers(by_both, by_grp));
  EXPECT_FALSE(OrderingCovers(by_grp, by_both));
}

TEST(OrderingKeyTest, CanonicalAcrossPartitionPermutations) {
  const std::string key = OrderingKey(Spec({0, 5}, {SortKey{1, true, false}}));
  EXPECT_EQ(key, OrderingKey(Spec({5, 0}, {SortKey{1, true, false}})));
  EXPECT_EQ(key, OrderingKey(Spec({5, 0, 5}, {SortKey{1, true, false}})));
  EXPECT_NE(key, OrderingKey(Spec({0}, {SortKey{1, true, false}})));
  EXPECT_NE(key, OrderingKey(Spec({0, 5}, {SortKey{1, false, false}})));
  EXPECT_NE(key, OrderingKey(Spec({0, 5}, {SortKey{1, true, true}})));
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

TEST(PlanSharedSorts, FinerOrderingProducesForItsPrefixes) {
  // Input order puts the coarser specs first: the planner must still pick
  // the finest ordering as the producer.
  WindowSpec coarse = Spec({0}, {});
  WindowSpec mid = Spec({0}, {SortKey{1, true, false}});
  WindowSpec fine = Spec({0}, {SortKey{1, true, false},
                               SortKey{2, true, false}});
  std::vector<const WindowSpec*> specs = {&coarse, &mid, &fine};
  SharedSortPlan plan = PlanSharedSorts(specs);
  EXPECT_EQ(plan.num_producers, 1u);
  EXPECT_TRUE(plan.IsProducer(2));
  EXPECT_EQ(plan.producer[0], 2u);
  EXPECT_EQ(plan.producer[1], 2u);
  EXPECT_EQ(plan.reuse[0], SharedSortPlan::Reuse::kPrefix);
  EXPECT_EQ(plan.reuse[1], SharedSortPlan::Reuse::kPrefix);
  // Producers always precede their consumers in the sequence.
  EXPECT_EQ(plan.sequence.front(), 2u);
  EXPECT_EQ(plan.sequence.size(), 3u);
}

TEST(PlanSharedSorts, MixedCompatibleAndIncompatibleSpecs) {
  WindowSpec a = Spec({0}, {SortKey{1, true, false}});         // producer
  WindowSpec b = Spec({0}, {SortKey{1, true, false}},          // exact of a
                      RowsFrame(FrameBound::Preceding(3), FrameBound::CurrentRow()));
  WindowSpec c = Spec({0}, {SortKey{1, false, false}});        // desc: own sort
  WindowSpec d = Spec({5}, {SortKey{1, true, false}});         // other partition
  std::vector<const WindowSpec*> specs = {&a, &b, &c, &d};
  SharedSortPlan plan = PlanSharedSorts(specs);
  EXPECT_EQ(plan.num_producers, 3u);
  EXPECT_EQ(plan.producer[1], 0u);
  EXPECT_EQ(plan.reuse[1], SharedSortPlan::Reuse::kExact);
  EXPECT_TRUE(plan.IsProducer(0));
  EXPECT_TRUE(plan.IsProducer(2));
  EXPECT_TRUE(plan.IsProducer(3));

  const std::string text = plan.Describe(specs);
  EXPECT_NE(text.find("sort#0 <- spec#0"), std::string::npos) << text;
  EXPECT_NE(text.find("covers spec#1 (exact)"), std::string::npos) << text;
}

TEST(PlanSharedSorts, PartitionPermutationReusesVerbatim) {
  WindowSpec a = Spec({0, 5}, {SortKey{1, true, false}});
  WindowSpec b = Spec({5, 0}, {SortKey{1, true, false}});
  std::vector<const WindowSpec*> specs = {&a, &b};
  SharedSortPlan plan = PlanSharedSorts(specs);
  EXPECT_EQ(plan.num_producers, 1u);
  EXPECT_EQ(plan.reuse[1], SharedSortPlan::Reuse::kExact);
}

// ---------------------------------------------------------------------------
// WindowSpec canonical equality + hashing (window/spec.h)
// ---------------------------------------------------------------------------

TEST(WindowSpecEquality, HashAgreesWithEquality) {
  WindowSpec a = Spec({0}, {SortKey{1, true, false}},
                      RowsFrame(FrameBound::Preceding(5), FrameBound::CurrentRow()));
  WindowSpec b = a;
  WindowSpecHash hash;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(hash(a), hash(b));

  b.frame.begin = FrameBound::Preceding(6);
  EXPECT_FALSE(a == b);
  b = a;
  b.order_by[0].nulls_first = true;
  EXPECT_FALSE(a == b);

  // The parser's grouping structure: structurally equal specs collapse to
  // one group.
  std::unordered_map<WindowSpec, int, WindowSpecHash> groups;
  ++groups[a];
  WindowSpec a_copy = a;
  ++groups[a_copy];
  b.order_by[0].nulls_first = false;
  b.order_by[0].ascending = false;
  ++groups[b];
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[a], 2);
}

// ---------------------------------------------------------------------------
// Differential: multi-spec execution is bit-identical to per-spec
// ---------------------------------------------------------------------------

/// Exact equality, doubles compared bit-for-bit: shared and derived sorts
/// must reproduce the independent execution exactly, not approximately.
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

struct SpecAndCalls {
  WindowSpec spec;
  std::vector<WindowFunctionCall> calls;
};

WindowFunctionCall Call(WindowFunctionKind kind,
                        std::optional<size_t> argument = std::nullopt,
                        std::vector<SortKey> order_by = {}) {
  WindowFunctionCall call;
  call.kind = kind;
  call.argument = argument;
  call.order_by = std::move(order_by);
  return call;
}

/// A mixed workload: one fine producer, prefix and exact consumers, a
/// permuted-partition consumer, and two incompatible specs that need their
/// own sorts.
std::vector<SpecAndCalls> MixedWorkload() {
  std::vector<SpecAndCalls> workload;
  workload.push_back({Spec({0}, {SortKey{1, true, false}}),
                      {Call(WindowFunctionKind::kSum, 2),
                       Call(WindowFunctionKind::kRank)}});
  workload.push_back(
      {Spec({0}, {SortKey{1, true, false}, SortKey{2, true, false}}),
       {Call(WindowFunctionKind::kCountDistinct, 2)}});
  workload.push_back(
      {Spec({0}, {SortKey{1, true, false}},
            RowsFrame(FrameBound::Preceding(9), FrameBound::CurrentRow())),
       {Call(WindowFunctionKind::kMedian, 3)}});
  workload.push_back({Spec({0, 5}, {SortKey{1, true, false}}),
                      {Call(WindowFunctionKind::kCount, 2)}});
  workload.push_back({Spec({5, 0}, {SortKey{1, true, false}}),
                      {Call(WindowFunctionKind::kSum, 3)}});
  workload.push_back({Spec({0}, {SortKey{1, false, true}}),
                      {Call(WindowFunctionKind::kRowNumber)}});
  workload.push_back({Spec({5}, {SortKey{3, true, false}}),
                      {Call(WindowFunctionKind::kMax, 2)}});
  return workload;
}

void ExpectMultiSpecMatchesPerSpec(const Table& table,
                                   const std::vector<SpecAndCalls>& workload,
                                   const WindowExecutorOptions& multi_options,
                                   const WindowExecutorOptions& single_options,
                                   const std::string& context) {
  std::vector<WindowSpecGroup> groups;
  groups.reserve(workload.size());
  for (const SpecAndCalls& entry : workload) {
    groups.push_back(WindowSpecGroup{&entry.spec, entry.calls});
  }
  StatusOr<std::vector<std::vector<Column>>> multi =
      EvaluateWindowSpecGroups(table, groups, multi_options);
  ASSERT_TRUE(multi.ok()) << context << ": " << multi.status().ToString();
  ASSERT_EQ(multi->size(), workload.size());

  for (size_t g = 0; g < workload.size(); ++g) {
    StatusOr<std::vector<Column>> single = EvaluateWindowFunctions(
        table, workload[g].spec, workload[g].calls, single_options);
    ASSERT_TRUE(single.ok()) << context << ": " << single.status().ToString();
    ASSERT_EQ((*multi)[g].size(), single->size());
    for (size_t c = 0; c < single->size(); ++c) {
      ExpectBitIdentical((*multi)[g][c], (*single)[c],
                         context + " group " + std::to_string(g) + " call " +
                             std::to_string(c));
    }
  }
}

TEST(SharedSortExecution, MultiSpecBitIdenticalToPerSpec) {
  Table table = MakeRandomTable(6000, 41);
  const obs::CounterDeltaTracker delta;
  ExpectMultiSpecMatchesPerSpec(table, MixedWorkload(), {}, {}, "mixed");
  // The workload plans to 4 producers over 7 specs: the finest
  // (grp; ord, val) spec covers specs 0 and 2 by prefix, the {0,5}/{5,0}
  // pair shares one sort verbatim, and the desc-ordered and
  // flag-partitioned specs pay their own. That is 3 reuses, one exact.
  EXPECT_GE(delta.DeltaOf(obs::Counter::kExecutorSortsShared), 3u);
  EXPECT_GE(delta.DeltaOf(obs::Counter::kExecutorSortsElided), 1u);
}

TEST(SharedSortExecution, SingleGroupWrapperUnchanged) {
  Table table = MakeRandomTable(2000, 7);
  SpecAndCalls entry{Spec({0}, {SortKey{1, true, false}}),
                     {Call(WindowFunctionKind::kSum, 2)}};
  const obs::CounterDeltaTracker delta;
  StatusOr<std::vector<Column>> result =
      EvaluateWindowFunctions(table, entry.spec, entry.calls);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One spec: nothing to share.
  EXPECT_EQ(delta.DeltaOf(obs::Counter::kExecutorSortsShared), 0u);
}

TEST(SharedSortExecution, ForcedHashPartitioningBitIdentical) {
  Table table = MakeRandomTable(6000, 43, /*partitions=*/300);
  WindowExecutorOptions hash;
  hash.hash_partition = HashPartitionMode::kForce;
  WindowExecutorOptions global;
  global.hash_partition = HashPartitionMode::kOff;
  const obs::CounterDeltaTracker delta;
  ExpectMultiSpecMatchesPerSpec(table, MixedWorkload(), hash, global,
                                "forced-hash");
  EXPECT_GT(delta.DeltaOf(obs::Counter::kExecutorHashPartitionedRows), 0u);
}

TEST(SharedSortExecution, AutoHashEngagesOnHighCardinality) {
  // ~n/4 partitions of ~4 rows each: far past the kAuto thresholds.
  const size_t n = 20000;
  Column part(DataType::kInt64);
  Column val(DataType::kInt64);
  Pcg32 rng(17);
  for (size_t i = 0; i < n; ++i) {
    part.AppendInt64(static_cast<int64_t>(i / 4));
    val.AppendInt64(static_cast<int64_t>(rng.Bounded(1000)));
  }
  Table table;
  table.AddColumn("part", std::move(part));
  table.AddColumn("val", std::move(val));

  WindowSpec spec = Spec({0}, {SortKey{1, true, false}});
  std::vector<WindowFunctionCall> calls = {Call(WindowFunctionKind::kSum, 1)};
  WindowSpecGroup group{&spec, calls};

  WindowExecutorOptions auto_opts;  // kAuto is the default
  const obs::CounterDeltaTracker delta;
  StatusOr<std::vector<std::vector<Column>>> hashed =
      EvaluateWindowSpecGroups(table, {&group, 1}, auto_opts);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(delta.DeltaOf(obs::Counter::kExecutorHashPartitionedRows), n);

  WindowExecutorOptions off;
  off.hash_partition = HashPartitionMode::kOff;
  StatusOr<std::vector<std::vector<Column>>> global =
      EvaluateWindowSpecGroups(table, {&group, 1}, off);
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  ExpectBitIdentical((*hashed)[0][0], (*global)[0][0], "auto-hash");
}

TEST(SharedSortExecution, AutoHashDeclinesLowCardinality) {
  // 3 partitions: the estimator must keep the global sort.
  Table table = MakeRandomTable(20000, 19, /*partitions=*/3);
  WindowSpec spec = Spec({0}, {SortKey{1, true, false}});
  std::vector<WindowFunctionCall> calls = {Call(WindowFunctionKind::kSum, 2)};
  WindowSpecGroup group{&spec, calls};
  const obs::CounterDeltaTracker delta;
  StatusOr<std::vector<std::vector<Column>>> result =
      EvaluateWindowSpecGroups(table, {&group, 1}, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(delta.DeltaOf(obs::Counter::kExecutorHashPartitionedRows), 0u);
}

TEST(SharedSortExecution, ForcedSpillBitIdentical) {
  Table table = MakeRandomTable(6000, 47);
  // Above the irreducible floor (n*8 + 64K = 112K) but tight enough to
  // push the sorts through the budgeted/spill paths; the hash partitioner
  // must fall back gracefully when its scratch does not fit.
  WindowExecutorOptions budgeted;
  budgeted.memory_limit_bytes = 192 << 10;
  budgeted.hash_partition = HashPartitionMode::kForce;
  ExpectMultiSpecMatchesPerSpec(table, MixedWorkload(), budgeted, {},
                                "forced-spill");
}

/// Warms the base table's sort artifacts, then runs `workload` on `full`
/// (base plus appended rows) in the ingest delta state: every cached base
/// artifact is merged with the sorted delta, and results must equal a cold
/// run bit for bit.
void ExpectDeltaStateMatchesCold(const Table& base, const Table& full,
                                 const std::vector<SpecAndCalls>& workload,
                                 const std::string& context) {
  const size_t base_rows = base.num_rows();
  mst::TreeCache cache(64 << 20);
  WindowExecutorOptions warm;
  warm.tree_cache = &cache;
  warm.cache_key = "c.n" + std::to_string(base_rows);
  warm.content_cache_key = "c";

  std::vector<WindowSpecGroup> groups;
  for (const SpecAndCalls& entry : workload) {
    groups.push_back(WindowSpecGroup{&entry.spec, entry.calls});
  }
  // Warm the base state's sort artifacts.
  StatusOr<std::vector<std::vector<Column>>> warmed =
      EvaluateWindowSpecGroups(base, groups, warm);
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();

  WindowExecutorOptions delta = warm;
  delta.cache_key = "c.n" + std::to_string(full.num_rows());
  delta.delta_base_rows = base_rows;
  delta.delta_base_key = warm.cache_key;
  const obs::CounterDeltaTracker tracker;
  ExpectMultiSpecMatchesPerSpec(full, workload, delta, {}, context);
  EXPECT_GT(tracker.DeltaOf(obs::Counter::kIngestDeltaMerges), 0u);
}

TEST(SharedSortExecution, IngestDeltaStateBitIdentical) {
  // Same seed => MakeRandomTable(base) is a row-wise prefix of the full
  // table, exactly the service's append pattern.
  ExpectDeltaStateMatchesCold(MakeRandomTable(4000, 53),
                              MakeRandomTable(6000, 53), MixedWorkload(),
                              "ingest-delta");
}

// MakeSpecialKeyTable schema.
constexpr size_t kSpD = 0;
constexpr size_t kSpI = 1;
constexpr size_t kSpS = 2;
constexpr size_t kSpV = 3;
constexpr size_t kSpW = 4;

/// Specs keyed on NaNs, +-inf, +-0.0, INT64_MIN/MAX, the empty string and
/// NULLs: partitioned by a double, a string and two columns, ordered in
/// every direction and NULL placement, with prefix and exact consumers.
/// FIRST_VALUE and LAG appear in the frame order (positional) and with a
/// function ORDER BY of their own (selection tree).
std::vector<SpecAndCalls> SpecialKeyWorkload() {
  std::vector<SpecAndCalls> workload;
  workload.push_back({Spec({kSpD}, {SortKey{kSpD, true, false}}),
                      {Call(WindowFunctionKind::kSum, kSpV),
                       Call(WindowFunctionKind::kRank)}});
  workload.push_back(
      {Spec({kSpD}, {SortKey{kSpD, true, false}, SortKey{kSpI, false, true}}),
       {Call(WindowFunctionKind::kCountDistinct, kSpS)}});
  workload.push_back({Spec({kSpS, kSpI}, {SortKey{kSpW, true, false}}),
                      {Call(WindowFunctionKind::kRowNumber)}});
  workload.push_back({Spec({kSpI, kSpS}, {SortKey{kSpW, true, false}}),
                      {Call(WindowFunctionKind::kMedian, kSpW)}});
  workload.push_back({Spec({kSpS}, {SortKey{kSpI, true, true}}),
                      {Call(WindowFunctionKind::kFirstValue, kSpV),
                       Call(WindowFunctionKind::kFirstValue, kSpV,
                            {SortKey{kSpW, false, true}}),
                       Call(WindowFunctionKind::kDenseRank)}});
  workload.push_back({Spec({kSpD, kSpI}, {SortKey{kSpS, false, false},
                                          SortKey{kSpD, false, true}}),
                      {Call(WindowFunctionKind::kLag, kSpV),
                       Call(WindowFunctionKind::kLag, kSpV,
                            {SortKey{kSpD, true, false}})}});
  workload.push_back({Spec({}, {SortKey{kSpI, false, false}}),
                      {Call(WindowFunctionKind::kCumeDist)}});
  return workload;
}

TEST(SharedSortExecution, SpecialKeysForcedHashBitIdentical) {
  Table table = test::MakeSpecialKeyTable(4000, 61);
  WindowExecutorOptions hash;
  hash.hash_partition = HashPartitionMode::kForce;
  WindowExecutorOptions global;
  global.hash_partition = HashPartitionMode::kOff;
  const obs::CounterDeltaTracker delta;
  ExpectMultiSpecMatchesPerSpec(table, SpecialKeyWorkload(), hash, global,
                                "special-keys forced-hash");
  EXPECT_GT(delta.DeltaOf(obs::Counter::kExecutorHashPartitionedRows), 0u);
}

TEST(SharedSortExecution, SpecialKeysIngestDeltaStateBitIdentical) {
  ExpectDeltaStateMatchesCold(test::MakeSpecialKeyTable(3000, 67),
                              test::MakeSpecialKeyTable(4500, 67),
                              SpecialKeyWorkload(), "special-keys delta");
}

}  // namespace
}  // namespace hwf
