// Tests for the streaming-ingest subsystem: delta-table buffering, catalog
// version-counter semantics, delta-merged sort artifacts, background
// compaction, dead-epoch cache GC and concurrent mutation safety. The
// load-bearing property throughout is bit-identity: a query over a table
// grown by APPEND/UPSERT must return exactly the bytes a cold re-register
// of the combined rows would.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "ingest/delta_table.h"
#include "obs/counters.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "service/catalog.h"
#include "service/service.h"
#include "service/sql_parser.h"
#include "tests/window_test_util.h"
#include "window/executor.h"

namespace hwf {
namespace {

using ingest::DeltaTable;
using ingest::UpsertStats;
using service::Catalog;
using service::PlannedQuery;
using service::PlanQuery;
using service::QueryResult;
using service::QueryService;
using service::ServiceOptions;

// This suite asserts on cache behavior (probe-only warm queries, delta
// merges); the forced-spill CI job's HWF_TEST_MEMORY_LIMIT would budget
// every uncached execution as well. The forced-spill differential below
// opts into a budget explicitly.
const bool g_env_cleared = [] {
  unsetenv("HWF_TEST_MEMORY_LIMIT");
  return true;
}();

/// Exact equality, doubles bit-for-bit: the ingest path claims determinism
/// against a cold rebuild, not approximation.
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

void AppendValue(Column* dst, const Column& src, size_t row) {
  if (src.IsNull(row)) {
    dst->AppendNull();
    return;
  }
  switch (src.type()) {
    case DataType::kInt64:
      dst->AppendInt64(src.GetInt64(row));
      break;
    case DataType::kDouble:
      dst->AppendDouble(src.GetDouble(row));
      break;
    case DataType::kString:
      dst->AppendString(src.GetString(row));
      break;
  }
}

/// The rows of `a` followed by the rows of `b` — the cold-rebuild reference
/// for an append.
Table Concat(const Table& a, const Table& b) {
  Table out;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    Column column(a.column(c).type());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      AppendValue(&column, a.column(c), r);
    }
    for (size_t r = 0; r < b.num_rows(); ++r) {
      AppendValue(&column, b.column(c), r);
    }
    out.AddColumn(a.column_name(c), std::move(column));
  }
  return out;
}

Table CopyTable(const Table& a) {
  Table empty;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    empty.AddColumn(a.column_name(c), Column(a.column(c).type()));
  }
  return Concat(a, empty);
}

/// Serial reference evaluation of single-group SQL against `table`.
Column SerialReference(const std::string& sql, const Table& table) {
  StatusOr<PlannedQuery> plan = PlanQuery(sql, table);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  ThreadPool serial(-1);
  StatusOr<std::vector<Column>> direct = EvaluateWindowFunctions(
      table, plan->groups[0].spec, plan->groups[0].calls, {}, serial);
  EXPECT_TRUE(direct.ok()) << sql << ": " << direct.status().ToString();
  return std::move((*direct)[0]);
}

/// A small keyed table: unique int64 key `k`, payload `v`.
Table MakeKeyed(const std::vector<int64_t>& keys,
                const std::vector<int64_t>& values) {
  Column k(DataType::kInt64);
  Column v(DataType::kInt64);
  for (size_t i = 0; i < keys.size(); ++i) {
    k.AppendInt64(keys[i]);
    v.AppendInt64(values[i]);
  }
  Table t;
  t.AddColumn("k", std::move(k));
  t.AddColumn("v", std::move(v));
  return t;
}

// ---------------------------------------------------------------------------
// DeltaTable: buffering, coercion, keyed upsert
// ---------------------------------------------------------------------------

TEST(DeltaTable, AppendBuffersAndMaterializeCombines) {
  auto base = std::make_shared<const Table>(MakeKeyed({1, 2, 3}, {10, 20, 30}));
  DeltaTable delta(base, DeltaTable::kNoKeyColumn);
  EXPECT_TRUE(delta.empty());
  ASSERT_TRUE(delta.Append(MakeKeyed({4, 5}, {40, 50})).ok());
  EXPECT_EQ(delta.base_rows(), 3u);
  EXPECT_EQ(delta.delta_rows(), 2u);
  EXPECT_FALSE(delta.empty());

  StatusOr<std::shared_ptr<const Table>> combined = delta.Materialize();
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  ASSERT_EQ((*combined)->num_rows(), 5u);
  const Column& k = (*combined)->column(0);
  const Column& v = (*combined)->column(1);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(k.GetInt64(i), static_cast<int64_t>(i + 1));
    EXPECT_EQ(v.GetInt64(i), static_cast<int64_t>(10 * (i + 1)));
  }
}

TEST(DeltaTable, AppendEnforcesSchemaAndCoercesIntIntoDouble) {
  Table base_t;
  {
    Column a(DataType::kInt64);
    a.AppendInt64(1);
    Column b(DataType::kDouble);
    b.AppendDouble(0.5);
    base_t.AddColumn("a", std::move(a));
    base_t.AddColumn("b", std::move(b));
  }
  DeltaTable delta(std::make_shared<const Table>(std::move(base_t)),
                   DeltaTable::kNoKeyColumn);

  // CSV inference reads "2" as int64; it must coerce into the double
  // column rather than be rejected.
  Table coercible;
  {
    Column a(DataType::kInt64);
    a.AppendInt64(2);
    Column b(DataType::kInt64);
    b.AppendInt64(3);
    coercible.AddColumn("a", std::move(a));
    coercible.AddColumn("b", std::move(b));
  }
  ASSERT_TRUE(delta.Append(coercible).ok());
  StatusOr<std::shared_ptr<const Table>> combined = delta.Materialize();
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ((*combined)->column(1).type(), DataType::kDouble);
  EXPECT_EQ((*combined)->column(1).GetDouble(1), 3.0);

  // Missing column and type mismatch the other way are both rejected.
  Table missing;
  {
    Column a(DataType::kInt64);
    a.AppendInt64(9);
    missing.AddColumn("a", std::move(a));
  }
  EXPECT_FALSE(delta.Append(missing).ok());
  Table wrong_type;
  {
    Column a(DataType::kString);
    a.AppendString("x");
    Column b(DataType::kDouble);
    b.AppendDouble(1.0);
    wrong_type.AddColumn("a", std::move(a));
    wrong_type.AddColumn("b", std::move(b));
  }
  EXPECT_FALSE(delta.Append(wrong_type).ok());
}

TEST(DeltaTable, UpsertRewritesBaseAndDeltaRowsInPlace) {
  auto base = std::make_shared<const Table>(MakeKeyed({1, 2, 3}, {10, 20, 30}));
  DeltaTable delta(base, /*key_column=*/0);

  // Key 2 exists in the base (in-place rewrite), key 4 is new (append).
  StatusOr<UpsertStats> first = delta.Upsert(MakeKeyed({2, 4}, {99, 40}));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->appended, 1u);
  EXPECT_EQ(first->updated_base, 1u);
  EXPECT_EQ(first->updated_delta, 0u);
  EXPECT_TRUE(first->rewrote_existing());

  // Key 4 now lives in the delta; rewriting it must not grow the table.
  StatusOr<UpsertStats> second = delta.Upsert(MakeKeyed({4}, {44}));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->appended, 0u);
  EXPECT_EQ(second->updated_delta, 1u);
  EXPECT_FALSE(second->rewrote_existing() &&
               second->updated_base > 0);  // delta rewrite only

  StatusOr<std::shared_ptr<const Table>> combined = delta.Materialize();
  ASSERT_TRUE(combined.ok());
  ASSERT_EQ((*combined)->num_rows(), 4u);
  const Column& v = (*combined)->column(1);
  EXPECT_EQ(v.GetInt64(0), 10);
  EXPECT_EQ(v.GetInt64(1), 99);  // base override applied at materialization
  EXPECT_EQ(v.GetInt64(2), 30);
  EXPECT_EQ(v.GetInt64(3), 44);  // delta row rewritten directly
}

TEST(DeltaTable, UpsertRequiresKeyAndRejectsNullKeys) {
  auto base = std::make_shared<const Table>(MakeKeyed({1}, {10}));
  DeltaTable unkeyed(base, DeltaTable::kNoKeyColumn);
  EXPECT_FALSE(unkeyed.Upsert(MakeKeyed({1}, {11})).ok());

  DeltaTable keyed(base, /*key_column=*/0);
  Table null_key;
  {
    Column k(DataType::kInt64);
    k.AppendNull();
    Column v(DataType::kInt64);
    v.AppendInt64(5);
    null_key.AddColumn("k", std::move(k));
    null_key.AddColumn("v", std::move(v));
  }
  EXPECT_FALSE(keyed.Upsert(null_key).ok());
}

// ---------------------------------------------------------------------------
// Catalog: version-counter semantics across append / upsert / compact
// ---------------------------------------------------------------------------

TEST(CatalogVersioning, AppendBumpsMinorOnlyUpsertBumpsGenCompactNeither) {
  Catalog catalog;
  StatusOr<uint64_t> epoch =
      catalog.RegisterTable("t", MakeKeyed({1, 2, 3}, {10, 20, 30}), "k");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  StatusOr<Catalog::TableMeta> m0 = catalog.PeekMeta("t");
  ASSERT_TRUE(m0.ok());
  EXPECT_EQ(m0->epoch, *epoch);
  EXPECT_EQ(m0->minor, 0u);
  EXPECT_EQ(m0->gen, 0u);
  EXPECT_EQ(m0->key_column, "k");

  // Append: minor bumps; epoch and gen (cache identity) do not.
  StatusOr<Catalog::TableMeta> a = catalog.AppendRows("t", MakeKeyed({4}, {40}));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->epoch, *epoch);
  EXPECT_EQ(a->minor, 1u);
  EXPECT_EQ(a->gen, 0u);
  EXPECT_EQ(a->base_rows, 3u);
  EXPECT_EQ(a->delta_rows, 1u);

  // Upsert of only-new keys is an append in disguise: gen still 0.
  StatusOr<Catalog::TableMeta> u1 = catalog.UpsertRows("t", MakeKeyed({5}, {50}));
  ASSERT_TRUE(u1.ok());
  EXPECT_EQ(u1->gen, 0u);
  EXPECT_EQ(u1->minor, 2u);

  // Upsert hitting a live row rewrites id 1's value: gen must bump.
  StatusOr<Catalog::TableMeta> u2 = catalog.UpsertRows("t", MakeKeyed({2}, {99}));
  ASSERT_TRUE(u2.ok());
  EXPECT_EQ(u2->gen, 1u);
  EXPECT_EQ(u2->minor, 3u);

  // Compaction folds the delta: row ids, epoch, gen all unchanged — it is
  // observationally a no-op, so cached artifacts stay servable.
  StatusOr<Catalog::Snapshot> before = catalog.Lookup("t");
  ASSERT_TRUE(before.ok());
  StatusOr<Catalog::TableMeta> c = catalog.Compact("t");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->epoch, *epoch);
  EXPECT_EQ(c->gen, 1u);
  EXPECT_EQ(c->minor, 4u);
  EXPECT_EQ(c->base_rows, 5u);
  EXPECT_EQ(c->delta_rows, 0u);
  StatusOr<Catalog::Snapshot> after = catalog.Lookup("t");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->table->num_rows(), before->table->num_rows());
  for (size_t col = 0; col < before->table->num_columns(); ++col) {
    ExpectBitIdentical(after->table->column(col), before->table->column(col),
                       "compaction col " + std::to_string(col));
  }

  // Re-registration mints a fresh epoch and resets the other counters.
  uint64_t epoch2 = catalog.RegisterTable("t", MakeKeyed({7}, {70}));
  EXPECT_GT(epoch2, *epoch);
  StatusOr<Catalog::TableMeta> m2 = catalog.PeekMeta("t");
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->minor, 0u);
  EXPECT_EQ(m2->gen, 0u);
}

TEST(CatalogVersioning, LiveEpochsTracksRegistrations) {
  Catalog catalog;
  catalog.RegisterTable("a", MakeKeyed({1}, {1}));
  uint64_t old_b = catalog.RegisterTable("b", MakeKeyed({2}, {2}));
  uint64_t new_b = catalog.RegisterTable("b", MakeKeyed({3}, {3}));
  std::vector<uint64_t> live = catalog.LiveEpochs();
  EXPECT_EQ(live.size(), 2u);
  EXPECT_TRUE(std::find(live.begin(), live.end(), new_b) != live.end());
  EXPECT_TRUE(std::find(live.begin(), live.end(), old_b) == live.end());
  EXPECT_FALSE(catalog.AppendRows("missing", MakeKeyed({1}, {1})).ok());
  EXPECT_FALSE(catalog.UpsertRows("a", MakeKeyed({1}, {9})).ok())
      << "upsert without a declared key column must be rejected";
}

// ---------------------------------------------------------------------------
// Service differential: append + query vs cold re-register, bit-identical
// ---------------------------------------------------------------------------

/// Frames and functions chosen to cover every tree family an appended
/// state rebuilds: holistic selection (percentile/median), distinct
/// aggregation, ranking and plain sums, across ROWS / GROUPS / RANGE
/// frames, partitioned and global, with exclusions.
const std::vector<std::string> kDifferentialSql = {
    "select percentile_disc(0.5 order by val) over (order by ord rows "
    "between 200 preceding and current row) from t",
    "select percentile_cont(0.25 order by price) over (order by ord rows "
    "between 100 preceding and 50 following) from t",
    "select median(price) over (partition by grp order by ord rows between "
    "30 preceding and current row) from t",
    "select sum(val) over (partition by grp order by ord rows between 3 "
    "preceding and 2 following) from t",
    "select count(distinct name) over (order by ord, val rows between 20 "
    "preceding and current row) from t",
    "select rank(order by price desc) over (partition by grp order by ord "
    "groups between 2 preceding and 2 following) from t",
    "select percentile_disc(0.9 order by val) over (order by ord range "
    "between 5 preceding and 5 following) from t",
    "select median(price) over (order by ord rows between 40 preceding and "
    "current row exclude group) from t",
};

/// Queries `svc` (whose table "t" has been grown by appends) and a cold
/// service registered with the combined table, and requires bit-identity.
void ExpectMatchesColdRebuild(QueryService& svc, const Table& combined,
                              const std::string& context) {
  QueryService cold;
  cold.RegisterTable("t", CopyTable(combined));
  for (const std::string& sql : kDifferentialSql) {
    StatusOr<QueryResult> warm = svc.Query(sql);
    ASSERT_TRUE(warm.ok()) << context << ": " << warm.status().ToString();
    StatusOr<QueryResult> rebuilt = cold.Query(sql);
    ASSERT_TRUE(rebuilt.ok()) << context << ": " << rebuilt.status().ToString();
    ExpectBitIdentical(warm->table.column(0), rebuilt->table.column(0),
                       context + " | " + sql);
  }
}

TEST(IngestDifferential, AppendedStateMatchesColdRebuildAcrossFunctions) {
  const Table base = test::MakeRandomTable(20000, 41);
  const Table batch1 = test::MakeRandomTable(700, 42);
  const Table batch2 = test::MakeRandomTable(900, 43);

  ServiceOptions options;
  options.auto_compact = false;  // keep the delta resident for the test
  QueryService svc(options);
  svc.RegisterTable("t", CopyTable(base));

  // Warm the base-state cache first: the post-append queries must be able
  // to reuse these artifacts through the merge paths.
  for (const std::string& sql : kDifferentialSql) {
    ASSERT_TRUE(svc.Query(sql).ok());
  }

  StatusOr<Catalog::TableMeta> meta = svc.AppendRows("t", batch1);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->delta_rows, 700u);
  ExpectMatchesColdRebuild(svc, Concat(base, batch1), "after first append");

  // A second append on top of the already-merged state.
  ASSERT_TRUE(svc.AppendRows("t", batch2).ok());
  ExpectMatchesColdRebuild(svc, Concat(Concat(base, batch1), batch2),
                           "after second append");
}

TEST(IngestDifferential, UpsertedStateMatchesColdRebuild) {
  // Keyed table: upserts rewrite half the base rows and append the rest.
  std::vector<int64_t> keys, values;
  for (int64_t i = 0; i < 8000; ++i) {
    keys.push_back(i);
    values.push_back(i * 7 % 1001);
  }
  QueryService svc;
  StatusOr<uint64_t> epoch =
      svc.RegisterTable("u", MakeKeyed(keys, values), "k");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  const std::string sql =
      "select median(v) over (order by k rows between 99 preceding and "
      "current row) from u";
  ASSERT_TRUE(svc.Query(sql).ok());

  std::vector<int64_t> up_keys, up_values;
  for (int64_t i = 4000; i < 9000; ++i) {  // 4000 rewrites + 1000 appends
    up_keys.push_back(i);
    up_values.push_back(i * 13 % 997);
  }
  StatusOr<Catalog::TableMeta> meta =
      svc.UpsertRows("u", MakeKeyed(up_keys, up_values));
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->gen, 1u) << "rewriting live rows must bump gen";
  EXPECT_EQ(meta->base_rows + meta->delta_rows, 9000u);

  // Reference: the combined state computed by hand.
  std::vector<int64_t> ref_keys = keys, ref_values = values;
  for (size_t i = 0; i < up_keys.size(); ++i) {
    if (up_keys[i] < 8000) {
      ref_values[static_cast<size_t>(up_keys[i])] = up_values[i];
    } else {
      ref_keys.push_back(up_keys[i]);
      ref_values.push_back(up_values[i]);
    }
  }
  const Table reference = MakeKeyed(ref_keys, ref_values);
  StatusOr<QueryResult> warm = svc.Query(sql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectBitIdentical(warm->table.column(0), SerialReference(sql, reference),
                     "post-upsert");
}

TEST(IngestDifferential, ForcedSpillStillMatchesColdRebuild) {
  // A per-query budget routes execution through the spill paths and (by
  // design) disables the tree cache, so the delta-merged sort falls back
  // to a full re-sort — the answer must not change.
  const Table base = test::MakeRandomTable(15000, 47);
  const Table batch = test::MakeRandomTable(600, 48);

  ServiceOptions options;
  options.auto_compact = false;
  options.query_memory_limit_bytes = 4u << 20;
  QueryService svc(options);
  svc.RegisterTable("t", CopyTable(base));
  ASSERT_TRUE(svc.AppendRows("t", batch).ok());

  QueryService cold(options);
  cold.RegisterTable("t", Concat(base, batch));
  for (const std::string& sql : kDifferentialSql) {
    StatusOr<QueryResult> warm = svc.Query(sql);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    StatusOr<QueryResult> rebuilt = cold.Query(sql);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectBitIdentical(warm->table.column(0), rebuilt->table.column(0),
                       "spill | " + sql);
  }
}

// ---------------------------------------------------------------------------
// Warm-path guarantees: probe-only repeats, delta merges
// ---------------------------------------------------------------------------

TEST(IngestWarmPath, AppendKeepsWarmQueriesProbeOnly) {
  ServiceOptions options;
  options.auto_compact = false;
  QueryService svc(options);
  svc.RegisterTable("t", test::MakeRandomTable(50000, 51, 1, 0.1));
  const std::string sql =
      "select percentile_disc(0.5 order by val) over (order by ord rows "
      "between 500 preceding and current row) from t";

  StatusOr<QueryResult> cold = svc.Query(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->profile->phase_seconds(obs::ProfilePhase::kSort), 0.0);
  EXPECT_GT(cold->profile->phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);

  ASSERT_TRUE(svc.AppendRows("t", test::MakeRandomTable(800, 52, 1, 0.1)).ok());

  // First post-append query: the base sort permutation comes from the
  // cache; only the 800 delta rows are sorted (kDeltaMerge) and merged into
  // it, and the selection tree is rebuilt over the combined partition. The
  // full-table sort phase must not run.
  obs::CounterDeltaTracker tracker;
  StatusOr<QueryResult> first = svc.Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->profile->phase_seconds(obs::ProfilePhase::kSort), 0.0);
  EXPECT_GT(first->profile->phase_seconds(obs::ProfilePhase::kDeltaMerge), 0.0);
  EXPECT_GE(tracker.DeltaOf(obs::Counter::kIngestDeltaMerges), 1u)
      << "sort artifact should be delta-merged, not rebuilt";

  // Repeat query at the same delta state: everything (including the
  // rebuilt tree) is cached — fully probe-only, exactly like a warm query
  // on an unmutated table.
  StatusOr<QueryResult> repeat = svc.Query(sql);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->profile->phase_seconds(obs::ProfilePhase::kSort), 0.0);
  EXPECT_EQ(repeat->profile->phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);
  EXPECT_GT(repeat->profile->phase_seconds(obs::ProfilePhase::kProbe), 0.0);
  ExpectBitIdentical(repeat->table.column(0), first->table.column(0),
                     "repeat at same delta state");
}

TEST(IngestWarmPath, CompactionPreservesEveryCachedArtifact) {
  ServiceOptions options;
  options.auto_compact = false;
  QueryService svc(options);
  svc.RegisterTable("t", test::MakeRandomTable(30000, 53, 1, 0.1));
  const std::string sql =
      "select median(val) over (order by ord rows between 300 preceding and "
      "current row) from t";
  ASSERT_TRUE(svc.Query(sql).ok());
  ASSERT_TRUE(svc.AppendRows("t", test::MakeRandomTable(5000, 54, 1, 0.1)).ok());
  StatusOr<QueryResult> merged = svc.Query(sql);
  ASSERT_TRUE(merged.ok());

  // Compaction preserves row ids, epoch and gen, so every combined-state
  // artifact keeps its key. The sort permutation was cached as a side
  // effect of the delta merge, so the first post-compaction query never
  // re-sorts; the repeat is fully probe-only.
  StatusOr<Catalog::TableMeta> meta = svc.CompactTable("t");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->delta_rows, 0u);
  EXPECT_EQ(meta->base_rows, 35000u);

  StatusOr<QueryResult> after = svc.Query(sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->profile->phase_seconds(obs::ProfilePhase::kSort), 0.0);
  ExpectBitIdentical(after->table.column(0), merged->table.column(0),
                     "across compaction");

  StatusOr<QueryResult> repeat = svc.Query(sql);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->profile->phase_seconds(obs::ProfilePhase::kSort), 0.0);
  EXPECT_EQ(repeat->profile->phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);
  ExpectBitIdentical(repeat->table.column(0), merged->table.column(0),
                     "post-compaction repeat");
  EXPECT_GE(svc.stats().compaction.completed, 1u);
}

// ---------------------------------------------------------------------------
// Compaction: thresholds, background scheduling, mid-compaction queries
// ---------------------------------------------------------------------------

TEST(Compactor, BackgroundCompactionTriggersPastTheRatio) {
  ServiceOptions options;
  options.compactor.delta_ratio = 0.05;
  options.compactor.min_delta_rows = 256;
  QueryService svc(options);
  svc.RegisterTable("t", test::MakeRandomTable(10000, 57));

  // Below both thresholds: no compaction scheduled.
  ASSERT_TRUE(svc.AppendRows("t", test::MakeRandomTable(100, 58)).ok());
  EXPECT_EQ(svc.stats().compaction.scheduled, 0u);

  // Past the ratio: the ingest path schedules a background fold. Wait for
  // the delta to drain.
  ASSERT_TRUE(svc.AppendRows("t", test::MakeRandomTable(2000, 59)).ok());
  EXPECT_GE(svc.stats().compaction.scheduled, 1u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    StatusOr<Catalog::TableMeta> meta = svc.catalog().PeekMeta("t");
    ASSERT_TRUE(meta.ok());
    if (meta->delta_rows == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  StatusOr<Catalog::TableMeta> meta = svc.catalog().PeekMeta("t");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->delta_rows, 0u);
  EXPECT_EQ(meta->base_rows, 12100u);
  EXPECT_GE(svc.stats().compaction.completed, 1u);
}

TEST(Compactor, QueriesOverlappingCompactionStayBitIdentical) {
  const Table base = test::MakeRandomTable(40000, 61);
  const Table batch = test::MakeRandomTable(12000, 62);
  const Table combined = Concat(base, batch);

  ServiceOptions options;
  options.auto_compact = false;
  options.num_sessions = 4;
  options.max_queued = 64;
  QueryService svc(options);
  svc.RegisterTable("t", CopyTable(base));
  ASSERT_TRUE(svc.AppendRows("t", batch).ok());

  const std::string sql =
      "select percentile_disc(0.5 order by val) over (order by ord rows "
      "between 400 preceding and current row) from t";
  const Column expected = SerialReference(sql, combined);

  // Queries race the synchronous fold: whichever side of the atomic swap a
  // query lands on, it must see either (base + delta) or the compacted
  // combined table — the same rows either way.
  std::vector<std::thread> clients;
  std::vector<StatusOr<QueryResult>> results(
      6, StatusOr<QueryResult>(Status::Internal("unset")));
  for (size_t q = 0; q < results.size(); ++q) {
    clients.emplace_back([&, q] { results[q] = svc.Query(sql); });
  }
  StatusOr<Catalog::TableMeta> meta = svc.CompactTable("t");
  for (std::thread& t : clients) t.join();
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->delta_rows, 0u);
  for (size_t q = 0; q < results.size(); ++q) {
    ASSERT_TRUE(results[q].ok())
        << "query " << q << ": " << results[q].status().ToString();
    ExpectBitIdentical(results[q]->table.column(0), expected,
                       "overlapping query " + std::to_string(q));
  }
}

// ---------------------------------------------------------------------------
// Satellite: TreeCache dead-epoch GC
// ---------------------------------------------------------------------------

TEST(CacheGc, ReRegistrationDropsTheOldEpochsEntries) {
  QueryService svc;
  svc.RegisterTable("t", test::MakeRandomTable(20000, 67, 1, 0.1));
  const std::string sql =
      "select percentile_disc(0.5 order by val) over (order by ord rows "
      "between 100 preceding and current row) from t";
  ASSERT_TRUE(svc.Query(sql).ok());
  const size_t entries_before = svc.cache().stats().entries;
  ASSERT_GT(entries_before, 0u);
  EXPECT_EQ(svc.stats().cache_gc_dropped, 0u);

  // Re-registering retires the old epoch; without eager GC its trees would
  // linger in the cache until byte pressure happened to evict them.
  svc.RegisterTable("t", test::MakeRandomTable(20000, 68, 1, 0.1));
  EXPECT_GE(svc.stats().cache_gc_dropped, entries_before);
  EXPECT_EQ(svc.cache().stats().entries, 0u)
      << "every cached artifact belonged to the dead epoch";

  // The new epoch caches and serves normally.
  StatusOr<QueryResult> fresh = svc.Query(sql);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(svc.cache().stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: per-table version gauges on the metrics registry
// ---------------------------------------------------------------------------

TEST(IngestMetrics, RegistryExportsEpochMinorAndDeltaGauges) {
  QueryService svc;
  svc.RegisterTable("pre", MakeKeyed({1, 2}, {10, 20}));
  obs::MetricsRegistry registry;
  // Compose the registry the way hwf_serve does: the process-wide obs
  // counters (which carry the ingest mutation counts) plus the service's
  // own gauges. RegisterMetrics must not re-export the obs counters, or
  // the exposition would carry duplicate series.
  obs::RegisterProcessCounters(&registry);
  svc.RegisterMetrics(&registry);
  // Tables registered after attachment get gauges too.
  svc.RegisterTable("post", MakeKeyed({3}, {30}));
  ASSERT_TRUE(svc.AppendRows("post", MakeKeyed({4}, {40})).ok());

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("hwf_catalog_epoch{table=\"pre\"}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hwf_catalog_epoch{table=\"post\"}"), std::string::npos);
  EXPECT_NE(text.find("hwf_table_minor_version{table=\"post\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hwf_table_delta_rows{table=\"post\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hwf_ingest_rows_appended_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite: concurrent catalog mutation under load
// ---------------------------------------------------------------------------

TEST(ConcurrentMutation, AppendsRacingQueriesNeverTearSnapshots) {
  const size_t kBaseRows = 8000;
  const size_t kBatchRows = 500;
  const int kBatches = 12;

  ServiceOptions options;
  options.num_sessions = 4;
  options.max_queued = 64;
  options.auto_compact = false;
  QueryService svc(options);
  svc.RegisterTable("s", test::MakeRandomTable(kBaseRows, 71));
  // An unrelated table re-registered concurrently exercises dead-epoch GC
  // under load without perturbing "s".
  svc.RegisterTable("r", test::MakeRandomTable(2000, 72));

  const std::string sql =
      "select sum(val) over (order by ord rows between 50 preceding and "
      "current row) from s";

  std::atomic<bool> done{false};
  std::atomic<size_t> queries_ok{0};
  Status failure = Status::OK();
  std::mutex failure_mutex;

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        StatusOr<QueryResult> result = svc.Query(sql);
        if (!result.ok()) {
          std::lock_guard<std::mutex> lock(failure_mutex);
          failure = result.status();
          return;
        }
        // A snapshot must hold whole batches only: the catalog serializes
        // mutations, so any row count other than base + k*batch is a torn
        // read.
        const size_t n = result->table.column(0).size();
        if (n < kBaseRows || (n - kBaseRows) % kBatchRows != 0) {
          std::lock_guard<std::mutex> lock(failure_mutex);
          failure = Status::Internal("torn snapshot: " + std::to_string(n) +
                                     " rows");
          return;
        }
        queries_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread registrar([&] {
    uint64_t seed = 73;
    while (!done.load(std::memory_order_relaxed)) {
      svc.RegisterTable("r", test::MakeRandomTable(2000, seed++));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (int b = 0; b < kBatches; ++b) {
    StatusOr<Catalog::TableMeta> meta =
        svc.AppendRows("s", test::MakeRandomTable(kBatchRows, 100 + b));
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  registrar.join();
  ASSERT_TRUE(failure.ok()) << failure.ToString();
  EXPECT_GT(queries_ok.load(), 0u);

  // Differential vs serial on the final state: the service's answer after
  // all mutations must match a from-scratch evaluation of the materialized
  // table.
  StatusOr<Catalog::Snapshot> snapshot = svc.catalog().Lookup("s");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->table->num_rows(),
            kBaseRows + kBatches * kBatchRows);
  StatusOr<QueryResult> final_result = svc.Query(sql);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  ExpectBitIdentical(final_result->table.column(0),
                     SerialReference(sql, *snapshot->table), "final state");
}

TEST(ConcurrentMutation, StressLoopAppendsUpsertsCompactionsAndQueries) {
  ServiceOptions options;
  options.num_sessions = 2;
  options.compactor.delta_ratio = 0.02;
  options.compactor.min_delta_rows = 64;
  QueryService svc(options);

  std::vector<int64_t> keys, values;
  for (int64_t i = 0; i < 4000; ++i) {
    keys.push_back(i);
    values.push_back(i % 211);
  }
  ASSERT_TRUE(svc.RegisterTable("k", MakeKeyed(keys, values), "k").ok());
  const std::string sql =
      "select median(v) over (order by k rows between 30 preceding and "
      "current row) from k";

  std::atomic<bool> done{false};
  Status failure = Status::OK();
  std::mutex failure_mutex;
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        StatusOr<QueryResult> result = svc.Query(sql);
        if (!result.ok()) {
          std::lock_guard<std::mutex> lock(failure_mutex);
          failure = result.status();
          return;
        }
      }
    });
  }

  // Writer: interleaved appends and upserts, letting the low-threshold
  // background compactor race everything.
  Pcg32 rng(79);
  int64_t next_key = 4000;
  for (int round = 0; round < 20; ++round) {
    std::vector<int64_t> bk, bv;
    for (int i = 0; i < 100; ++i) {
      if (rng.Bounded(2) == 0) {
        bk.push_back(next_key++);  // fresh key: append
      } else {
        bk.push_back(static_cast<int64_t>(rng.Bounded(
            static_cast<uint32_t>(next_key))));  // live key: rewrite
      }
      bv.push_back(static_cast<int64_t>(rng.Bounded(1000)));
    }
    // Duplicate keys within one batch are legal (last write wins inside
    // the delta); keep them to stress the key index.
    StatusOr<Catalog::TableMeta> meta =
        rng.Bounded(2) == 0 ? svc.AppendRows("k", MakeKeyed(bk, bv))
                            : svc.UpsertRows("k", MakeKeyed(bk, bv));
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(failure.ok()) << failure.ToString();

  // Quiesce compactions, then verify the final state differentially.
  svc.compactor().Stop();
  StatusOr<Catalog::Snapshot> snapshot = svc.catalog().Lookup("k");
  ASSERT_TRUE(snapshot.ok());
  StatusOr<QueryResult> final_result = svc.Query(sql);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  ExpectBitIdentical(final_result->table.column(0),
                     SerialReference(sql, *snapshot->table), "stress final");
}

}  // namespace
}  // namespace hwf
