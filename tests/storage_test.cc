#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>

#include "storage/column.h"
#include "storage/table.h"
#include "storage/tpch_gen.h"

namespace hwf {
namespace {

TEST(Value, RoundTripAndEquality) {
  EXPECT_EQ(Value::Int64(42), Value::Int64(42));
  EXPECT_FALSE(Value::Int64(42) == Value::Int64(43));
  EXPECT_FALSE(Value::Int64(42) == Value::Double(42.0));
  EXPECT_EQ(Value::Null(DataType::kInt64), Value::Null(DataType::kInt64));
  EXPECT_FALSE(Value::Null(DataType::kInt64) == Value::Int64(0));
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Null(DataType::kDouble).ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
}

TEST(Column, AppendAndPositionalWrites) {
  Column column(DataType::kInt64);
  column.AppendInt64(1);
  column.AppendNull();
  column.AppendInt64(3);
  EXPECT_EQ(column.size(), 3u);
  EXPECT_FALSE(column.IsNull(0));
  EXPECT_TRUE(column.IsNull(1));
  EXPECT_EQ(column.GetInt64(2), 3);

  Column sized(DataType::kDouble, 4);
  EXPECT_EQ(sized.size(), 4u);
  EXPECT_TRUE(sized.IsNull(2));
  sized.SetDouble(2, 1.5);
  EXPECT_EQ(sized.GetDouble(2), 1.5);
  sized.SetNull(2);
  EXPECT_TRUE(sized.IsNull(2));
}

TEST(Column, HashIsValueBasedAndNullAware) {
  Column a(DataType::kInt64);
  a.AppendInt64(7);
  a.AppendInt64(7);
  a.AppendInt64(8);
  a.AppendNull();
  EXPECT_EQ(a.Hash(0), a.Hash(1));
  EXPECT_NE(a.Hash(0), a.Hash(2));
  EXPECT_NE(a.Hash(0), a.Hash(3));

  Column d(DataType::kDouble);
  d.AppendDouble(0.0);
  d.AppendDouble(-0.0);  // -0.0 == 0.0 in SQL comparisons.
  EXPECT_EQ(d.Hash(0), d.Hash(1));

  Column s(DataType::kString);
  s.AppendString("abc");
  s.AppendString("abc");
  s.AppendString("abd");
  EXPECT_EQ(s.Hash(0), s.Hash(1));
  EXPECT_NE(s.Hash(0), s.Hash(2));
}

TEST(Column, Compare) {
  Column s(DataType::kString);
  s.AppendString("apple");
  s.AppendString("banana");
  s.AppendString("apple");
  EXPECT_LT(s.Compare(0, 1), 0);
  EXPECT_GT(s.Compare(1, 0), 0);
  EXPECT_EQ(s.Compare(0, 2), 0);
}

// Doubles are totally ordered the way the sort-key words order them:
// -0.0 == 0.0, every NaN payload is one value, and NaN sorts above +inf.
TEST(Column, CompareAndHashOrderDoublesTotally) {
  const double inf = std::numeric_limits<double>::infinity();
  Column d(DataType::kDouble);
  d.AppendDouble(std::bit_cast<double>(uint64_t{0x7ff8000000000000}));  // 0
  d.AppendDouble(std::bit_cast<double>(uint64_t{0xfff8000000000000}));  // 1
  d.AppendDouble(std::bit_cast<double>(uint64_t{0x7ff0000000000001}));  // 2
  d.AppendDouble(1.0);                                                  // 3
  d.AppendDouble(inf);                                                  // 4
  d.AppendDouble(-inf);                                                 // 5
  d.AppendDouble(-0.0);                                                 // 6
  d.AppendDouble(0.0);                                                  // 7
  EXPECT_GT(d.Compare(0, 3), 0);
  EXPECT_LT(d.Compare(3, 0), 0);
  EXPECT_EQ(d.Compare(0, 1), 0);
  EXPECT_EQ(d.Compare(1, 2), 0);
  EXPECT_GT(d.Compare(1, 4), 0);
  EXPECT_LT(d.Compare(4, 2), 0);
  EXPECT_GT(d.Compare(2, 5), 0);
  EXPECT_EQ(d.Compare(6, 7), 0);
  EXPECT_LT(d.Compare(5, 6), 0);
  // Equal under Compare => equal hash: NaN partition keys share a bucket.
  EXPECT_EQ(d.Hash(0), d.Hash(1));
  EXPECT_EQ(d.Hash(0), d.Hash(2));
  EXPECT_NE(d.Hash(0), d.Hash(4));
  EXPECT_EQ(d.Hash(6), d.Hash(7));
}

TEST(Table, ColumnLookup) {
  Table table;
  table.AddColumn("a", Column::FromInt64({1, 2}));
  table.AddColumn("b", Column::FromDouble({1.5, 2.5}));
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.MustColumnIndex("b"), 1u);
  EXPECT_FALSE(table.ColumnIndex("zzz").ok());
}

TEST(Dates, RoundTrip) {
  EXPECT_EQ(DaysSinceEpoch(1970, 1, 1), 0);
  EXPECT_EQ(DayToString(0), "1970-01-01");
  EXPECT_EQ(DayToString(DaysSinceEpoch(1992, 1, 2)), "1992-01-02");
  EXPECT_EQ(DayToString(DaysSinceEpoch(1998, 12, 1)), "1998-12-01");
  EXPECT_EQ(DayToString(DaysSinceEpoch(2000, 2, 29)), "2000-02-29");
  // Leap year arithmetic across the century boundary.
  EXPECT_EQ(DaysSinceEpoch(2000, 3, 1) - DaysSinceEpoch(2000, 2, 28), 2);
  EXPECT_EQ(DaysSinceEpoch(1900, 3, 1) - DaysSinceEpoch(1899, 3, 1), 365);
}

TEST(Generators, LineitemShape) {
  Table t = GenerateLineitem(5000, 7);
  EXPECT_EQ(t.num_rows(), 5000u);
  const Column& price = t.column(t.MustColumnIndex("l_extendedprice"));
  const Column& ship = t.column(t.MustColumnIndex("l_shipdate"));
  const Column& receipt = t.column(t.MustColumnIndex("l_receiptdate"));
  const Column& part = t.column(t.MustColumnIndex("l_partkey"));
  const int64_t lo = DaysSinceEpoch(1992, 1, 2);
  const int64_t hi = DaysSinceEpoch(1998, 12, 1);
  std::set<int64_t> parts;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_GE(price.GetDouble(i), 900.0);
    EXPECT_LE(price.GetDouble(i), 105000.0);
    EXPECT_GE(ship.GetInt64(i), lo);
    EXPECT_LE(ship.GetInt64(i), hi);
    EXPECT_GT(receipt.GetInt64(i), ship.GetInt64(i));
    EXPECT_LE(receipt.GetInt64(i) - ship.GetInt64(i), 30);
    parts.insert(part.GetInt64(i));
  }
  // ~166 part keys → heavy duplication, like TPC-H's 30 rows per part.
  EXPECT_GT(parts.size(), 100u);
  EXPECT_LT(parts.size(), 200u);
}

TEST(Generators, Deterministic) {
  Table a = GenerateLineitem(1000, 42);
  Table b = GenerateLineitem(1000, 42);
  Table c = GenerateLineitem(1000, 43);
  const size_t price = a.MustColumnIndex("l_extendedprice");
  bool any_diff = false;
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.column(price).GetDouble(i), b.column(price).GetDouble(i));
    any_diff |= a.column(price).GetDouble(i) != c.column(price).GetDouble(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, TpccResultsShape) {
  Table t = GenerateTpccResults(500, 9);
  const Column& date = t.column(t.MustColumnIndex("submission_date"));
  const Column& tps = t.column(t.MustColumnIndex("tps"));
  for (size_t i = 1; i < t.num_rows(); ++i) {
    EXPECT_GT(date.GetInt64(i), date.GetInt64(i - 1));  // Increasing.
    EXPECT_GT(tps.GetDouble(i), 0.0);
  }
}

TEST(Generators, OrdersShape) {
  Table t = GenerateOrders(2000, 11);
  const Column& cust = t.column(t.MustColumnIndex("o_custkey"));
  std::set<int64_t> customers;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    customers.insert(cust.GetInt64(i));
  }
  EXPECT_GT(customers.size(), 100u);
  EXPECT_LE(customers.size(), 200u);
}

}  // namespace
}  // namespace hwf
