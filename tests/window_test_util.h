#ifndef HWF_TESTS_WINDOW_TEST_UTIL_H_
#define HWF_TESTS_WINDOW_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/table.h"
#include "window/executor.h"
#include "window/spec.h"

namespace hwf {
namespace test {

/// A small random table exercising all the tricky cases: duplicates, NULLs,
/// multiple partitions, int/double/string columns, and a boolean filter
/// column.
///
/// Columns: 0 grp (int64, `partitions` values), 1 ord (int64, duplicates,
/// some NULLs), 2 val (int64, duplicates, some NULLs), 3 price (double),
/// 4 name (string, some NULLs), 5 flag (int64 0/1), 6 off (int64 0..4,
/// per-row frame offsets).
inline Table MakeRandomTable(size_t rows, uint64_t seed, int partitions = 3,
                             double null_fraction = 0.15) {
  Pcg32 rng(seed);
  Column grp(DataType::kInt64);
  Column ord(DataType::kInt64);
  Column val(DataType::kInt64);
  Column price(DataType::kDouble);
  Column name(DataType::kString);
  Column flag(DataType::kInt64);
  Column off(DataType::kInt64);
  const char* names[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (size_t i = 0; i < rows; ++i) {
    grp.AppendInt64(static_cast<int64_t>(rng.Bounded(partitions)));
    if (rng.NextDouble() < null_fraction) {
      ord.AppendNull();
    } else {
      ord.AppendInt64(static_cast<int64_t>(rng.Bounded(20)));
    }
    if (rng.NextDouble() < null_fraction) {
      val.AppendNull();
    } else {
      val.AppendInt64(static_cast<int64_t>(rng.Bounded(12)));
    }
    price.AppendDouble(static_cast<double>(rng.Bounded(1000)) / 4.0);
    if (rng.NextDouble() < null_fraction) {
      name.AppendNull();
    } else {
      name.AppendString(names[rng.Bounded(5)]);
    }
    flag.AppendInt64(rng.Bounded(4) != 0 ? 1 : 0);
    off.AppendInt64(static_cast<int64_t>(rng.Bounded(5)));
  }
  Table table;
  table.AddColumn("grp", std::move(grp));
  table.AddColumn("ord", std::move(ord));
  table.AddColumn("val", std::move(val));
  table.AddColumn("price", std::move(price));
  table.AddColumn("name", std::move(name));
  table.AddColumn("flag", std::move(flag));
  table.AddColumn("off", std::move(off));
  return table;
}

/// A table of keys at the edges of the sort-key encoding
/// (window/sort_keys.h), heavy with duplicates.
///
/// Columns: 0 d (double: NaNs of four payloads, one negative, +-inf,
/// +-0.0, NULL), 1 i (int64: INT64_MIN, INT64_MAX, NULL), 2 s (string:
/// NULL, the empty string), 3 v (int64, no NULLs), 4 w (finite double,
/// no NULLs), 5 flag (int64 0/1).
inline Table MakeSpecialKeyTable(size_t rows, uint64_t seed) {
  static const double kDoubles[] = {
      std::bit_cast<double>(uint64_t{0x7ff8000000000000}),
      std::bit_cast<double>(uint64_t{0xfff8000000000000}),
      std::bit_cast<double>(uint64_t{0x7ff0000000000001}),
      std::bit_cast<double>(uint64_t{0x7ff800000000abcd}),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      -1.5,
      2.25,
      1e300,
      -1e-300,
  };
  static const int64_t kInts[] = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
      std::numeric_limits<int64_t>::max(),
      -1,
      0,
      3,
  };
  static const char* kStrings[] = {"", "a", "ab", "b", "Z"};
  Pcg32 rng(seed);
  Column d(DataType::kDouble);
  Column i64(DataType::kInt64);
  Column s(DataType::kString);
  Column v(DataType::kInt64);
  Column w(DataType::kDouble);
  Column flag(DataType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bounded(8) == 0) {
      d.AppendNull();
    } else {
      d.AppendDouble(kDoubles[rng.Bounded(std::size(kDoubles))]);
    }
    if (rng.Bounded(8) == 0) {
      i64.AppendNull();
    } else {
      i64.AppendInt64(kInts[rng.Bounded(std::size(kInts))]);
    }
    if (rng.Bounded(8) == 0) {
      s.AppendNull();
    } else {
      s.AppendString(kStrings[rng.Bounded(std::size(kStrings))]);
    }
    v.AppendInt64(static_cast<int64_t>(rng.Bounded(50)));
    w.AppendDouble(static_cast<double>(rng.Bounded(400)) / 8.0);
    flag.AppendInt64(rng.Bounded(4) != 0 ? 1 : 0);
  }
  Table table;
  table.AddColumn("d", std::move(d));
  table.AddColumn("i", std::move(i64));
  table.AddColumn("s", std::move(s));
  table.AddColumn("v", std::move(v));
  table.AddColumn("w", std::move(w));
  table.AddColumn("flag", std::move(flag));
  return table;
}

inline void ExpectColumnsEqual(const Column& actual, const Column& expected,
                               const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  ASSERT_EQ(actual.type(), expected.type()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual.IsNull(i), expected.IsNull(i))
        << context << " row " << i;
    if (actual.IsNull(i)) continue;
    switch (actual.type()) {
      case DataType::kInt64:
        ASSERT_EQ(actual.GetInt64(i), expected.GetInt64(i))
            << context << " row " << i;
        break;
      case DataType::kDouble: {
        // Equal values (infinities included) and NaN against NaN match
        // exactly; anything else must agree to a relative 1e-9.
        const double a = actual.GetDouble(i);
        const double e = expected.GetDouble(i);
        if (a == e || (std::isnan(a) && std::isnan(e))) break;
        ASSERT_NEAR(a, e, 1e-9 * (1.0 + std::abs(e)))
            << context << " row " << i;
        break;
      }
      case DataType::kString:
        ASSERT_EQ(actual.GetString(i), expected.GetString(i))
            << context << " row " << i;
        break;
    }
  }
}

/// Evaluates `call` with both the merge sort tree engine and the naive
/// oracle and requires identical results.
inline void ExpectMatchesNaive(const Table& table, const WindowSpec& spec,
                               const WindowFunctionCall& call,
                               const std::string& context,
                               const WindowExecutorOptions& base_options = {}) {
  WindowExecutorOptions mst_options = base_options;
  mst_options.engine = WindowEngine::kMergeSortTree;
  StatusOr<Column> mst = EvaluateWindowFunction(table, spec, call, mst_options);
  ASSERT_TRUE(mst.ok()) << context << ": " << mst.status().ToString();

  WindowExecutorOptions naive_options = base_options;
  naive_options.engine = WindowEngine::kNaive;
  StatusOr<Column> naive =
      EvaluateWindowFunction(table, spec, call, naive_options);
  ASSERT_TRUE(naive.ok()) << context << ": " << naive.status().ToString();

  ExpectColumnsEqual(*mst, *naive, context);
}

}  // namespace test
}  // namespace hwf

#endif  // HWF_TESTS_WINDOW_TEST_UTIL_H_
