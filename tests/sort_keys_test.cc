// The sort-key encoding (window/sort_keys.h): word order must be exactly
// the CompareRowsBy order, and equal words exactly its peers, for every
// type, direction and NULL placement.
#include "window/sort_keys.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "tests/window_test_util.h"
#include "window/evaluator.h"

namespace hwf {
namespace {

using test::MakeSpecialKeyTable;

// MakeSpecialKeyTable schema.
constexpr size_t kD = 0;
constexpr size_t kI = 1;
constexpr size_t kS = 2;
constexpr size_t kW = 4;

int Sign(int x) { return (x > 0) - (x < 0); }

/// Three-way comparison of positions a and b on the words alone.
int CompareWords(const SortKeyWords& words, size_t a, size_t b) {
  if (words.EqualOnKeys(a, b, words.num_keys())) return 0;
  return words.Less()(a, b) ? -1 : 1;
}

/// Requires word order == CompareRowsBy order over every pair of `rows`.
void ExpectWordsMatchCompareRowsBy(const Table& table,
                                   const std::vector<SortKey>& keys,
                                   const std::vector<size_t>& rows,
                                   const std::string& context) {
  ThreadPool pool(2);
  const SortKeyWords words = SortKeyWords::Encode(table, keys, rows, pool);
  ASSERT_EQ(words.size(), rows.size());
  ASSERT_EQ(words.num_keys(), keys.size());
  for (size_t a = 0; a < rows.size(); ++a) {
    for (size_t b = 0; b < rows.size(); ++b) {
      ASSERT_EQ(CompareWords(words, a, b),
                Sign(CompareRowsBy(table, rows[a], rows[b], keys)))
          << context << " positions " << a << ", " << b;
    }
  }
}

std::vector<size_t> AllRows(const Table& table) {
  std::vector<size_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  return rows;
}

TEST(SortKeys, EveryTypeDirectionAndNullPlacementMatchesCompareRowsBy) {
  const Table table = MakeSpecialKeyTable(160, /*seed=*/3);
  const std::vector<size_t> rows = AllRows(table);
  for (size_t column : {kD, kI, kS, kW}) {
    for (int combo = 0; combo < 4; ++combo) {
      const SortKey key{column, (combo & 1) == 0, (combo & 2) != 0};
      ExpectWordsMatchCompareRowsBy(table, {key}, rows,
                                    "column " + std::to_string(column) +
                                        " combo " + std::to_string(combo));
    }
  }
}

TEST(SortKeys, MultiKeyOrdersAndRowSubsetsMatchCompareRowsBy) {
  const Table table = MakeSpecialKeyTable(150, /*seed=*/4);
  // A subset in scrambled order: position i stands for rows[i].
  std::vector<size_t> rows;
  for (size_t r = 0; r < table.num_rows(); r += 2) rows.push_back(r);
  std::reverse(rows.begin(), rows.end());
  ExpectWordsMatchCompareRowsBy(
      table, {SortKey{kS, false, true}, SortKey{kI, true, false}}, rows,
      "s desc nulls first, i");
  ExpectWordsMatchCompareRowsBy(
      table,
      {SortKey{kI, false, false}, SortKey{kD, true, true},
       SortKey{kS, true, false}},
      AllRows(table), "i desc, d nulls first, s");
}

// INT64_MIN encodes ascending to word 0, INT64_MAX to ~0 — the NULL words.
// Only a key holding both such a value and a NULL gets the null-rank array.
TEST(SortKeys, NullRankArrayOnlyWhereANullWordWouldTie) {
  ThreadPool pool(1);
  auto int_table = [](std::vector<std::optional<int64_t>> values) {
    Column column(DataType::kInt64);
    for (const auto& value : values) {
      if (value.has_value()) {
        column.AppendInt64(*value);
      } else {
        column.AppendNull();
      }
    }
    Table table;
    table.AddColumn("x", std::move(column));
    return table;
  };
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  for (int combo = 0; combo < 4; ++combo) {
    const SortKey key{0, (combo & 1) == 0, (combo & 2) != 0};
    const std::string context = "combo " + std::to_string(combo);
    const Table with_min = int_table({min, std::nullopt, 0, min, std::nullopt});
    const Table with_max = int_table({std::nullopt, max, -5, max});
    const Table no_null = int_table({min, max, 0});
    const Table no_extreme = int_table({std::nullopt, 3, min + 1, max - 1});
    auto num_arrays = [&](const Table& table) {
      return SortKeyWords::Encode(table, {&key, 1}, AllRows(table), pool)
          .num_arrays();
    };
    EXPECT_EQ(num_arrays(with_min), 2u) << context;
    EXPECT_EQ(num_arrays(with_max), 2u) << context;
    EXPECT_EQ(num_arrays(no_null), 1u) << context;
    EXPECT_EQ(num_arrays(no_extreme), 1u) << context;
    for (const Table* table : {&with_min, &with_max, &no_null, &no_extreme}) {
      ExpectWordsMatchCompareRowsBy(*table, {key}, AllRows(*table), context);
    }
  }
}

TEST(SortKeys, DoubleWordsAreCanonicalAndNeverNullWords) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nans[] = {
      std::bit_cast<double>(uint64_t{0x7ff8000000000000}),
      std::bit_cast<double>(uint64_t{0xfff8000000000000}),
      std::bit_cast<double>(uint64_t{0x7ff0000000000001}),
      std::bit_cast<double>(uint64_t{0xffffffffffffffff}),
  };
  for (bool ascending : {true, false}) {
    const uint64_t nan_word = EncodeDoubleKey(nans[0], ascending);
    for (double nan : nans) {
      EXPECT_EQ(EncodeDoubleKey(nan, ascending), nan_word);
    }
    EXPECT_NE(nan_word, 0u);
    EXPECT_NE(nan_word, ~uint64_t{0});
    EXPECT_EQ(EncodeDoubleKey(-0.0, ascending),
              EncodeDoubleKey(0.0, ascending));
    if (ascending) {
      EXPECT_GT(nan_word, EncodeDoubleKey(inf, true));
      EXPECT_LT(EncodeDoubleKey(-inf, true), EncodeDoubleKey(-1e308, true));
    } else {
      EXPECT_LT(nan_word, EncodeDoubleKey(inf, false));
    }
  }
}

// Several arrays collapse to one dense code with the same order and peers;
// a single array is its own code; no keys make every position a peer.
TEST(SortKeys, TakeCodeKeepsOrderAndPeers) {
  ThreadPool pool(2);
  const Table table = MakeSpecialKeyTable(300, /*seed=*/5);
  const std::vector<SortKey> keys = {SortKey{kS, true, false},
                                     SortKey{kD, false, true}};
  SortKeyWords words =
      SortKeyWords::Encode(table, keys, AllRows(table), pool);
  ASSERT_GT(words.num_arrays(), 1u);
  std::vector<int> expected(table.num_rows() * table.num_rows());
  for (size_t a = 0; a < table.num_rows(); ++a) {
    for (size_t b = 0; b < table.num_rows(); ++b) {
      expected[a * table.num_rows() + b] = CompareWords(words, a, b);
    }
  }
  const std::vector<uint64_t> code = std::move(words).TakeCode(pool);
  ASSERT_EQ(code.size(), table.num_rows());
  for (size_t a = 0; a < table.num_rows(); ++a) {
    for (size_t b = 0; b < table.num_rows(); ++b) {
      ASSERT_EQ((code[a] > code[b]) - (code[a] < code[b]),
                expected[a * table.num_rows() + b])
          << a << ", " << b;
    }
  }

  const SortKey single{kD, false, true};
  const std::vector<uint64_t> single_code =
      SortKeyWords::Encode(table, {&single, 1}, AllRows(table), pool)
          .TakeCode(pool);
  const Column& d = table.column(kD);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ASSERT_EQ(single_code[i],
              d.IsNull(i) ? 0 : EncodeDoubleKey(d.GetDouble(i), false))
        << i;
  }

  const std::vector<uint64_t> none =
      SortKeyWords::Encode(table, {}, AllRows(table), pool)
          .TakeCode(pool);
  EXPECT_EQ(none, std::vector<uint64_t>(table.num_rows(), 0));
}

}  // namespace
}  // namespace hwf
