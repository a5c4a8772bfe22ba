#include "storage/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "tests/csv_oracle.h"

namespace hwf {
namespace {

TEST(Csv, ParsesTypedColumns) {
  StatusOr<Table> table = ParseCsv(
      "id,price,name\n"
      "1,1.5,apple\n"
      "2,2,banana\n"
      "3,-0.25,\"che,rry\"\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->column(0).type(), DataType::kInt64);
  EXPECT_EQ(table->column(1).type(), DataType::kDouble);
  EXPECT_EQ(table->column(2).type(), DataType::kString);
  EXPECT_EQ(table->column(0).GetInt64(2), 3);
  EXPECT_EQ(table->column(1).GetDouble(2), -0.25);
  EXPECT_EQ(table->column(2).GetString(2), "che,rry");
}

TEST(Csv, EmptyFieldsAreNullQuotedEmptyIsString) {
  StatusOr<Table> table = ParseCsv(
      "a,b\n"
      "1,x\n"
      ",\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->column(0).IsNull(1));
  EXPECT_FALSE(table->column(1).IsNull(1));
  EXPECT_EQ(table->column(1).GetString(1), "");
}

TEST(Csv, QuotedEscapesAndNewlines) {
  StatusOr<Table> table = ParseCsv(
      "text\n"
      "\"he said \"\"hi\"\"\"\n"
      "\"line1\nline2\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).GetString(0), "he said \"hi\"");
  EXPECT_EQ(table->column(0).GetString(1), "line1\nline2");
}

TEST(Csv, CrlfAndTrailingBlankLines) {
  StatusOr<Table> table = ParseCsv("a,b\r\n1,2\r\n3,4\r\n\n\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->column(1).GetInt64(1), 4);
}

TEST(Csv, CrlfBlankLineIsSkipped) {
  StatusOr<Table> table = ParseCsv("a,b\r\n1,2\r\n\r\n3,4\r\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->column(0).GetInt64(1), 3);
  EXPECT_EQ(table->column(1).GetInt64(1), 4);
}

TEST(Csv, QuotedCarriageReturnRoundTrips) {
  const std::vector<std::string> texts = {"ends in cr\r", "\r", "cr\r\n",
                                          "\r\r", "mid\rdle", "plain"};
  Table table;
  table.AddColumn("first", Column::FromString(texts));
  table.AddColumn("last", Column::FromString(texts));
  for (const char delimiter : {',', ';', '\t'}) {
    StatusOr<Table> parsed = ParseCsv(ToCsv(table, delimiter), delimiter);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->num_rows(), texts.size());
    for (size_t c = 0; c < 2; ++c) {
      for (size_t r = 0; r < texts.size(); ++r) {
        EXPECT_EQ(parsed->column(c).GetString(r), texts[r])
            << "column " << c << " row " << r;
      }
    }
  }
}

TEST(Csv, Errors) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());        // Field count mismatch.
  EXPECT_FALSE(ParseCsv("a\n\"unclosed\n").ok());  // Unterminated quote.
  EXPECT_FALSE(ReadCsvFile("/nonexistent/x.csv").ok());
}

TEST(Csv, IntColumnWithNullsStaysInt) {
  // (A fully blank LINE is skipped, so the NULL sits in a 2-column row.)
  StatusOr<Table> table = ParseCsv("v,w\n1,a\n,b\n3,c\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).type(), DataType::kInt64);
  ASSERT_EQ(table->num_rows(), 3u);
  EXPECT_TRUE(table->column(0).IsNull(1));
  EXPECT_EQ(table->column(0).GetInt64(2), 3);
}

TEST(Csv, AllNullColumnDefaultsToString) {
  StatusOr<Table> table = ParseCsv("v,w\n,1\n,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).type(), DataType::kString);
}

TEST(Csv, RoundTrip) {
  Table table;
  Column i(DataType::kInt64);
  i.AppendInt64(42);
  i.AppendNull();
  Column d(DataType::kDouble);
  d.AppendDouble(0.1);
  d.AppendDouble(-3e10);
  Column s(DataType::kString);
  s.AppendString("plain");
  s.AppendString("with \"quote\" and, comma\nand newline");
  table.AddColumn("i", std::move(i));
  table.AddColumn("d", std::move(d));
  table.AddColumn("s", std::move(s));

  StatusOr<Table> parsed = ParseCsv(ToCsv(table));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->column(0).GetInt64(0), 42);
  EXPECT_TRUE(parsed->column(0).IsNull(1));
  EXPECT_EQ(parsed->column(1).GetDouble(0), 0.1);
  EXPECT_EQ(parsed->column(1).GetDouble(1), -3e10);
  EXPECT_EQ(parsed->column(2).GetString(1),
            "with \"quote\" and, comma\nand newline");
}

TEST(Csv, FileRoundTrip) {
  Table table;
  table.AddColumn("x", Column::FromInt64({1, 2, 3}));
  const std::string path = ::testing::TempDir() + "/hwf_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  StatusOr<Table> parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 3u);
  EXPECT_EQ(parsed->column(0).GetInt64(2), 3);
}

TEST(Csv, CustomDelimiter) {
  StatusOr<Table> table = ParseCsv("a;b\n1;2\n", ';');
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_columns(), 2u);
  EXPECT_EQ(table->column(1).GetInt64(0), 2);
}

// ---------------------------------------------------------------------------
// Differential tests against the original reader and writer (csv_oracle).

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

std::string Printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Same table (names, types, NULL masks, bit-equal values) or the same
/// error code.
void ExpectSameResult(const StatusOr<Table>& actual,
                      const StatusOr<Table>& expected,
                      const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok())
      << context << "\n  actual: " << actual.status().ToString()
      << "\n  expected: " << expected.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << context;
    return;
  }
  ASSERT_EQ(actual->num_columns(), expected->num_columns()) << context;
  ASSERT_EQ(actual->num_rows(), expected->num_rows()) << context;
  for (size_t c = 0; c < expected->num_columns(); ++c) {
    ASSERT_EQ(actual->column_name(c), expected->column_name(c)) << context;
    const Column& a = actual->column(c);
    const Column& e = expected->column(c);
    ASSERT_EQ(a.type(), e.type()) << context << " column " << c;
    for (size_t r = 0; r < e.size(); ++r) {
      ASSERT_EQ(a.IsNull(r), e.IsNull(r))
          << context << " column " << c << " row " << r;
      if (e.IsNull(r)) continue;
      switch (e.type()) {
        case DataType::kInt64:
          ASSERT_EQ(a.GetInt64(r), e.GetInt64(r))
              << context << " column " << c << " row " << r;
          break;
        case DataType::kDouble:
          ASSERT_EQ(Bits(a.GetDouble(r)), Bits(e.GetDouble(r)))
              << context << " column " << c << " row " << r;
          break;
        case DataType::kString:
          ASSERT_EQ(a.GetString(r), e.GetString(r))
              << context << " column " << c << " row " << r;
          break;
      }
    }
  }
}

void ExpectParsesAsOracle(const std::string& content, char delimiter,
                          const std::string& context) {
  ExpectSameResult(ParseCsv(content, delimiter),
                   csv_oracle::ParseCsv(content, delimiter),
                   context + " input \"" + Printable(content) + "\"");
}

/// One random field covering the reader's quirks; `flavor` keeps most of
/// a column numeric so the grids also exercise int64 and double columns.
std::string RandomField(Pcg32& rng, int flavor, char delimiter) {
  const std::string d(1, delimiter);
  if (rng.Bounded(10) < 7) {
    switch (flavor) {
      case 0:
        return std::to_string(static_cast<int64_t>(rng.Next64()) >>
                              rng.Bounded(64));
      case 1: {
        static const char* kNumbers[] = {"1.5", "-0.25", "3", "1e10",
                                         "-0", ".5", "7.", "2.5e-3"};
        return kNumbers[rng.Bounded(std::size(kNumbers))];
      }
      default:
        break;
    }
  }
  static const char* kPieces[] = {
      "", "\"\"", "plain", "a\"b", "\"quoted\"", "\"with \"\"doubled\"\"\"",
      "\"after\"text", "\"after\"\"", "\"a\"b\"c", "\"multi\nline\"",
      "\"cr\r\"", "\"crlf\r\n\"", "tail\r", "\r", "\"x\"\r", " 5", "+5",
      "0x10", "inf", "nan", "-", "1e400", "\"12\"", "\"\"\"\"", "x\ry",
  };
  std::string piece = kPieces[rng.Bounded(std::size(kPieces))];
  if (rng.Bounded(6) == 0) piece = "\"em" + d + "bedded\"";
  return piece;
}

std::string RandomCsv(Pcg32& rng, char delimiter) {
  const std::string d(1, delimiter);
  const size_t columns = 1 + rng.Bounded(4);
  std::vector<int> flavors(columns);
  for (int& flavor : flavors) flavor = static_cast<int>(rng.Bounded(3));
  const bool crlf = rng.Bounded(3) == 0;
  const std::string eol = crlf ? "\r\n" : "\n";
  std::string csv;
  for (size_t b = rng.Bounded(4) == 0 ? rng.Bounded(3) : 0; b > 0; --b) {
    csv += "\n";  // Leading blank lines.
  }
  for (size_t c = 0; c < columns; ++c) {
    if (c > 0) csv += d;
    const bool quoted = rng.Bounded(5) == 0;
    if (quoted) csv += '"';
    csv += 'c';
    csv += std::to_string(c);
    if (quoted) csv += '"';
  }
  csv += eol;
  const size_t rows = rng.Bounded(12);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bounded(8) == 0) csv += "\n";  // Blank line between records.
    size_t width = columns;
    if (rng.Bounded(40) == 0) width += rng.Bounded(2) ? 1 : -1;
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) csv += d;
      csv += RandomField(rng, flavors[std::min(c, columns - 1)], delimiter);
    }
    if (r + 1 < rows || rng.Bounded(3) != 0) csv += eol;
  }
  if (rng.Bounded(30) == 0) csv += "\"unterminated";
  return csv;
}

TEST(CsvDifferential, RandomGridsMatchOracle) {
  Pcg32 rng(1904);
  size_t typed_columns[3] = {0, 0, 0};
  size_t errors = 0;
  for (const char delimiter : {',', ';', '\t'}) {
    for (int round = 0; round < 3000; ++round) {
      const std::string csv = RandomCsv(rng, delimiter);
      ExpectParsesAsOracle(csv, delimiter,
                           "round " + std::to_string(round));
      if (HasFatalFailure()) return;
      const StatusOr<Table> table = ParseCsv(csv, delimiter);
      if (!table.ok()) {
        ++errors;
        continue;
      }
      for (size_t c = 0; c < table->num_columns(); ++c) {
        ++typed_columns[static_cast<int>(table->column(c).type())];
      }
    }
  }
  // The grids reach every column type and every outcome.
  EXPECT_GT(typed_columns[static_cast<int>(DataType::kInt64)], 500u);
  EXPECT_GT(typed_columns[static_cast<int>(DataType::kDouble)], 500u);
  EXPECT_GT(typed_columns[static_cast<int>(DataType::kString)], 500u);
  EXPECT_GT(errors, 100u);
  EXPECT_LT(errors, 3000u);
}

TEST(CsvDifferential, QuirksMatchOracle) {
  const char* kInputs[] = {
      "\n\na,b\n1,2\n",           // Leading blank lines are skipped.
      "a\n1\n\n2\n",              // One column: a blank line is NULL.
      "a,b\n1,2\n\n3,4\n",        // Wider: a blank line is skipped.
      "a,b\n1,2\r\n\r\n3,4\n",    // A CRLF blank line is skipped too.
      "a\n\"\"\n",                // Quoted empty is "", not NULL.
      "a,b\nx\"y,\"q\"\"\n",      // A quote inside an unquoted field.
      "a\n\"ab\"cd\n",            // Text after the closing quote.
      "a\n\"ab\"c\"d\n",          // ... quotes included.
      "a\n\"ab\r\"\nx\n",         // A quoted \r before the newline stays,
      "a\n\"ab\r\"",              // ... at the end of input,
      "a\n\"ab\r\",\n",           // ... and before a delimiter.
      "a\n\"ab\r\"\r\n",          // The unquoted \r after it goes.
      "a\n\"ab\"c\r\n",           // A tail's \r before the newline goes.
      "a\n\"ab\"\r\r\n",          // Only one of two.
      "a\n1\r\n\r\n2\r\n",        // One column: a CRLF blank is NULL.
      "\r\n\r\na\n1\n",           // Leading CRLF blank lines are skipped.
      "a,b\n1,2\n\r\r\n3,4\n",    // \r\r\n is not blank.
      "a,b\r\n1,2\r\n",           // CRLF.
      "a,b\n1,2",                 // No trailing newline.
      "a,b\n1,",                  // Trailing delimiter at end of input.
      "a\n\r",                    // A lone \r record.
      "a\r\n\r\n",                // A CRLF blank in a one-column table.
      "\"a\"\"b\"\n1\n",          // Escaped header name.
      "a\n\"x\"\"",               // A doubled quote at the end of input.
      "a\n\"x\"\"\"",             // Escape then the closing quote.
      "a\n\"multi\nline\r\nfield\"\n",
      "a\n\"",                    // Lone opening quote.
      "a\n1\n\"2\"\n3\n",         // A quoted number is still a number.
      "a\n1\n2.5\n",              // Int then double: a double column.
      "a\n1\n2.5\nx\n",           // ... then a string: a string column.
      "a\n\n\n",                  // One column of NULL rows.
  };
  for (const char* input : kInputs) {
    ExpectParsesAsOracle(input, ',', "quirk");
    ExpectParsesAsOracle(input, ';', "quirk");
  }
  ExpectParsesAsOracle("a;b\n1;2\n", ';', "custom delimiter");
  ExpectParsesAsOracle("a\tb\n\"x\ty\"\t2\n", '\t', "tab delimiter");
}

TEST(CsvDifferential, NumericEdgeCellsMatchOracle) {
  const char* kCells[] = {
      " 5", "+5", "5 ", "0x10", "inf", "+inf", "-inf", "INF", "infinity",
      "-nan", "nan", "nan(12)", "NAN(0x1234)", "1e400", "-1e400", "1e-400",
      "4e-320", "1e-320", "2.2250738585072012e-308",
      "2.2250738585072014e-308", "2.2250738585072013e-308",
      "1.7976931348623158e308", "1.7976931348623159e308", "1.", ".5", "-",
      "+", ".", "e5", "1e", "1e+", "-.5", "-0", "0", "00012", "0x1p3",
      " -7", "\t3", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "18446744073709551616",
      "123456789012345678901234567890", "0.1", "1,5",
  };
  for (const char* cell : kCells) {
    const std::string quoted = std::string("\"") + cell + "\"";
    for (const std::string& prefix : {std::string(), std::string("1\n"),
                                      std::string("1.5\n")}) {
      ExpectParsesAsOracle("x\n" + prefix + quoted + "\n", ',', "edge");
      ExpectParsesAsOracle("x;y\n" + prefix.substr(0, prefix.size() - 1) +
                               (prefix.empty() ? "" : ";0\n") + cell + ";0\n",
                           ';', "edge");
    }
  }
}

TEST(CsvDifferential, ErrorsMatchOracle) {
  for (const char* input : {"", "\n\n", "a,b\n1\n", "a,b\n1,2,3\n",
                            "a\n\"unclosed\n", "\"header"}) {
    const StatusOr<Table> expected = csv_oracle::ParseCsv(input);
    ASSERT_FALSE(expected.ok()) << Printable(input);
    ExpectParsesAsOracle(input, ',', "error");
  }
}

TEST(CsvDifferential, LargeFileMatchesStreamingOracle) {
  // Over 64 KiB, with a quoted multi-line field straddling the 64 KiB mark
  // the original reader streamed in.
  std::string csv = "id,price,note\n";
  int64_t id = 0;
  while (csv.size() < (1 << 16) - 40) {
    csv += std::to_string(id) + "," + std::to_string(id * 0.25) + ",row" +
           std::to_string(id) + "\n";
    ++id;
  }
  csv += std::to_string(id++) + ",1.5,";
  const size_t field_begin = csv.size();
  csv += "\"spans\nthe \"\"64 KiB\"\"\r\nmark of the original reader\"\n";
  ASSERT_LT(field_begin, size_t{1} << 16);
  ASSERT_GT(csv.size() - 1, size_t{1} << 16);
  while (csv.size() < (3 << 16)) {
    csv += std::to_string(id) + "," + std::to_string(-id * 0.5) + ",\"q," +
           std::to_string(id) + "\"\n";
    ++id;
  }
  const std::string path = ::testing::TempDir() + "/hwf_csv_large.csv";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(csv.data(), 1, csv.size(), file), csv.size());
  std::fclose(file);

  const StatusOr<Table> actual = ReadCsvFile(path);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectSameResult(actual, csv_oracle::ReadCsvFile(path), "large file");
  ExpectSameResult(actual, csv_oracle::ParseCsv(csv), "large content");
  EXPECT_EQ(actual->num_rows(), static_cast<size_t>(id));
  std::remove(path.c_str());
}

TEST(CsvDifferential, NumberRendererMatchesPrintf) {
  Pcg32 rng(77);
  char buffer[64];
  std::string text;
  auto expect_double = [&](double value) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    text.clear();
    AppendDoubleText(value, &text);
    ASSERT_EQ(text, buffer) << std::hex << Bits(value);
  };
  auto expect_int = [&](int64_t value) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    text.clear();
    AppendInt64Text(value, &text);
    ASSERT_EQ(text, buffer);
  };
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double special :
       {0.0, -0.0, kInf, -kInf, std::nan(""), -std::nan(""),
        std::bit_cast<double>(uint64_t{0x7ff800000000abcd}),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(), 0.1, 1e21, 1e-5, 123456789.0}) {
    expect_double(special);
    expect_double(-special);
  }
  for (int i = 0; i < 200000; ++i) {
    expect_double(std::bit_cast<double>(rng.Next64()));
    expect_double(static_cast<double>(rng.Uniform(-1000000, 1000000)) / 100);
    expect_int(static_cast<int64_t>(rng.Next64()) >> rng.Bounded(64));
  }
  expect_int(std::numeric_limits<int64_t>::min());
  expect_int(std::numeric_limits<int64_t>::max());
}

TEST(CsvDifferential, ToCsvMatchesOracleBytes) {
  Pcg32 rng(4242);
  static const char* kStrings[] = {"plain", "",        "with,comma",
                                   "semi;colon", "tab\there", "q\"uote",
                                   "new\nline", "cr\r", " padded "};
  Table table;
  Column ints(DataType::kInt64);
  Column doubles(DataType::kDouble);
  Column strings(DataType::kString);
  for (int r = 0; r < 20000; ++r) {
    if (rng.Bounded(10) == 0) {
      ints.AppendNull();
    } else {
      ints.AppendInt64(static_cast<int64_t>(rng.Next64()) >> rng.Bounded(64));
    }
    switch (rng.Bounded(4)) {
      case 0:
        doubles.AppendNull();
        break;
      case 1:
        doubles.AppendDouble(std::bit_cast<double>(rng.Next64()));
        break;
      default:
        doubles.AppendDouble(static_cast<double>(rng.Uniform(-99999, 99999)) /
                             100);
    }
    if (rng.Bounded(10) == 0) {
      strings.AppendNull();
    } else {
      strings.AppendString(kStrings[rng.Bounded(std::size(kStrings))]);
    }
  }
  for (const double special : {std::nan(""), -std::nan(""), -0.0,
                               std::numeric_limits<double>::infinity()}) {
    ints.AppendInt64(0);
    doubles.AppendDouble(special);
    strings.AppendString("s");
  }
  table.AddColumn("i", std::move(ints));
  table.AddColumn("d,\"x\"", std::move(doubles));
  table.AddColumn("s", std::move(strings));
  for (const char delimiter : {',', ';', '\t'}) {
    const std::string actual = ToCsv(table, delimiter);
    const std::string expected = csv_oracle::ToCsv(table, delimiter);
    ASSERT_EQ(actual.size(), expected.size()) << "delimiter " << delimiter;
    EXPECT_TRUE(actual == expected) << "delimiter " << delimiter;
    ExpectSameResult(ParseCsv(actual, delimiter),
                     csv_oracle::ParseCsv(expected, delimiter), "round trip");
  }
}

}  // namespace
}  // namespace hwf
