#include "tests/csv_oracle.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace hwf {
namespace csv_oracle {

namespace {

struct Cell {
  std::string text;
  bool quoted = false;  // Quoted empty fields are empty strings, not NULL.
};

/// Incremental CSV tokenizer: feed it the input in arbitrary chunks, then
/// call Finish() once for the tokenized records. Handles quoted fields with
/// doubled-quote escapes and embedded delimiters/newlines; all state —
/// including the lookahead for a doubled quote — survives chunk boundaries,
/// so file readers never need to materialize the whole input in memory.
class CsvTokenizer {
 public:
  explicit CsvTokenizer(char delimiter) : delimiter_(delimiter) {}

  void Feed(const char* data, size_t size) {
    for (size_t i = 0; i < size; ++i) Process(data[i]);
  }

  StatusOr<std::vector<std::vector<Cell>>> Finish() {
    // A pending quote at end of input is the field's closing quote.
    if (quote_pending_) {
      quote_pending_ = false;
      in_quotes_ = false;
    }
    if (in_quotes_) {
      return Status::InvalidArgument("CSV ends inside a quoted field");
    }
    if (cell_started_ || !record_.empty()) {
      if (unquoted_cr_) cell_.text.pop_back();
      EndRecord();
    }
    return std::move(records_);
  }

 private:
  void Process(char c) {
    if (quote_pending_) {
      // The previous character was a quote inside a quoted field: a second
      // quote is an escaped literal quote, anything else closed the field.
      quote_pending_ = false;
      if (c == '"') {
        cell_.text.push_back('"');
        unquoted_cr_ = false;
        return;
      }
      in_quotes_ = false;
      // Fall through: c is re-examined in unquoted context.
    } else if (in_quotes_) {
      if (c == '"') {
        quote_pending_ = true;
      } else {
        cell_.text.push_back(c);
        unquoted_cr_ = false;
      }
      return;
    }
    if (c == '"' && !cell_started_) {
      in_quotes_ = true;
      cell_.quoted = true;
      cell_started_ = true;
    } else if (c == delimiter_) {
      EndCell();
    } else if (c == '\n') {
      // Swallow a preceding \r (CRLF) unless it was quoted.
      if (unquoted_cr_) cell_.text.pop_back();
      if (record_.empty() && !cell_.quoted && cell_.text.empty()) {
        // Blank line (LF or CRLF): kept as a zero-cell marker so BuildTable
        // can decide.
        // In a one-column table an empty line IS a record (one NULL
        // field) — dropping it here would lose rows over the wire.
        records_.emplace_back();
        cell_ = Cell();
        cell_started_ = false;
        unquoted_cr_ = false;
        return;
      }
      EndRecord();
    } else {
      cell_.text.push_back(c);
      cell_started_ = true;
      unquoted_cr_ = c == '\r';
    }
  }

  void EndCell() {
    record_.push_back(std::move(cell_));
    cell_ = Cell();
    cell_started_ = false;
    unquoted_cr_ = false;
  }

  void EndRecord() {
    EndCell();
    records_.push_back(std::move(record_));
    record_.clear();
  }

  const char delimiter_;
  std::vector<std::vector<Cell>> records_;
  std::vector<Cell> record_;
  Cell cell_;
  bool in_quotes_ = false;
  bool cell_started_ = false;
  bool quote_pending_ = false;
  bool unquoted_cr_ = false;  // cell_.text ends in a '\r' read unquoted.
};

bool ParseInt(const std::string& text, int64_t* value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *value = parsed;
  return true;
}

bool ParseDouble(const std::string& text, double* value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *value = parsed;
  return true;
}

bool NeedsQuoting(const std::string& text, char delimiter) {
  return text.find_first_of(std::string("\"\n\r") + delimiter) !=
         std::string::npos;
}

/// Type inference + column materialization over tokenized records.
StatusOr<Table> BuildTable(std::vector<std::vector<Cell>> records) {
  // Zero-cell records are blank lines. Leading ones (before the header)
  // are noise; between data records their meaning depends on the width:
  // a one-column table serializes a NULL row as an empty line, so there
  // the blank is a real record, while in a wider table no row can
  // serialize that way and the blank stays skipped for leniency with
  // hand-authored files.
  size_t first = 0;
  while (first < records.size() && records[first].empty()) ++first;
  if (first == records.size()) {
    return Status::InvalidArgument("CSV has no header record");
  }
  const std::vector<Cell> header = std::move(records[first]);
  const size_t num_columns = header.size();
  std::vector<std::vector<Cell>> rows;
  rows.reserve(records.size() - first - 1);
  for (size_t r = first + 1; r < records.size(); ++r) {
    if (records[r].empty()) {
      if (num_columns == 1) rows.push_back({Cell()});
      continue;
    }
    rows.push_back(std::move(records[r]));
  }
  records.clear();
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != num_columns) {
      return Status::InvalidArgument(
          "CSV record " + std::to_string(r + 2) + " has " +
          std::to_string(rows[r].size()) + " fields, expected " +
          std::to_string(num_columns));
    }
  }

  const size_t num_rows = rows.size();
  Table table;
  for (size_t c = 0; c < num_columns; ++c) {
    // Type inference over all non-NULL cells of the column.
    bool all_int = true;
    bool all_double = true;
    bool any_value = false;
    for (size_t r = 0; r < num_rows; ++r) {
      const Cell& cell = rows[r][c];
      if (cell.text.empty() && !cell.quoted) continue;  // NULL
      any_value = true;
      int64_t i;
      double d;
      if (!ParseInt(cell.text, &i)) all_int = false;
      if (!ParseDouble(cell.text, &d)) all_double = false;
      if (!all_double) break;
    }
    DataType type = DataType::kString;
    if (any_value && all_int) {
      type = DataType::kInt64;
    } else if (any_value && all_double) {
      type = DataType::kDouble;
    }

    Column column(type);
    column.Reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      const Cell& cell = rows[r][c];
      if (cell.text.empty() && !cell.quoted) {
        column.AppendNull();
        continue;
      }
      switch (type) {
        case DataType::kInt64: {
          int64_t value = 0;
          ParseInt(cell.text, &value);
          column.AppendInt64(value);
          break;
        }
        case DataType::kDouble: {
          double value = 0;
          ParseDouble(cell.text, &value);
          column.AppendDouble(value);
          break;
        }
        case DataType::kString:
          column.AppendString(cell.text);
          break;
      }
    }
    table.AddColumn(header[c].text, std::move(column));
  }
  return table;
}

}  // namespace

StatusOr<Table> ParseCsv(const std::string& content, char delimiter) {
  CsvTokenizer tokenizer(delimiter);
  tokenizer.Feed(content.data(), content.size());
  StatusOr<std::vector<std::vector<Cell>>> records = tokenizer.Finish();
  if (!records.ok()) return records.status();
  return BuildTable(*std::move(records));
}

StatusOr<Table> ReadCsvFile(const std::string& path, char delimiter) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "': " + std::strerror(errno));
  }
  // Stream the file through the tokenizer chunk by chunk — peak memory is
  // the tokenized cells, never cells plus a whole-file copy.
  CsvTokenizer tokenizer(delimiter);
  char buffer[1 << 16];
  size_t bytes;
  while ((bytes = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    tokenizer.Feed(buffer, bytes);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::InvalidArgument("error reading '" + path + "'");
  }
  StatusOr<std::vector<std::vector<Cell>>> records = tokenizer.Finish();
  if (!records.ok()) return records.status();
  return BuildTable(*std::move(records));
}

std::string ToCsv(const Table& table, char delimiter) {
  std::string out;
  auto append_field = [&](const std::string& text) {
    if (NeedsQuoting(text, delimiter)) {
      out.push_back('"');
      for (char c : text) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += text;
    }
  };

  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out.push_back(delimiter);
    append_field(table.column_name(c));
  }
  out.push_back('\n');

  char buffer[64];
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out.push_back(delimiter);
      const Column& column = table.column(c);
      if (column.IsNull(r)) continue;  // NULL = empty field.
      switch (column.type()) {
        case DataType::kInt64:
          std::snprintf(buffer, sizeof(buffer), "%lld",
                        static_cast<long long>(column.GetInt64(r)));
          out += buffer;
          break;
        case DataType::kDouble:
          std::snprintf(buffer, sizeof(buffer), "%.17g", column.GetDouble(r));
          out += buffer;
          break;
        case DataType::kString:
          append_field(column.GetString(r));
          break;
      }
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace csv_oracle
}  // namespace hwf
