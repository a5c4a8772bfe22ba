#include "storage/csv.h"

#include <sys/stat.h>

#include <bit>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

namespace hwf {

namespace {

/// One tokenized field. Most fields are views into the input; a quoted
/// field whose text differs from its bytes (a doubled quote, or text after
/// the closing quote) is unescaped into the reader's arena instead.
struct Field {
  enum Kind : uint8_t {
    kNull,   // An empty unquoted field.
    kInput,  // Text at input offset `begin`, `size` bytes.
    kArena,  // Text is arena[begin].
  };
  size_t begin = 0;
  uint32_t size = 0;
  Kind kind = kNull;
};

/// strtoll / strtod acceptance: the whole text, base 10, no ERANGE.
bool StrtollAccepts(const std::string& text, int64_t* value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *value = parsed;
  return true;
}

bool StrtodAccepts(const std::string& text, double* value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *value = parsed;
  return true;
}

/// from_chars accepts a subset of what strtoll takes (no leading space or
/// '+'), with the same values and range; anything it rejects is decided by
/// strtoll itself.
bool ParseInt(std::string_view text, int64_t* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  if (ec == std::errc() && ptr == end) return true;
  return StrtollAccepts(std::string(text), value);
}

/// from_chars and strtod round alike, but strtod also takes leading space,
/// '+' and hex, keeps NaN payloads, and flags ERANGE on any result below
/// DBL_MIN in magnitude, even one that rounds up to it. So only a result
/// that is zero or above DBL_MIN (never a NaN) is taken from from_chars.
bool ParseDouble(std::string_view text, double* value) {
  const char* end = text.data() + text.size();
  double parsed;
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec == std::errc() && ptr == end &&
      (parsed == 0 || std::fabs(parsed) > DBL_MIN)) {
    *value = parsed;
    return true;
  }
  return StrtodAccepts(std::string(text), value);
}

/// The two-pass reader. Pass 1 (Tokenize) splits the input into one field
/// vector per column, checking each record's width; pass 2 (BuildColumn)
/// infers each column's type and converts its fields straight into the
/// typed vector.
class CsvReader {
 public:
  CsvReader(std::string_view input, char delimiter)
      : data_(input.data()), size_(input.size()), delimiter_(delimiter) {}

  StatusOr<Table> Read() {
    Status status = Tokenize();
    if (!status.ok()) return status;
    Table table;
    for (size_t c = 0; c < names_.size(); ++c) {
      Column column = BuildColumn(columns_[c]);
      columns_[c] = {};
      table.AddColumn(std::move(names_[c]), std::move(column));
    }
    return table;
  }

 private:
  Status Tokenize() {
    // Blank lines before the header are noise.
    while (const size_t blank = BlankLineLength()) pos_ += blank;
    if (pos_ == size_) {
      return Status::InvalidArgument("CSV has no header record");
    }
    std::vector<Field> header;
    do {
      Field field;
      Status status = ReadField(&field);
      if (!status.ok()) return status;
      header.push_back(field);
    } while (NextField());
    for (const Field& field : header) names_.emplace_back(Text(field));
    const size_t num_columns = header.size();
    columns_.resize(num_columns);

    size_t num_rows = 0;
    while (pos_ < size_) {
      // A blank line: a one-column table serializes a NULL row that way,
      // so there it is a record; no wider row renders as one, so there it
      // stays skipped for leniency with hand-authored files.
      if (const size_t blank = BlankLineLength()) {
        pos_ += blank;
        if (num_columns == 1) {
          columns_[0].push_back(Field{});
          ++num_rows;
        }
        continue;
      }
      size_t width = 0;
      do {
        Field field;
        Status status = ReadField(&field);
        if (!status.ok()) return status;
        if (width < num_columns) columns_[width].push_back(field);
        ++width;
      } while (NextField());
      if (width != num_columns) {
        return Status::InvalidArgument(
            "CSV record " + std::to_string(num_rows + 2) + " has " +
            std::to_string(width) + " fields, expected " +
            std::to_string(num_columns));
      }
      ++num_rows;
    }
    return Status::OK();
  }

  /// Length of the blank line (LF or CRLF) at pos_, or 0 when there is
  /// none.
  size_t BlankLineLength() const {
    if (pos_ == size_ || delimiter_ == '\n') return 0;
    if (data_[pos_] == '\n') return 1;
    const bool crlf = data_[pos_] == '\r' && delimiter_ != '\r' &&
                      pos_ + 1 < size_ && data_[pos_ + 1] == '\n';
    return crlf ? 2 : 0;
  }

  /// After a field: consumes its terminator and reports whether another
  /// field of the same record follows.
  bool NextField() {
    if (pos_ == size_) return false;
    const bool delimiter = data_[pos_] == delimiter_;
    ++pos_;
    return delimiter;
  }

  bool AtRecordEnd() const {
    return pos_ == size_ || data_[pos_] != delimiter_;
  }

  /// First position at or after `i` holding the delimiter or '\n', or the
  /// end of input. Eight bytes per step: a byte matches when it XORs to 0.
  size_t FindFieldEnd(size_t i) const {
    if constexpr (std::endian::native == std::endian::little) {
      constexpr uint64_t kOnes = 0x0101010101010101ULL;
      constexpr uint64_t kHighs = 0x8080808080808080ULL;
      const uint64_t delimiters = kOnes * static_cast<uint8_t>(delimiter_);
      const uint64_t newlines = kOnes * static_cast<uint8_t>('\n');
      while (i + 8 <= size_) {
        uint64_t word;
        std::memcpy(&word, data_ + i, 8);
        const uint64_t a = word ^ delimiters;
        const uint64_t b = word ^ newlines;
        // The lowest flagged byte is exact; flags above it may be spurious.
        const uint64_t hits = ((a - kOnes) & ~a) | ((b - kOnes) & ~b);
        if ((hits & kHighs) != 0) {
          return i + (std::countr_zero(hits & kHighs) >> 3);
        }
        i += 8;
      }
    }
    while (i < size_ && data_[i] != delimiter_ && data_[i] != '\n') ++i;
    return i;
  }

  /// Reads the field at pos_ and leaves pos_ on its terminator.
  Status ReadField(Field* field) {
    // A quote opens a quoted field only as the field's first byte.
    if (pos_ < size_ && data_[pos_] == '"') return ReadQuotedField(field);
    const size_t begin = pos_;
    pos_ = FindFieldEnd(pos_);
    size_t end = pos_;
    if (AtRecordEnd() && end > begin && data_[end - 1] == '\r') --end;
    if (end > begin) SetText(begin, end - begin, field);
    return Status::OK();
  }

  Status ReadQuotedField(Field* field) {
    const size_t open = pos_;
    size_t close = open + 1;
    bool escaped = false;
    for (;;) {
      const void* quote = std::memchr(data_ + close, '"', size_ - close);
      if (quote == nullptr) {
        return Status::InvalidArgument("CSV ends inside a quoted field");
      }
      close = static_cast<size_t>(static_cast<const char*>(quote) - data_);
      if (close + 1 == size_ || data_[close + 1] != '"') break;
      escaped = true;  // A doubled quote: one literal quote.
      close += 2;
    }
    // Text after the closing quote up to the terminator is appended
    // verbatim (quotes included), less a CR before a line end. A CR inside
    // the quotes is data.
    const size_t tail = close + 1;
    pos_ = FindFieldEnd(tail);
    size_t tail_end = pos_;
    if (AtRecordEnd() && tail_end > tail && data_[tail_end - 1] == '\r') {
      --tail_end;
    }
    if (!escaped && tail == tail_end) {
      // Never NULL: "" is a string.
      SetText(open + 1, close - (open + 1), field);
      return Status::OK();
    }
    std::string text;
    text.reserve(close - open - 1 + (pos_ - tail));
    for (size_t i = open + 1; i < close; ++i) {
      text.push_back(data_[i]);
      if (data_[i] == '"') ++i;  // The second quote of a doubled pair.
    }
    text.append(data_ + tail, tail_end - tail);
    SetArena(std::move(text), field);
    return Status::OK();
  }

  void SetText(size_t begin, size_t size, Field* field) {
    if (size > UINT32_MAX) {
      SetArena(std::string(data_ + begin, size), field);
      return;
    }
    field->kind = Field::kInput;
    field->begin = begin;
    field->size = static_cast<uint32_t>(size);
  }

  void SetArena(std::string text, Field* field) {
    field->kind = Field::kArena;
    field->begin = arena_.size();
    arena_.push_back(std::move(text));
  }

  std::string_view Text(const Field& field) const {
    switch (field.kind) {
      case Field::kNull:
        return {};
      case Field::kInput:
        return {data_ + field.begin, field.size};
      case Field::kArena:
        return arena_[field.begin];
    }
    return {};
  }

  /// Pass 2: the first of int64, double, string that accepts every
  /// non-NULL field; a column of NULLs only is a string column.
  Column BuildColumn(const std::vector<Field>& fields) const {
    const size_t n = fields.size();
    std::vector<uint8_t> validity(n);
    bool any_value = false;
    for (size_t r = 0; r < n; ++r) {
      validity[r] = fields[r].kind != Field::kNull;
      any_value |= validity[r] != 0;
    }
    if (any_value) {
      std::vector<int64_t> ints(n);
      size_t r = 0;
      while (r < n && (!validity[r] || ParseInt(Text(fields[r]), &ints[r]))) {
        ++r;
      }
      if (r == n) return Column::FromInt64(std::move(ints), std::move(validity));
    }
    if (any_value) {
      std::vector<double> doubles(n);
      size_t r = 0;
      while (r < n &&
             (!validity[r] || ParseDouble(Text(fields[r]), &doubles[r]))) {
        ++r;
      }
      if (r == n) {
        return Column::FromDouble(std::move(doubles), std::move(validity));
      }
    }
    std::vector<std::string> strings(n);
    for (size_t r = 0; r < n; ++r) {
      if (validity[r]) strings[r] = Text(fields[r]);
    }
    return Column::FromString(std::move(strings), std::move(validity));
  }

  const char* const data_;
  const size_t size_;
  const char delimiter_;
  size_t pos_ = 0;
  std::vector<std::string> names_;
  std::vector<std::vector<Field>> columns_;
  std::vector<std::string> arena_;
};

bool NeedsQuoting(const std::string& text, char delimiter) {
  for (const char c : text) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(const std::string& text, char delimiter, std::string* out) {
  if (!NeedsQuoting(text, delimiter)) {
    *out += text;
    return;
  }
  out->push_back('"');
  for (const char c : text) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

void AppendInt64Text(int64_t value, std::string* out) {
  char buffer[24];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void AppendDoubleText(double value, std::string* out) {
  // printf's "%g" at precision 17 in to_chars terms: general format,
  // trailing zeros dropped, and glibc's "nan"/"-nan"/"inf"/"-inf".
  char buffer[32];
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  out->append(buffer, result.ptr);
}

StatusOr<Table> ParseCsv(const std::string& content, char delimiter) {
  return CsvReader(content, delimiter).Read();
}

StatusOr<Table> ReadCsvFile(const std::string& path, char delimiter) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "': " + std::strerror(errno));
  }
  // The whole file in one buffer sized from fstat; the loop also covers
  // files whose size fstat does not know (pipes, /proc).
  // One byte past the size lets the first read see the end of the file.
  struct stat info;
  size_t capacity = size_t{1} << 16;
  if (fstat(fileno(file), &info) == 0 && info.st_size > 0) {
    capacity = static_cast<size_t>(info.st_size) + 1;
  }
  std::string content(capacity, '\0');
  size_t filled = 0;
  for (;;) {
    filled +=
        std::fread(content.data() + filled, 1, content.size() - filled, file);
    if (filled < content.size()) break;  // End of file or an error.
    content.resize(content.size() * 2);
  }
  content.resize(filled);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::InvalidArgument("error reading '" + path + "'");
  }
  return ParseCsv(content, delimiter);
}

std::string ToCsv(const Table& table, char delimiter) {
  constexpr size_t kSampleRows = 64;
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out.push_back(delimiter);
    AppendField(table.column_name(c), delimiter, &out);
  }
  out.push_back('\n');

  const size_t header_size = out.size();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r == kSampleRows) {
      // Room for the rest at the sampled rows' mean width, plus 1/8.
      const size_t row_width = (out.size() - header_size) / kSampleRows;
      out.reserve(out.size() + (table.num_rows() - r) * row_width * 9 / 8);
    }
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out.push_back(delimiter);
      const Column& column = table.column(c);
      if (column.IsNull(r)) continue;  // NULL = empty field.
      switch (column.type()) {
        case DataType::kInt64:
          AppendInt64Text(column.GetInt64(r), &out);
          break;
        case DataType::kDouble:
          AppendDoubleText(column.GetDouble(r), &out);
          break;
        case DataType::kString:
          AppendField(column.GetString(r), delimiter, &out);
          break;
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "' for writing: " + std::strerror(errno));
  }
  const std::string content = ToCsv(table, delimiter);
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  if (written != content.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace hwf
