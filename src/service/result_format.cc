#include "service/result_format.h"

#include <cctype>
#include <cstdio>

#include "storage/csv.h"

namespace hwf {
namespace service {
namespace {

void AppendJsonString(const std::string& value, std::string* out) {
  out->push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonValue(const Column& column, size_t row, std::string* out) {
  if (column.IsNull(row)) {
    *out += "null";
    return;
  }
  switch (column.type()) {
    case DataType::kInt64:
      AppendInt64Text(column.GetInt64(row), out);
      break;
    case DataType::kDouble:
      AppendDoubleText(column.GetDouble(row), out);
      break;
    case DataType::kString:
      AppendJsonString(column.GetString(row), out);
      break;
  }
}

std::string ToJson(const Table& table) {
  std::string out = "{\"columns\":[";
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out.push_back(',');
    AppendJsonString(table.column_name(c), &out);
  }
  out += "],\"rows\":[";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r > 0) out.push_back(',');
    out.push_back('[');
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out.push_back(',');
      AppendJsonValue(table.column(c), r, &out);
    }
    out.push_back(']');
  }
  out += "]}\n";
  return out;
}

}  // namespace

StatusOr<ResultFormat> ParseResultFormat(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "csv") return ResultFormat::kCsv;
  if (lower == "json") return ResultFormat::kJson;
  return Status::InvalidArgument("unknown result format '" +
                                 std::string(name) + "' (want csv or json)");
}

std::string FormatTable(const Table& table, ResultFormat format) {
  switch (format) {
    case ResultFormat::kCsv:
      return ToCsv(table);
    case ResultFormat::kJson:
      return ToJson(table);
  }
  return std::string();
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 3;
    case StatusCode::kOutOfRange:
      return 4;
    case StatusCode::kNotImplemented:
      return 5;
    case StatusCode::kTypeMismatch:
      return 6;
    case StatusCode::kInternal:
      return 7;
    case StatusCode::kResourceExhausted:
      return 8;
    case StatusCode::kCancelled:
      return 9;
    case StatusCode::kDeadlineExceeded:
      return 10;
  }
  return 1;
}

}  // namespace service
}  // namespace hwf
