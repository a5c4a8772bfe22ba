#include "dist/sharding.h"

#include <utility>

#include "storage/csv.h"

namespace hwf {
namespace dist {

namespace {

/// FNV-1a folding constants, as used by WindowSpecHash for canonical
/// field-sequence hashing.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

void AppendRowValue(const Column& src, size_t row, Column* dst) {
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

}  // namespace

uint64_t ShardHashRow(const Table& table,
                      const std::vector<size_t>& key_columns, size_t row) {
  uint64_t hash = kFnvOffset;
  for (const size_t column : key_columns) {
    hash = FnvMix(hash, table.column(column).Hash(row));
  }
  return hash;
}

size_t ShardOfRow(const Table& table, const std::vector<size_t>& key_columns,
                  size_t row, size_t num_shards) {
  return static_cast<size_t>(ShardHashRow(table, key_columns, row) %
                             num_shards);
}

StatusOr<std::vector<uint32_t>> AssignShards(
    const Table& table, const std::vector<size_t>& key_columns,
    size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("cannot shard into 0 shards");
  }
  if (key_columns.empty()) {
    return Status::InvalidArgument("shard key needs at least one column");
  }
  for (const size_t column : key_columns) {
    if (column >= table.num_columns()) {
      return Status::InvalidArgument("shard key column index " +
                                     std::to_string(column) +
                                     " out of range");
    }
  }
  std::vector<uint32_t> assignment(table.num_rows());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    assignment[row] = static_cast<uint32_t>(
        ShardOfRow(table, key_columns, row, num_shards));
  }
  return assignment;
}

Table TakeRows(const Table& table, const std::vector<uint32_t>& rows) {
  Table result;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& src = table.column(c);
    Column dst(src.type());
    dst.Reserve(rows.size());
    for (const uint32_t row : rows) {
      AppendRowValue(src, row, &dst);
    }
    result.AddColumn(table.column_name(c), std::move(dst));
  }
  return result;
}

StatusOr<ShardSplit> SplitByShardKey(
    const Table& table, const std::vector<std::string>& key_columns,
    size_t num_shards) {
  std::vector<size_t> key_indices;
  key_indices.reserve(key_columns.size());
  for (const std::string& name : key_columns) {
    StatusOr<size_t> index = table.ColumnIndex(name);
    if (!index.ok()) return index.status();
    key_indices.push_back(*index);
  }
  StatusOr<std::vector<uint32_t>> assignment =
      AssignShards(table, key_indices, num_shards);
  if (!assignment.ok()) return assignment.status();

  ShardSplit split;
  split.rows.resize(num_shards);
  // A row scan in index order makes every per-shard row-id list strictly
  // increasing for free — the invariant the gather merge relies on.
  for (size_t row = 0; row < table.num_rows(); ++row) {
    split.rows[(*assignment)[row]].push_back(static_cast<uint32_t>(row));
  }
  split.shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    split.shards.push_back(TakeRows(table, split.rows[s]));
  }
  return split;
}

StatusOr<Table> CoerceToSchema(const Table& schema, const Table& rows) {
  if (rows.num_columns() != schema.num_columns()) {
    return Status::TypeMismatch(
        "batch has " + std::to_string(rows.num_columns()) +
        " columns, table has " + std::to_string(schema.num_columns()));
  }
  Table result;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (rows.column_name(c) != schema.column_name(c)) {
      return Status::TypeMismatch("batch column " + std::to_string(c) +
                                  " is '" + rows.column_name(c) +
                                  "', table has '" + schema.column_name(c) +
                                  "'");
    }
    const Column& src = rows.column(c);
    const DataType want = schema.column(c).type();
    if (src.type() == want) {
      Column copy(src.type());
      copy.Reserve(src.size());
      for (size_t row = 0; row < src.size(); ++row) {
        AppendRowValue(src, row, &copy);
      }
      result.AddColumn(schema.column_name(c), std::move(copy));
      continue;
    }
    if (src.type() == DataType::kInt64 && want == DataType::kDouble) {
      Column widened(DataType::kDouble);
      widened.Reserve(src.size());
      for (size_t row = 0; row < src.size(); ++row) {
        if (src.IsNull(row)) {
          widened.AppendNull();
        } else {
          widened.AppendDouble(static_cast<double>(src.GetInt64(row)));
        }
      }
      result.AddColumn(schema.column_name(c), std::move(widened));
      continue;
    }
    return Status::TypeMismatch(
        std::string("batch column '") + rows.column_name(c) + "' is " +
        DataTypeName(src.type()) + ", table wants " + DataTypeName(want));
  }
  return result;
}

std::string TypeList(const Table& table) {
  std::string list;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) list.push_back(',');
    list += DataTypeName(table.column(c).type());
  }
  return list;
}

StatusOr<std::vector<DataType>> ParseTypeList(const std::string& text) {
  std::vector<DataType> types;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t comma = text.find(',', begin);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string name = text.substr(begin, end - begin);
    if (name == "int64") {
      types.push_back(DataType::kInt64);
    } else if (name == "double") {
      types.push_back(DataType::kDouble);
    } else if (name == "string") {
      types.push_back(DataType::kString);
    } else {
      return Status::InvalidArgument("unknown column type '" + name + "'");
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return types;
}

StatusOr<Table> CoerceToTypes(const std::vector<DataType>& types,
                              const Table& rows) {
  if (rows.num_columns() != types.size()) {
    return Status::TypeMismatch(
        "batch has " + std::to_string(rows.num_columns()) +
        " columns, type list declares " + std::to_string(types.size()));
  }
  Table result;
  for (size_t c = 0; c < types.size(); ++c) {
    const Column& src = rows.column(c);
    const DataType want = types[c];
    if (src.type() == want) {
      Column copy(src.type());
      copy.Reserve(src.size());
      for (size_t row = 0; row < src.size(); ++row) {
        AppendRowValue(src, row, &copy);
      }
      result.AddColumn(rows.column_name(c), std::move(copy));
      continue;
    }
    const bool to_double =
        src.type() == DataType::kInt64 && want == DataType::kDouble;
    const bool to_string = want == DataType::kString;
    if (!to_double && !to_string) {
      return Status::TypeMismatch(
          std::string("batch column '") + rows.column_name(c) + "' is " +
          DataTypeName(src.type()) + ", declared " + DataTypeName(want));
    }
    Column converted(want);
    converted.Reserve(src.size());
    for (size_t row = 0; row < src.size(); ++row) {
      if (src.IsNull(row)) {
        converted.AppendNull();
        continue;
      }
      if (to_double) {
        converted.AppendDouble(static_cast<double>(src.GetInt64(row)));
        continue;
      }
      // Numeric text that lost its quoting: re-render with ToCsv's number
      // renderer so a shipped value round-trips unchanged.
      std::string text;
      if (src.type() == DataType::kInt64) {
        AppendInt64Text(src.GetInt64(row), &text);
      } else {
        AppendDoubleText(src.GetDouble(row), &text);
      }
      converted.AppendString(std::move(text));
    }
    result.AddColumn(rows.column_name(c), std::move(converted));
  }
  return result;
}

}  // namespace dist
}  // namespace hwf
