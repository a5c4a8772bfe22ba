#include "window/functions/common.h"

namespace hwf {
namespace internal_window {

uint64_t ModeTieKey(const Column& column, size_t row) {
  switch (column.type()) {
    case DataType::kInt64:
      return EncodeInt64Key(column.GetInt64(row), /*ascending=*/true);
    case DataType::kDouble:
      return EncodeDoubleKey(column.GetDouble(row), /*ascending=*/true);
    case DataType::kString:
      return column.Hash(row);
  }
  return 0;
}

}  // namespace internal_window
}  // namespace hwf
