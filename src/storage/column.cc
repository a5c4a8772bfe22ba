#include "storage/column.h"

#include <cmath>
#include <cstring>

namespace hwf {

namespace {

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const char* data, size_t len) {
  // FNV-1a with a strengthening final mix.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

constexpr uint64_t kNullHash = 0x6e756c6c6e756c6cULL;  // "nullnull"
constexpr uint64_t kCanonicalNanBits = 0x7ff8000000000000ULL;

}  // namespace

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  if (is_null_ || other.is_null_) return is_null_ == other.is_null_;
  switch (type_) {
    case DataType::kInt64:
      return int_ == other.int_;
    case DataType::kDouble:
      return double_ == other.double_;
    case DataType::kString:
      return string_ == other.string_;
  }
  return false;
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case DataType::kInt64:
      return std::to_string(int_);
    case DataType::kDouble: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%g", double_);
      return buffer;
    }
    case DataType::kString:
      return "'" + string_ + "'";
  }
  return "?";
}

Column::Column(DataType type, size_t size) : type_(type) {
  validity_.assign(size, 0);
  switch (type_) {
    case DataType::kInt64:
      ints_.assign(size, 0);
      break;
    case DataType::kDouble:
      doubles_.assign(size, 0);
      break;
    case DataType::kString:
      strings_.assign(size, std::string());
      break;
  }
}

void Column::SetValidity(size_t size, std::vector<uint8_t> validity) {
  if (validity.empty()) {
    validity_.assign(size, 1);
  } else {
    HWF_CHECK(validity.size() == size);
    validity_ = std::move(validity);
  }
}

Column Column::FromInt64(std::vector<int64_t> values,
                         std::vector<uint8_t> validity) {
  Column column(DataType::kInt64);
  column.SetValidity(values.size(), std::move(validity));
  column.ints_ = std::move(values);
  return column;
}

Column Column::FromDouble(std::vector<double> values,
                          std::vector<uint8_t> validity) {
  Column column(DataType::kDouble);
  column.SetValidity(values.size(), std::move(validity));
  column.doubles_ = std::move(values);
  return column;
}

Column Column::FromString(std::vector<std::string> values,
                          std::vector<uint8_t> validity) {
  Column column(DataType::kString);
  column.SetValidity(values.size(), std::move(validity));
  column.strings_ = std::move(values);
  return column;
}

void Column::Reserve(size_t capacity) {
  validity_.reserve(capacity);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(capacity);
      break;
    case DataType::kDouble:
      doubles_.reserve(capacity);
      break;
    case DataType::kString:
      strings_.reserve(capacity);
      break;
  }
}

void Column::AppendInt64(int64_t value) {
  HWF_CHECK(type_ == DataType::kInt64);
  ints_.push_back(value);
  validity_.push_back(1);
}

void Column::AppendDouble(double value) {
  HWF_CHECK(type_ == DataType::kDouble);
  doubles_.push_back(value);
  validity_.push_back(1);
}

void Column::AppendString(std::string value) {
  HWF_CHECK(type_ == DataType::kString);
  strings_.push_back(std::move(value));
  validity_.push_back(1);
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
  validity_.push_back(0);
}

void Column::AppendValue(const Value& value) {
  HWF_CHECK(value.type() == type_);
  if (value.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(value.int64());
      break;
    case DataType::kDouble:
      AppendDouble(value.dbl());
      break;
    case DataType::kString:
      AppendString(value.str());
      break;
  }
}

void Column::SetInt64(size_t row, int64_t value) {
  HWF_CHECK(type_ == DataType::kInt64);
  HWF_DCHECK(row < size());
  ints_[row] = value;
  validity_[row] = 1;
}

void Column::SetDouble(size_t row, double value) {
  HWF_CHECK(type_ == DataType::kDouble);
  HWF_DCHECK(row < size());
  doubles_[row] = value;
  validity_[row] = 1;
}

void Column::SetString(size_t row, std::string value) {
  HWF_CHECK(type_ == DataType::kString);
  HWF_DCHECK(row < size());
  strings_[row] = std::move(value);
  validity_[row] = 1;
}

void Column::SetNull(size_t row) {
  HWF_DCHECK(row < size());
  validity_[row] = 0;
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null(type_);
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(ints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::String(strings_[row]);
  }
  return Value::Null(type_);
}

int Column::Compare(size_t a, size_t b) const {
  HWF_DCHECK(!IsNull(a) && !IsNull(b));
  switch (type_) {
    case DataType::kInt64:
      return ints_[a] < ints_[b] ? -1 : (ints_[a] > ints_[b] ? 1 : 0);
    case DataType::kDouble: {
      const double x = doubles_[a];
      const double y = doubles_[b];
      if (x < y) return -1;
      if (x > y) return 1;
      // Equal (-0.0 == 0.0), or a NaN: NaNs equal each other and sort
      // above every number, so the order stays total.
      return static_cast<int>(std::isnan(x)) - static_cast<int>(std::isnan(y));
    }
    case DataType::kString:
      return strings_[a].compare(strings_[b]) < 0
                 ? -1
                 : (strings_[a] == strings_[b] ? 0 : 1);
  }
  return 0;
}

uint64_t Column::Hash(size_t row) const {
  if (IsNull(row)) return kNullHash;
  switch (type_) {
    case DataType::kInt64:
      return Mix64(static_cast<uint64_t>(ints_[row]));
    case DataType::kDouble: {
      double d = doubles_[row];
      if (d == 0.0) d = 0.0;  // Canonicalize -0.0 to +0.0.
      uint64_t bits = kCanonicalNanBits;  // Every NaN payload is one value.
      if (!std::isnan(d)) std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case DataType::kString:
      return HashBytes(strings_[row].data(), strings_[row].size());
  }
  return 0;
}

}  // namespace hwf
