#ifndef HWF_STORAGE_COLUMN_H_
#define HWF_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace hwf {

/// Column data types. The library is deliberately small here: the paper's
/// algorithms reduce every SQL type to integers during preprocessing
/// (§5.1), so three logical types suffice to express all evaluated queries.
enum class DataType {
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeName(DataType type);

/// A nullable scalar, used for literals and row-wise access in tests and
/// examples. Columnar code paths use the typed Column accessors instead.
class Value {
 public:
  static Value Null(DataType type) {
    Value v;
    v.type_ = type;
    v.is_null_ = true;
    return v;
  }
  static Value Int64(int64_t value) {
    Value v;
    v.type_ = DataType::kInt64;
    v.int_ = value;
    return v;
  }
  static Value Double(double value) {
    Value v;
    v.type_ = DataType::kDouble;
    v.double_ = value;
    return v;
  }
  static Value String(std::string value) {
    Value v;
    v.type_ = DataType::kString;
    v.string_ = std::move(value);
    return v;
  }

  DataType type() const { return type_; }
  bool is_null() const { return is_null_; }
  int64_t int64() const {
    HWF_DCHECK(!is_null_ && type_ == DataType::kInt64);
    return int_;
  }
  double dbl() const {
    HWF_DCHECK(!is_null_ && type_ == DataType::kDouble);
    return double_;
  }
  const std::string& str() const {
    HWF_DCHECK(!is_null_ && type_ == DataType::kString);
    return string_;
  }

  bool operator==(const Value& other) const;

  /// Human-readable rendering ("NULL", "42", "3.14", "'abc'").
  std::string ToString() const;

 private:
  DataType type_ = DataType::kInt64;
  bool is_null_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
};

/// A typed, nullable, in-memory column.
///
/// Values are stored in a contiguous typed vector plus a byte validity
/// mask. Columns support both append-style construction (data loading) and
/// positional writes into a pre-sized all-NULL column (result assembly in
/// the window executor).
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  /// Creates a column of `size` NULL entries to be filled positionally.
  Column(DataType type, size_t size);

  /// Factories from plain vectors. `validity` holds one byte per value
  /// (0 = NULL); left empty, every value is valid.
  static Column FromInt64(std::vector<int64_t> values,
                          std::vector<uint8_t> validity = {});
  static Column FromDouble(std::vector<double> values,
                           std::vector<uint8_t> validity = {});
  static Column FromString(std::vector<std::string> values,
                           std::vector<uint8_t> validity = {});

  DataType type() const { return type_; }
  size_t size() const { return validity_.size(); }

  void Reserve(size_t capacity);

  void AppendInt64(int64_t value);
  void AppendDouble(double value);
  void AppendString(std::string value);
  void AppendNull();
  void AppendValue(const Value& value);

  void SetInt64(size_t row, int64_t value);
  void SetDouble(size_t row, double value);
  void SetString(size_t row, std::string value);
  void SetNull(size_t row);

  bool IsNull(size_t row) const {
    HWF_DCHECK(row < validity_.size());
    return validity_[row] == 0;
  }
  int64_t GetInt64(size_t row) const {
    HWF_DCHECK(type_ == DataType::kInt64 && !IsNull(row));
    return ints_[row];
  }
  double GetDouble(size_t row) const {
    HWF_DCHECK(type_ == DataType::kDouble && !IsNull(row));
    return doubles_[row];
  }
  const std::string& GetString(size_t row) const {
    HWF_DCHECK(type_ == DataType::kString && !IsNull(row));
    return strings_[row];
  }

  /// Numeric value as double regardless of kInt64/kDouble storage.
  /// Checked against kString.
  double GetNumeric(size_t row) const {
    HWF_DCHECK(!IsNull(row));
    if (type_ == DataType::kInt64) return static_cast<double>(ints_[row]);
    HWF_CHECK(type_ == DataType::kDouble);
    return doubles_[row];
  }

  /// Hints that `row` is about to be read (validity byte + typed value).
  /// Batched consumers prefetch a few rows ahead so random-access gathers
  /// overlap their cache misses.
  void PrefetchRow(size_t row) const {
    HWF_DCHECK(row < validity_.size());
    HWF_PREFETCH(validity_.data() + row);
    switch (type_) {
      case DataType::kInt64:
        HWF_PREFETCH(ints_.data() + row);
        break;
      case DataType::kDouble:
        HWF_PREFETCH(doubles_.data() + row);
        break;
      case DataType::kString:
        HWF_PREFETCH(strings_.data() + row);
        break;
    }
  }

  Value GetValue(size_t row) const;

  /// Three-way comparison of two non-NULL entries: negative, 0, positive.
  /// NULL ordering policy is the caller's responsibility. Doubles are
  /// totally ordered: -0.0 equals 0.0, NaNs equal each other and sort above
  /// +inf (the order of window/sort_keys.h's words).
  int Compare(size_t a, size_t b) const;

  /// A 64-bit value hash for partitioning and duplicate detection. Equal
  /// values under Compare hash equally across rows (so every NaN payload
  /// hashes alike); NULL has a dedicated hash.
  uint64_t Hash(size_t row) const;

 private:
  void SetValidity(size_t size, std::vector<uint8_t> validity);

  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> validity_;
};

}  // namespace hwf

#endif  // HWF_STORAGE_COLUMN_H_
