#ifndef HWF_WINDOW_SORT_KEYS_H_
#define HWF_WINDOW_SORT_KEYS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/thread_pool.h"
#include "storage/table.h"
#include "window/spec.h"

namespace hwf {

/// Order-preserving 64-bit encodings of one non-NULL value, complemented
/// for DESC. Doubles follow SQL's total order: -0.0 equals 0.0, every NaN
/// payload is one value, and NaN sorts above +inf.
uint64_t EncodeInt64Key(int64_t value, bool ascending);
uint64_t EncodeDoubleKey(double value, bool ascending);

/// Positions compared on word arrays in turn, then on the position itself:
/// a strict total order. Trivially copyable (sorts pass comparators by
/// value); it points into the SortKeyWords it came from.
struct WordLess {
  const uint64_t* const* arrays = nullptr;
  size_t num_arrays = 0;

  bool operator()(size_t a, size_t b) const {
    for (size_t k = 0; k < num_arrays; ++k) {
      const uint64_t x = arrays[k][a];
      const uint64_t y = arrays[k][b];
      if (x != y) return x < y;
    }
    return a < b;
  }
};

/// The library's one sort-key encoding, standing in for the paper's
/// query-specialised comparators (§5.4): a key list over a row set becomes
/// word arrays whose lexicographic order is exactly the SQL order, with
/// equal words exactly for peers. Every row sort, merge and peer or
/// partition boundary check of the executor and the evaluators compares
/// these words instead of column values.
///
/// Per key, in key order:
///   - int64: sign bit flipped; double: EncodeDoubleKey; string: 1 + the
///     value's rank among the key's distinct strings (the only string sort);
///   - DESC complements the word;
///   - NULL is word 0 for NULLS FIRST and ~0 for NULLS LAST. Only INT64_MIN
///     and INT64_MAX encode to those words; a key whose rows hold both such
///     a value and a NULL gets a leading null-rank array (0 = NULLS FIRST,
///     1 = value, 2 = NULLS LAST) before its value array.
class SortKeyWords {
 public:
  SortKeyWords() = default;
  SortKeyWords(SortKeyWords&&) = default;
  SortKeyWords& operator=(SortKeyWords&&) = default;

  /// Encodes `keys` over `rows`: position i stands for table row rows[i].
  static SortKeyWords Encode(const Table& table, std::span<const SortKey> keys,
                             std::span<const size_t> rows, ThreadPool& pool);

  size_t size() const { return size_; }
  size_t num_keys() const { return key_arrays_.size() - 1; }
  size_t num_arrays() const { return arrays_.size(); }

  /// The order over all keys, then position.
  WordLess Less() const { return {pointers_.data(), pointers_.size()}; }

  /// True when positions a and b are peers on the first `num_keys` keys.
  bool EqualOnKeys(size_t a, size_t b, size_t num_keys) const {
    for (size_t k = 0; k < key_arrays_[num_keys]; ++k) {
      if (arrays_[k][a] != arrays_[k][b]) return false;
    }
    return true;
  }

  size_t ApproxBytes() const {
    return arrays_.size() * size_ * sizeof(uint64_t);
  }

  /// One code per position with the same order and the same peers as the
  /// words: the single array itself, a dense rank when there are several,
  /// all zeros for an empty key list. Consumes the words.
  std::vector<uint64_t> TakeCode(ThreadPool& pool) &&;

 private:
  size_t size_ = 0;
  std::vector<std::vector<uint64_t>> arrays_;
  std::vector<const uint64_t*> pointers_;
  /// key_arrays_[k]: the number of arrays of the first k keys.
  std::vector<size_t> key_arrays_{0};
};

}  // namespace hwf

#endif  // HWF_WINDOW_SORT_KEYS_H_
