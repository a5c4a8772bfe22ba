#include "window/sort_keys.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"

namespace hwf {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr uint64_t kCanonicalNanBits = 0x7ff8000000000000ULL;

/// Word positions of a string key hold a distinct-value id after this pass;
/// returns the id -> 1 + rank table. One hash pass dedups the values, one
/// sort orders the distinct ones.
std::vector<uint64_t> StringRanks(const Column& column,
                                  std::span<const size_t> rows,
                                  std::vector<uint64_t>* words) {
  std::unordered_map<std::string_view, uint64_t> ids;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t row = rows[i];
    if (column.IsNull(row)) continue;
    (*words)[i] =
        ids.try_emplace(std::string_view(column.GetString(row)), ids.size())
            .first->second;
  }
  std::vector<std::pair<std::string_view, uint64_t>> distinct(ids.begin(),
                                                              ids.end());
  std::sort(distinct.begin(), distinct.end());
  std::vector<uint64_t> rank_of_id(distinct.size());
  for (size_t r = 0; r < distinct.size(); ++r) {
    rank_of_id[distinct[r].second] = r + 1;
  }
  return rank_of_id;
}

/// Appends the array(s) of one key over the positions of `rows`.
void EncodeKey(const Column& column, const SortKey& key,
               std::span<const size_t> rows, ThreadPool& pool,
               std::vector<std::vector<uint64_t>>* arrays) {
  const size_t n = rows.size();
  std::vector<uint64_t> words(n);
  std::vector<uint64_t> rank_of_id;
  if (column.type() == DataType::kString) {
    rank_of_id = StringRanks(column, rows, &words);
  }
  const uint64_t null_word = key.nulls_first ? 0 : ~uint64_t{0};
  std::atomic<bool> has_null{false};
  std::atomic<bool> has_extreme{false};
  ParallelFor(
      0, n,
      [&](size_t lo, size_t hi) {
        bool nulls = false;
        bool extremes = false;
        for (size_t i = lo; i < hi; ++i) {
          const size_t row = rows[i];
          if (column.IsNull(row)) {
            words[i] = null_word;
            nulls = true;
            continue;
          }
          uint64_t word = 0;
          switch (column.type()) {
            case DataType::kInt64:
              word = EncodeInt64Key(column.GetInt64(row), key.ascending);
              break;
            case DataType::kDouble:
              word = EncodeDoubleKey(column.GetDouble(row), key.ascending);
              break;
            case DataType::kString:
              word = key.ascending ? rank_of_id[words[i]]
                                   : ~rank_of_id[words[i]];
              break;
          }
          words[i] = word;
          extremes |= word == 0 || word == ~uint64_t{0};
        }
        if (nulls) has_null.store(true, std::memory_order_relaxed);
        if (extremes) has_extreme.store(true, std::memory_order_relaxed);
      },
      pool);
  if (has_null.load() && has_extreme.load()) {
    // A NULL word would tie with INT64_MIN or INT64_MAX: rank NULLs apart.
    std::vector<uint64_t> null_rank(n);
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            if (column.IsNull(rows[i])) {
              null_rank[i] = key.nulls_first ? 0 : 2;
              words[i] = 0;
            } else {
              null_rank[i] = 1;
            }
          }
        },
        pool);
    arrays->push_back(std::move(null_rank));
  }
  arrays->push_back(std::move(words));
}

}  // namespace

uint64_t EncodeInt64Key(int64_t value, bool ascending) {
  const uint64_t encoded = static_cast<uint64_t>(value) ^ kSignBit;
  return ascending ? encoded : ~encoded;
}

uint64_t EncodeDoubleKey(double value, bool ascending) {
  uint64_t bits;
  if (std::isnan(value)) {
    bits = kCanonicalNanBits;
  } else {
    if (value == 0.0) value = 0.0;  // -0.0 == 0.0
    std::memcpy(&bits, &value, sizeof(bits));
  }
  const uint64_t encoded = (bits & kSignBit) ? ~bits : (bits | kSignBit);
  return ascending ? encoded : ~encoded;
}

SortKeyWords SortKeyWords::Encode(const Table& table,
                                  std::span<const SortKey> keys,
                                  std::span<const size_t> rows,
                                  ThreadPool& pool) {
  SortKeyWords result;
  result.size_ = rows.size();
  for (const SortKey& key : keys) {
    EncodeKey(table.column(key.column), key, rows, pool, &result.arrays_);
    result.key_arrays_.push_back(result.arrays_.size());
  }
  for (const std::vector<uint64_t>& array : result.arrays_) {
    result.pointers_.push_back(array.data());
  }
  return result;
}

std::vector<uint64_t> SortKeyWords::TakeCode(ThreadPool& pool) && {
  if (arrays_.size() == 1) return std::move(arrays_[0]);
  std::vector<uint64_t> code(size_, 0);
  if (arrays_.empty() || size_ == 0) return code;
  std::vector<size_t> order(size_);
  std::iota(order.begin(), order.end(), size_t{0});
  ParallelSort(order, Less(), pool);
  uint64_t next = 0;
  for (size_t j = 1; j < size_; ++j) {
    if (!EqualOnKeys(order[j - 1], order[j], num_keys())) ++next;
    code[order[j]] = next;
  }
  return code;
}

}  // namespace hwf
