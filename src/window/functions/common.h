#ifndef HWF_WINDOW_FUNCTIONS_COMMON_H_
#define HWF_WINDOW_FUNCTIONS_COMMON_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mst/remap.h"
#include "obs/counters.h"
#include "window/evaluator.h"

namespace hwf {
namespace internal_window {

/// Runs `fn` with a uint32_t or uint64_t tag depending on the partition
/// size, implementing the per-partition index-width decision of §5.1.
/// `force` is WindowExecutorOptions::force_index_width. Each decision
/// (including forced ones) is counted so profiles show which width a run
/// actually used.
template <typename Fn>
Status DispatchIndexWidth(size_t n, int force, Fn&& fn) {
  const bool fits32 = n + 2 < (uint64_t{1} << 32);
  const bool use32 = force == 32 || (force != 64 && fits32);
  obs::Add(use32 ? obs::Counter::kExecutorIndex32Dispatches
                 : obs::Counter::kExecutorIndex64Dispatches);
  if (use32) {
    HWF_CHECK_MSG(fits32, "partition too large for forced 32-bit indices");
    return fn(uint32_t{0});
  }
  return fn(uint64_t{0});
}

/// Rows per gather/probe/emit cycle in the batched window-function paths.
/// Bounds the per-thread query and range scratch while keeping enough
/// queries around to refill the probe kernel's in-flight group many times
/// over.
inline constexpr size_t kProbeChunkRows = 512;

/// Prefetch distance for the index hops that follow a batched probe
/// (selected tree position → partition row → argument value). Each hop is
/// a random access over an array far larger than cache; loading a few
/// iterations ahead overlaps those misses like the kernel overlaps its
/// descents.
inline constexpr size_t kGatherLookahead = 8;

/// dst[i] = table[src[i]] with the prefetch distance above. In-place
/// (dst == src) is allowed.
inline void GatherRowsWithPrefetch(const size_t* table, const size_t* src,
                                   size_t n, size_t* dst) {
  for (size_t i = 0; i < n; ++i) {
    if (i + kGatherLookahead < n) {
      HWF_PREFETCH(table + src[i + kGatherLookahead]);
    }
    dst[i] = table[src[i]];
  }
}

/// Value codes of the call argument over the filtered positions: 64-bit
/// codes where equal values get equal codes. For int64 and double arguments
/// the mapping is injective (Mix64 is a bijection); for strings it is a
/// high-quality hash (§6.7 — the paper's implementation sorts hashes too).
std::vector<uint64_t> GatherArgumentCodes(const PartitionView& view,
                                          size_t argument,
                                          const IndexRemap& remap);

/// Order-preserving 64-bit encoding of a numeric sort key: encoded values
/// compare like (direction-adjusted) SQL values. This is the library's
/// stand-in for Hyper's generated, query-specialized comparators (§5.4):
/// the preprocessing sorts compare two machine words instead of calling a
/// type-dispatching comparator.
uint64_t EncodeInt64Key(int64_t value, bool ascending);
uint64_t EncodeDoubleKey(double value, bool ascending);

/// Deterministic tie-break key for MODE: order-preserving encoding for
/// numeric values (ties resolve to the smallest value), value hash for
/// strings (deterministic but implementation-defined order). Equal values
/// always map to equal keys, so the key doubles as the value's identity.
uint64_t ModeTieKey(const Column& column, size_t row);

/// A comparator over *partition positions* under `order` sort keys.
///
/// On construction, single-key numeric orders are pre-encoded into
/// (null_rank, uint64) pairs so the hot comparison is two array loads;
/// multi-key or string orders fall back to the generic comparator.
class PositionLess {
 public:
  PositionLess(const PartitionView* view, std::span<const SortKey> order)
      : view_(view), order_(order) {
    if (order.size() != 1) return;
    const SortKey& key = order[0];
    const Column& column = view->col(key.column);
    if (column.type() == DataType::kString) return;
    const size_t n = view->size();
    encoded_.resize(n);
    null_rank_.resize(n);
    const bool is_int = column.type() == DataType::kInt64;
    for (size_t i = 0; i < n; ++i) {
      const size_t row = view->rows[i];
      if (column.IsNull(row)) {
        null_rank_[i] = key.nulls_first ? 0 : 2;
        encoded_[i] = 0;
      } else {
        null_rank_[i] = 1;
        encoded_[i] = is_int
                          ? EncodeInt64Key(column.GetInt64(row), key.ascending)
                          : EncodeDoubleKey(column.GetDouble(row),
                                            key.ascending);
      }
    }
  }

  bool operator()(size_t a, size_t b) const {
    if (!encoded_.empty()) {
      if (null_rank_[a] != null_rank_[b]) return null_rank_[a] < null_rank_[b];
      return encoded_[a] < encoded_[b];
    }
    return CompareRowsBy(*view_->table, view_->rows[a], view_->rows[b],
                         order_) < 0;
  }

  /// True when the order is pre-encoded — (null_rank, key) pairs fully
  /// determine the comparison, which is what lets the fused preprocessing
  /// pipeline sort records instead of calling this comparator.
  bool encoded() const { return !encoded_.empty(); }

  /// The position's (null rank, encoded key); only valid when encoded().
  std::pair<uint8_t, uint64_t> EncodedKey(size_t i) const {
    return {null_rank_[i], encoded_[i]};
  }

 private:
  const PartitionView* view_;
  std::span<const SortKey> order_;
  std::vector<uint64_t> encoded_;
  std::vector<uint8_t> null_rank_;
};

}  // namespace internal_window
}  // namespace hwf

#endif  // HWF_WINDOW_FUNCTIONS_COMMON_H_
