#ifndef HWF_WINDOW_FUNCTIONS_COMMON_H_
#define HWF_WINDOW_FUNCTIONS_COMMON_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mst/preprocess.h"
#include "mst/remap.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "window/evaluator.h"
#include "window/sort_keys.h"

namespace hwf {
namespace internal_window {

/// The SQL order of doubles, as Column::Compare defines it: -0.0 equals
/// 0.0, NaNs equal each other and sort above +inf. Every evaluator that
/// orders argument values compares them with this, never with raw `<`.
inline bool SqlDoubleLess(double a, double b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

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
/// codes where equal values get equal codes (Column::Hash). For int64 and
/// double arguments the mapping is injective on values (Mix64 is a
/// bijection; -0.0 and every NaN payload are canonicalised first); for
/// strings it is a high-quality hash (§6.7 — the paper's implementation
/// sorts hashes too).
std::vector<uint64_t> GatherArgumentCodes(const PartitionView& view,
                                          size_t argument,
                                          const IndexRemap& remap);

/// Fused preprocessing (mst/preprocess.h) of a function order over the
/// filtered positions: the order's codes (window/sort_keys.h — code order,
/// position tiebreak, is the SQL order, and equal codes are peers), then
/// one (code, position) sort that emits the requested artifacts.
template <typename Index>
PreprocessResult<Index> PreprocessOrder(const PartitionView& view,
                                        std::span<const SortKey> order,
                                        const IndexRemap& remap,
                                        const PreprocessRequest& req) {
  std::vector<uint64_t> codes;
  {
    obs::ScopedPreprocessStepTimer gather_timer(
        view.options->profile, obs::PreprocessStep::kGatherCodes);
    std::vector<size_t> filtered_rows;
    if (!remap.is_identity()) {
      filtered_rows.resize(remap.num_surviving());
      for (size_t j = 0; j < filtered_rows.size(); ++j) {
        filtered_rows[j] = view.rows[remap.ToOriginal(j)];
      }
    }
    codes = SortKeyWords::Encode(*view.table, order,
                                 remap.is_identity()
                                     ? view.rows
                                     : std::span<const size_t>(filtered_rows),
                                 *view.pool)
                .TakeCode(*view.pool);
  }
  return PreprocessHashedCodes<Index>(codes, req, *view.pool,
                                      view.options->profile);
}

/// out[dst] = arg[src], NULL included: the result step of every function
/// that returns the argument of a selected frame row.
inline void CopyArgumentValue(const Column& arg, size_t src, Column* out,
                              size_t dst) {
  if (arg.IsNull(src)) {
    out->SetNull(dst);
    return;
  }
  switch (out->type()) {
    case DataType::kInt64:
      out->SetInt64(dst, arg.GetInt64(src));
      break;
    case DataType::kDouble:
      out->SetDouble(dst, arg.GetDouble(src));
      break;
    case DataType::kString:
      out->SetString(dst, arg.GetString(src));
      break;
  }
}

/// The 0-based function-order rank that FIRST_VALUE / LAST_VALUE /
/// NTH_VALUE / LEAD / LAG select in a frame of `total` qualifying rows,
/// `before` of which precede the current row in function order (§4.6: for
/// a current row outside its frame, that is its insertion position).
/// Returns `total` when there is no such row and the result is NULL; the
/// offset is non-negative (validated), and no sum can overflow.
inline size_t SelectedFrameRank(const WindowFunctionCall& call, size_t total,
                                size_t before) {
  const uint64_t param = static_cast<uint64_t>(call.param);
  switch (call.kind) {
    case WindowFunctionKind::kFirstValue:
      return 0;
    case WindowFunctionKind::kLastValue:
      return total == 0 ? 0 : total - 1;
    case WindowFunctionKind::kNthValue:
      return param - 1 < total ? param - 1 : total;
    case WindowFunctionKind::kLead:
      return param < total - before ? before + param : total;
    case WindowFunctionKind::kLag:
      return param <= before ? before - param : total;
    default:
      HWF_CHECK_MSG(false, "not a value function");
      return total;
  }
}

/// Whether a FIRST/LAST/NTH_VALUE or LEAD/LAG call selects in the frame
/// order: its effective order is the window's ORDER BY. Partition
/// positions are already sorted that way, ties by position, so the
/// function-order rank of a filtered position is the position itself and
/// FrameOrderSelect answers the call without a selection tree.
bool SelectsInFrameOrder(const WindowSpec& spec,
                         const WindowFunctionCall& call);

/// Evaluates a call for which SelectsInFrameOrder holds in O(1) per row:
/// the frame's filtered ranges give the row count and, clamped at the
/// current row, how many frame rows precede it; the selected rank is then
/// walked to through at most three ranges. FILTER, IGNORE NULLS and
/// EXCLUDE behave exactly as on the tree path.
Status FrameOrderSelect(const PartitionView& view,
                        const WindowFunctionCall& call, Column* out);

/// Deterministic tie-break key for MODE: order-preserving encoding for
/// numeric values (ties resolve to the smallest value), value hash for
/// strings (deterministic but implementation-defined order). Equal values
/// always map to equal keys, so the key doubles as the value's identity.
uint64_t ModeTieKey(const Column& column, size_t row);

}  // namespace internal_window
}  // namespace hwf

#endif  // HWF_WINDOW_FUNCTIONS_COMMON_H_
