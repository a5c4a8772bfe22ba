#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "baselines/order_statistic_tree.h"
#include "baselines/sliding.h"
#include "obs/trace.h"
#include "window/evaluator.h"
#include "window/functions/common.h"

namespace hwf {
namespace {

using internal_baselines::SlideFrames;
using internal_window::SqlDoubleLess;

/// (value, position) in SQL order: the value's total order, then the
/// position, which makes every key unique.
struct ValuePositionLess {
  bool operator()(const std::pair<double, size_t>& a,
                  const std::pair<double, size_t>& b) const {
    if (SqlDoubleLess(a.first, b.first)) return true;
    if (SqlDoubleLess(b.first, a.first)) return false;
    return a.second < b.second;
  }
};

using ValueTree = CountedBTree<std::pair<double, size_t>, ValuePositionLess>;

/// Sliding order statistic tree over (value, position) pairs — unique keys
/// make Erase unambiguous.
struct TreeState {
  const std::vector<double>* values;
  ValueTree tree;

  void Add(size_t pos) { tree.Insert({(*values)[pos], pos}); }
  void Remove(size_t pos) {
    const bool erased = tree.Erase({(*values)[pos], pos});
    HWF_DCHECK(erased);
    (void)erased;
  }
};

}  // namespace

Status EvalOrderStatisticTree(const PartitionView& view,
                              const WindowFunctionCall& call, Column* out) {
  HWF_TRACE_SCOPE_ARG("baseline.order_statistic", "rows", view.size());
  if (view.spec->frame.exclusion != FrameExclusion::kNoOthers) {
    return Status::NotImplemented(
        "order statistic tree engine does not support frame exclusion");
  }
  switch (call.kind) {
    case WindowFunctionKind::kMedian:
    case WindowFunctionKind::kPercentileDisc:
    case WindowFunctionKind::kPercentileCont: {
      const IndexRemap remap = BuildCallRemap(view, call, true);
      const Column& arg = view.col(*call.argument);
      std::vector<double> values(remap.num_surviving());
      for (size_t j = 0; j < values.size(); ++j) {
        values[j] = arg.GetNumeric(view.rows[remap.ToOriginal(j)]);
      }
      const double fraction = call.kind == WindowFunctionKind::kMedian
                                  ? 0.5
                                  : call.fraction;
      const bool cont = call.kind == WindowFunctionKind::kPercentileCont;
      SlideFrames(
          view, remap, [&] { return TreeState{&values, ValueTree()}; },
          [&](size_t i, const TreeState& state, size_t) {
            const size_t row = view.rows[i];
            const size_t total = state.tree.size();
            if (total == 0) {
              out->SetNull(row);
              return;
            }
            if (cont) {
              const double pos = fraction * static_cast<double>(total - 1);
              const size_t lo = static_cast<size_t>(std::floor(pos));
              const size_t hi = static_cast<size_t>(std::ceil(pos));
              const double lo_val = state.tree.Kth(lo).first;
              const double hi_val = state.tree.Kth(hi).first;
              const double t = pos - static_cast<double>(lo);
              out->SetDouble(row, lo_val + t * (hi_val - lo_val));
            } else {
              double pos =
                  std::ceil(fraction * static_cast<double>(total)) - 1;
              size_t idx = pos <= 0 ? 0 : static_cast<size_t>(pos);
              if (idx >= total) idx = total - 1;
              const double value = state.tree.Kth(idx).first;
              if (out->type() == DataType::kInt64) {
                out->SetInt64(row, static_cast<int64_t>(value));
              } else {
                out->SetDouble(row, value);
              }
            }
          });
      return Status::OK();
    }
    case WindowFunctionKind::kRank: {
      // Rank via a tree over the function-order codes of the frame rows.
      const IndexRemap remap = BuildCallRemap(view, call, false);
      const std::vector<SortKey> order = EffectiveOrder(*view.spec, call);
      PreprocessRequest req;
      req.want_dense = true;
      const std::vector<uint64_t> codes =
          internal_window::PreprocessOrder<uint64_t>(
              view, order, IndexRemap::Identity(view.size()), req)
              .dense_codes;
      std::vector<double> keys(remap.num_surviving());
      for (size_t j = 0; j < keys.size(); ++j) {
        keys[j] = static_cast<double>(codes[remap.ToOriginal(j)]);
      }
      SlideFrames(
          view, remap, [&] { return TreeState{&keys, ValueTree()}; },
          [&](size_t i, const TreeState& state, size_t) {
            const size_t smaller = state.tree.CountLess(
                {static_cast<double>(codes[i]), 0});
            out->SetInt64(view.rows[i], static_cast<int64_t>(smaller) + 1);
          });
      return Status::OK();
    }
    default:
      return Status::NotImplemented(
          std::string("order statistic tree engine does not support ") +
          WindowFunctionKindName(call.kind));
  }
}

}  // namespace hwf
