#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/sliding.h"
#include "obs/trace.h"
#include "window/evaluator.h"
#include "window/functions/common.h"

namespace hwf {
namespace {

using internal_baselines::SlideFrames;
using internal_window::GatherArgumentCodes;
using internal_window::SqlDoubleLess;

/// Wesley & Xu's incremental distinct state [38]: a hash table from value
/// code to its multiplicity inside the frame. O(1) amortized per frame
/// move; sums are maintained alongside for SUM/AVG DISTINCT.
struct DistinctState {
  const std::vector<uint64_t>* codes;
  const std::vector<double>* values;      // Null when counting only.
  const std::vector<int64_t>* int_values; // Exact path for int64 sums.
  std::unordered_map<uint64_t, int64_t> multiplicity;
  size_t distinct = 0;
  double sum = 0;
  int64_t int_sum = 0;

  void Add(size_t pos) {
    if (++multiplicity[(*codes)[pos]] == 1) {
      ++distinct;
      if (values != nullptr) sum += (*values)[pos];
      if (int_values != nullptr) int_sum += (*int_values)[pos];
    }
  }
  void Remove(size_t pos) {
    auto it = multiplicity.find((*codes)[pos]);
    HWF_DCHECK(it != multiplicity.end());
    if (--it->second == 0) {
      multiplicity.erase(it);
      --distinct;
      if (values != nullptr) sum -= (*values)[pos];
      if (int_values != nullptr) int_sum -= (*int_values)[pos];
    }
  }
};

/// Wesley & Xu's incremental percentile state [38]: a sorted array with
/// binary-search insertion and deletion — O(frame size) per move, which is
/// the O(n²) behavior Table 1 lists.
struct SortedValuesState {
  const std::vector<double>* values;
  std::vector<double> sorted;

  void Add(size_t pos) {
    const double v = (*values)[pos];
    sorted.insert(
        std::lower_bound(sorted.begin(), sorted.end(), v, SqlDoubleLess), v);
  }
  void Remove(size_t pos) {
    // Any value equal to v in SQL order will do (-0.0 for 0.0, one NaN
    // for another): the multiset of ranks stays the same.
    const double v = (*values)[pos];
    auto it = std::lower_bound(sorted.begin(), sorted.end(), v, SqlDoubleLess);
    HWF_DCHECK(it != sorted.end() && !SqlDoubleLess(v, *it));
    sorted.erase(it);
  }
};

/// Wesley & Xu's incremental MODE state [38]: per-value counts plus an
/// ordered ranking of (count, ~tiekey) pairs, so the current mode — the
/// most frequent value, ties to the smallest tiekey — is O(log) per frame
/// move and O(1) to read.
struct ModeState {
  const std::vector<uint64_t>* tiekeys;
  std::unordered_map<uint64_t, int64_t> counts;         // tiekey -> count
  std::unordered_map<uint64_t, size_t> representative;  // tiekey -> position
  std::set<std::pair<int64_t, uint64_t>> ranking;       // (count, ~tiekey)

  void Add(size_t pos) {
    const uint64_t tiekey = (*tiekeys)[pos];
    int64_t& count = counts[tiekey];
    if (count > 0) ranking.erase({count, ~tiekey});
    ++count;
    ranking.insert({count, ~tiekey});
    representative.try_emplace(tiekey, pos);
  }
  void Remove(size_t pos) {
    const uint64_t tiekey = (*tiekeys)[pos];
    auto it = counts.find(tiekey);
    HWF_DCHECK(it != counts.end() && it->second > 0);
    ranking.erase({it->second, ~tiekey});
    if (--it->second > 0) {
      ranking.insert({it->second, ~tiekey});
    } else {
      counts.erase(it);
    }
  }
  /// Position of the mode's representative, or nullopt for an empty frame.
  std::optional<size_t> Best() const {
    if (ranking.empty()) return std::nullopt;
    const uint64_t tiekey = ~ranking.rbegin()->second;
    return representative.at(tiekey);
  }
};

std::vector<double> GatherValues(const PartitionView& view, size_t argument,
                                 const IndexRemap& remap) {
  const Column& column = view.col(argument);
  std::vector<double> values(remap.num_surviving());
  for (size_t j = 0; j < values.size(); ++j) {
    values[j] = column.GetNumeric(view.rows[remap.ToOriginal(j)]);
  }
  return values;
}

}  // namespace

Status EvalIncremental(const PartitionView& view,
                       const WindowFunctionCall& call, Column* out) {
  HWF_TRACE_SCOPE_ARG("baseline.incremental", "rows", view.size());
  if (view.spec->frame.exclusion != FrameExclusion::kNoOthers) {
    return Status::NotImplemented(
        "incremental engine does not support frame exclusion");
  }
  switch (call.kind) {
    case WindowFunctionKind::kCountDistinct: {
      const IndexRemap remap = BuildCallRemap(view, call, true);
      const std::vector<uint64_t> codes =
          GatherArgumentCodes(view, *call.argument, remap);
      SlideFrames(
          view, remap,
          [&] {
            return DistinctState{&codes, nullptr, nullptr, {}, 0, 0, 0};
          },
          [&](size_t i, const DistinctState& state, size_t) {
            out->SetInt64(view.rows[i], static_cast<int64_t>(state.distinct));
          });
      return Status::OK();
    }
    case WindowFunctionKind::kSumDistinct:
    case WindowFunctionKind::kAvgDistinct: {
      const IndexRemap remap = BuildCallRemap(view, call, true);
      const std::vector<uint64_t> codes =
          GatherArgumentCodes(view, *call.argument, remap);
      const bool int_sum = call.kind == WindowFunctionKind::kSumDistinct &&
                           out->type() == DataType::kInt64;
      std::vector<double> values;
      std::vector<int64_t> int_values;
      if (int_sum) {
        const Column& arg = view.col(*call.argument);
        int_values.resize(remap.num_surviving());
        for (size_t j = 0; j < int_values.size(); ++j) {
          int_values[j] = arg.GetInt64(view.rows[remap.ToOriginal(j)]);
        }
      } else {
        values = GatherValues(view, *call.argument, remap);
      }
      SlideFrames(
          view, remap,
          [&] {
            return DistinctState{&codes,
                                 int_sum ? nullptr : &values,
                                 int_sum ? &int_values : nullptr,
                                 {},
                                 0,
                                 0,
                                 0};
          },
          [&](size_t i, const DistinctState& state, size_t) {
            const size_t row = view.rows[i];
            if (state.distinct == 0) {
              out->SetNull(row);
            } else if (call.kind == WindowFunctionKind::kAvgDistinct) {
              out->SetDouble(row, state.sum /
                                      static_cast<double>(state.distinct));
            } else if (int_sum) {
              out->SetInt64(row, state.int_sum);
            } else {
              out->SetDouble(row, state.sum);
            }
          });
      return Status::OK();
    }
    case WindowFunctionKind::kMedian:
    case WindowFunctionKind::kPercentileDisc:
    case WindowFunctionKind::kPercentileCont: {
      const IndexRemap remap = BuildCallRemap(view, call, true);
      const std::vector<double> values =
          GatherValues(view, *call.argument, remap);
      const double fraction = call.kind == WindowFunctionKind::kMedian
                                  ? 0.5
                                  : call.fraction;
      const bool cont = call.kind == WindowFunctionKind::kPercentileCont;
      SlideFrames(
          view, remap, [&] { return SortedValuesState{&values, {}}; },
          [&](size_t i, const SortedValuesState& state, size_t) {
            const size_t row = view.rows[i];
            const size_t total = state.sorted.size();
            if (total == 0) {
              out->SetNull(row);
              return;
            }
            if (cont) {
              const double pos = fraction * static_cast<double>(total - 1);
              const size_t lo = static_cast<size_t>(std::floor(pos));
              const size_t hi = static_cast<size_t>(std::ceil(pos));
              const double t = pos - static_cast<double>(lo);
              out->SetDouble(row, state.sorted[lo] +
                                      t * (state.sorted[hi] -
                                           state.sorted[lo]));
            } else {
              double pos =
                  std::ceil(fraction * static_cast<double>(total)) - 1;
              size_t idx = pos <= 0 ? 0 : static_cast<size_t>(pos);
              if (idx >= total) idx = total - 1;
              if (out->type() == DataType::kInt64) {
                out->SetInt64(row,
                              static_cast<int64_t>(state.sorted[idx]));
              } else {
                out->SetDouble(row, state.sorted[idx]);
              }
            }
          });
      return Status::OK();
    }
    case WindowFunctionKind::kMode: {
      const IndexRemap remap = BuildCallRemap(view, call, true);
      const Column& arg = view.col(*call.argument);
      std::vector<uint64_t> tiekeys(remap.num_surviving());
      for (size_t j = 0; j < tiekeys.size(); ++j) {
        tiekeys[j] = internal_window::ModeTieKey(
            arg, view.rows[remap.ToOriginal(j)]);
      }
      SlideFrames(
          view, remap, [&] { return ModeState{&tiekeys, {}, {}, {}}; },
          [&](size_t i, const ModeState& state, size_t) {
            const size_t row = view.rows[i];
            const std::optional<size_t> best = state.Best();
            if (!best.has_value()) {
              out->SetNull(row);
              return;
            }
            const size_t selected = view.rows[remap.ToOriginal(*best)];
            switch (out->type()) {
              case DataType::kInt64:
                out->SetInt64(row, arg.GetInt64(selected));
                break;
              case DataType::kDouble:
                out->SetDouble(row, arg.GetDouble(selected));
                break;
              case DataType::kString:
                out->SetString(row, arg.GetString(selected));
                break;
            }
          });
      return Status::OK();
    }
    default:
      return Status::NotImplemented(
          std::string("incremental engine does not support ") +
          WindowFunctionKindName(call.kind));
  }
}

}  // namespace hwf
