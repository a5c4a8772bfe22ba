#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "window/evaluator.h"
#include "window/functions/common.h"

namespace hwf {
namespace {

using internal_window::SqlDoubleLess;

/// The "naive" engine: every frame is re-evaluated from scratch (Wesley &
/// Xu's naive algorithm, §5.5). O(frame size) — or O(s log s) for
/// order-based functions — per output row, embarrassingly parallel.
///
/// This is also the library's test oracle: it shares only the partitioning
/// / sorting / frame-resolution phases with the merge sort tree engine and
/// re-derives every aggregate with the simplest possible code.
struct NaiveEvaluator {
  const PartitionView& view;
  const WindowFunctionCall& call;
  Column* out;
  std::vector<SortKey> order;
  const Column* arg = nullptr;
  const Column* filter = nullptr;
  std::vector<double> value_buffer;  // Reused across rows.

  NaiveEvaluator(const PartitionView& v, const WindowFunctionCall& c,
                 Column* o)
      : view(v), call(c), out(o), order(EffectiveOrder(*v.spec, c)) {
    if (call.argument.has_value()) arg = &view.col(*call.argument);
    if (call.filter.has_value()) filter = &view.col(*call.filter);
  }

  bool PassesFilter(size_t pos) const {
    if (filter == nullptr) return true;
    const size_t row = view.rows[pos];
    return !filter->IsNull(row) && filter->GetInt64(row) != 0;
  }

  bool ArgIsNull(size_t pos) const {
    return arg != nullptr && arg->IsNull(view.rows[pos]);
  }

  /// Frame positions passing the FILTER clause (and, when requested,
  /// having a non-NULL argument), ascending.
  std::vector<size_t> GatherFrame(size_t i, bool drop_null_args) const {
    std::vector<size_t> positions;
    const FrameRanges& frames = view.frames[i];
    for (size_t r = 0; r < frames.count(); ++r) {
      for (size_t pos = frames[r].begin; pos < frames[r].end; ++pos) {
        if (!PassesFilter(pos)) continue;
        if (drop_null_args && ArgIsNull(pos)) continue;
        positions.push_back(pos);
      }
    }
    return positions;
  }

  bool OrderLess(size_t a, size_t b) const {
    return CompareRowsBy(*view.table, view.rows[a], view.rows[b], order) < 0;
  }
  bool OrderEqual(size_t a, size_t b) const {
    return CompareRowsBy(*view.table, view.rows[a], view.rows[b], order) == 0;
  }
  /// Strict total order: order keys, then position.
  bool TotalLess(size_t a, size_t b) const {
    const int cmp =
        CompareRowsBy(*view.table, view.rows[a], view.rows[b], order);
    if (cmp != 0) return cmp < 0;
    return a < b;
  }

  void WriteArg(size_t row, size_t selected_pos) const {
    const size_t selected = view.rows[selected_pos];
    if (arg->IsNull(selected)) {
      out->SetNull(row);
      return;
    }
    switch (out->type()) {
      case DataType::kInt64:
        out->SetInt64(row, arg->GetInt64(selected));
        break;
      case DataType::kDouble:
        out->SetDouble(row, arg->GetNumeric(selected));
        break;
      case DataType::kString:
        out->SetString(row, arg->GetString(selected));
        break;
    }
  }

  void WriteNumeric(size_t row, double value) const {
    if (out->type() == DataType::kInt64) {
      out->SetInt64(row, static_cast<int64_t>(value));
    } else {
      out->SetDouble(row, value);
    }
  }

  void EvalRow(size_t i) {
    const size_t row = view.rows[i];
    switch (call.kind) {
      case WindowFunctionKind::kCountStar: {
        out->SetInt64(row, static_cast<int64_t>(
                               GatherFrame(i, /*drop_null_args=*/false).size()));
        break;
      }
      case WindowFunctionKind::kCount: {
        out->SetInt64(row, static_cast<int64_t>(
                               GatherFrame(i, /*drop_null_args=*/true).size()));
        break;
      }
      case WindowFunctionKind::kSum:
      case WindowFunctionKind::kMin:
      case WindowFunctionKind::kMax:
      case WindowFunctionKind::kAvg: {
        const std::vector<size_t> frame = GatherFrame(i, true);
        if (frame.empty()) {
          out->SetNull(row);
          break;
        }
        if (call.kind == WindowFunctionKind::kSum &&
            out->type() == DataType::kInt64) {
          int64_t sum = 0;
          for (size_t pos : frame) sum += arg->GetInt64(view.rows[pos]);
          out->SetInt64(row, sum);
          break;
        }
        double acc = arg->GetNumeric(view.rows[frame[0]]);
        for (size_t f = 1; f < frame.size(); ++f) {
          const double v = arg->GetNumeric(view.rows[frame[f]]);
          switch (call.kind) {
            case WindowFunctionKind::kSum:
            case WindowFunctionKind::kAvg:
              acc += v;
              break;
            case WindowFunctionKind::kMin:
              acc = std::min(acc, v);
              break;
            case WindowFunctionKind::kMax:
              acc = std::max(acc, v);
              break;
            default:
              break;
          }
        }
        if (call.kind == WindowFunctionKind::kAvg) {
          acc /= static_cast<double>(frame.size());
        }
        WriteNumeric(row, acc);
        break;
      }
      case WindowFunctionKind::kCountDistinct: {
        const std::vector<size_t> frame = GatherFrame(i, true);
        std::unordered_set<uint64_t> seen;
        for (size_t pos : frame) seen.insert(arg->Hash(view.rows[pos]));
        out->SetInt64(row, static_cast<int64_t>(seen.size()));
        break;
      }
      case WindowFunctionKind::kSumDistinct:
      case WindowFunctionKind::kAvgDistinct:
      case WindowFunctionKind::kMinDistinct:
      case WindowFunctionKind::kMaxDistinct: {
        const std::vector<size_t> frame = GatherFrame(i, true);
        std::unordered_set<uint64_t> seen;
        bool first = true;
        double acc = 0;
        int64_t int_acc = 0;
        int64_t count = 0;
        const bool int_sum = call.kind == WindowFunctionKind::kSumDistinct &&
                             out->type() == DataType::kInt64;
        for (size_t pos : frame) {
          const size_t r = view.rows[pos];
          if (!seen.insert(arg->Hash(r)).second) continue;
          ++count;
          const double v = arg->GetNumeric(r);
          if (int_sum) int_acc += arg->GetInt64(r);
          if (first) {
            acc = v;
            first = false;
            continue;
          }
          switch (call.kind) {
            case WindowFunctionKind::kSumDistinct:
            case WindowFunctionKind::kAvgDistinct:
              acc += v;
              break;
            case WindowFunctionKind::kMinDistinct:
              acc = std::min(acc, v);
              break;
            case WindowFunctionKind::kMaxDistinct:
              acc = std::max(acc, v);
              break;
            default:
              break;
          }
        }
        if (count == 0) {
          out->SetNull(row);
        } else if (int_sum) {
          out->SetInt64(row, int_acc);
        } else if (call.kind == WindowFunctionKind::kAvgDistinct) {
          out->SetDouble(row, acc / static_cast<double>(count));
        } else {
          WriteNumeric(row, acc);
        }
        break;
      }
      case WindowFunctionKind::kRank:
      case WindowFunctionKind::kRowNumber:
      case WindowFunctionKind::kPercentRank:
      case WindowFunctionKind::kCumeDist: {
        const std::vector<size_t> frame = GatherFrame(i, false);
        size_t less_count = 0;
        size_t leq_count = 0;
        size_t total_less = 0;  // For ROW_NUMBER: strict total order.
        for (size_t pos : frame) {
          if (OrderLess(pos, i)) {
            ++less_count;
            ++leq_count;
            ++total_less;
          } else if (OrderEqual(pos, i)) {
            ++leq_count;
            if (pos < i) ++total_less;
          }
        }
        const size_t n_frame = frame.size();
        switch (call.kind) {
          case WindowFunctionKind::kRank:
            out->SetInt64(row, static_cast<int64_t>(less_count) + 1);
            break;
          case WindowFunctionKind::kRowNumber:
            out->SetInt64(row, static_cast<int64_t>(total_less) + 1);
            break;
          case WindowFunctionKind::kPercentRank:
            if (n_frame <= 1) {
              out->SetDouble(row, 0.0);
            } else {
              out->SetDouble(row, static_cast<double>(less_count) /
                                      static_cast<double>(n_frame - 1));
            }
            break;
          case WindowFunctionKind::kCumeDist:
            if (n_frame == 0) {
              out->SetNull(row);
            } else {
              out->SetDouble(row, static_cast<double>(leq_count) /
                                      static_cast<double>(n_frame));
            }
            break;
          default:
            break;
        }
        break;
      }
      case WindowFunctionKind::kNtile: {
        std::vector<size_t> frame = GatherFrame(i, false);
        const size_t n_frame = frame.size();
        if (n_frame == 0) {
          out->SetNull(row);
          break;
        }
        size_t rn = 0;
        for (size_t pos : frame) {
          if (TotalLess(pos, i)) ++rn;
        }
        if (rn >= n_frame) rn = n_frame - 1;
        const size_t buckets = static_cast<size_t>(call.param);
        int64_t tile;
        if (buckets >= n_frame) {
          tile = static_cast<int64_t>(rn) + 1;
        } else {
          const size_t big = n_frame % buckets;
          const size_t small_size = n_frame / buckets;
          const size_t big_total = big * (small_size + 1);
          tile = rn < big_total
                     ? static_cast<int64_t>(rn / (small_size + 1)) + 1
                     : static_cast<int64_t>(big + (rn - big_total) /
                                                      small_size) +
                           1;
        }
        out->SetInt64(row, tile);
        break;
      }
      case WindowFunctionKind::kDenseRank: {
        std::vector<size_t> smaller;
        for (size_t pos : GatherFrame(i, false)) {
          if (OrderLess(pos, i)) smaller.push_back(pos);
        }
        std::sort(smaller.begin(), smaller.end(),
                  [&](size_t a, size_t b) { return TotalLess(a, b); });
        size_t distinct = 0;
        for (size_t s = 0; s < smaller.size(); ++s) {
          if (s == 0 || !OrderEqual(smaller[s - 1], smaller[s])) ++distinct;
        }
        out->SetInt64(row, static_cast<int64_t>(distinct) + 1);
        break;
      }
      case WindowFunctionKind::kPercentileDisc:
      case WindowFunctionKind::kPercentileCont:
      case WindowFunctionKind::kMedian: {
        const double fraction = call.kind == WindowFunctionKind::kMedian
                                    ? 0.5
                                    : call.fraction;
        // Fast path for the standard case (selection ordered by the
        // argument itself): gather raw values and use nth_element — this
        // is what an engine's naive evaluation actually does, and it is
        // the configuration all benchmarks measure.
        const bool standard_order =
            call.order_by.empty() ||
            (call.order_by.size() == 1 &&
             call.order_by[0].column == *call.argument &&
             call.order_by[0].ascending);
        if (standard_order) {
          value_buffer.clear();
          const FrameRanges& frames = view.frames[i];
          for (size_t r = 0; r < frames.count(); ++r) {
            for (size_t pos = frames[r].begin; pos < frames[r].end; ++pos) {
              if (!PassesFilter(pos) || ArgIsNull(pos)) continue;
              value_buffer.push_back(arg->GetNumeric(view.rows[pos]));
            }
          }
          const size_t total = value_buffer.size();
          if (total == 0) {
            out->SetNull(row);
            break;
          }
          if (call.kind == WindowFunctionKind::kPercentileCont) {
            const double pos = fraction * static_cast<double>(total - 1);
            const size_t lo = static_cast<size_t>(std::floor(pos));
            const size_t hi = static_cast<size_t>(std::ceil(pos));
            std::nth_element(value_buffer.begin(), value_buffer.begin() + lo,
                             value_buffer.end(), SqlDoubleLess);
            const double lo_val = value_buffer[lo];
            double hi_val = lo_val;
            if (hi != lo) {
              hi_val = *std::min_element(value_buffer.begin() + hi,
                                         value_buffer.end(), SqlDoubleLess);
            }
            const double t = pos - static_cast<double>(lo);
            out->SetDouble(row, lo_val + t * (hi_val - lo_val));
          } else {
            double pos = std::ceil(fraction * static_cast<double>(total)) - 1;
            size_t idx = pos <= 0 ? 0 : static_cast<size_t>(pos);
            if (idx >= total) idx = total - 1;
            std::nth_element(value_buffer.begin(), value_buffer.begin() + idx,
                             value_buffer.end(), SqlDoubleLess);
            WriteNumeric(row, value_buffer[idx]);
          }
          break;
        }
        // General path: arbitrary selection order.
        std::vector<size_t> frame = GatherFrame(i, true);
        if (frame.empty()) {
          out->SetNull(row);
          break;
        }
        std::sort(frame.begin(), frame.end(),
                  [&](size_t a, size_t b) { return TotalLess(a, b); });
        const size_t total = frame.size();
        if (call.kind == WindowFunctionKind::kPercentileCont) {
          const double pos = fraction * static_cast<double>(total - 1);
          const size_t lo = static_cast<size_t>(std::floor(pos));
          const size_t hi = static_cast<size_t>(std::ceil(pos));
          const double lo_val = arg->GetNumeric(view.rows[frame[lo]]);
          const double hi_val = arg->GetNumeric(view.rows[frame[hi]]);
          const double t = pos - static_cast<double>(lo);
          out->SetDouble(row, lo_val + t * (hi_val - lo_val));
        } else {
          double pos = std::ceil(fraction * static_cast<double>(total)) - 1;
          size_t idx = pos <= 0 ? 0 : static_cast<size_t>(pos);
          if (idx >= total) idx = total - 1;
          WriteArg(row, frame[idx]);
        }
        break;
      }
      case WindowFunctionKind::kFirstValue:
      case WindowFunctionKind::kLastValue:
      case WindowFunctionKind::kNthValue: {
        std::vector<size_t> frame = GatherFrame(i, call.ignore_nulls);
        if (frame.empty()) {
          out->SetNull(row);
          break;
        }
        std::sort(frame.begin(), frame.end(),
                  [&](size_t a, size_t b) { return TotalLess(a, b); });
        size_t idx = 0;
        if (call.kind == WindowFunctionKind::kLastValue) {
          idx = frame.size() - 1;
        } else if (call.kind == WindowFunctionKind::kNthValue) {
          idx = static_cast<size_t>(call.param - 1);
          if (idx >= frame.size()) {
            out->SetNull(row);
            break;
          }
        }
        WriteArg(row, frame[idx]);
        break;
      }
      case WindowFunctionKind::kMode: {
        const std::vector<size_t> frame = GatherFrame(i, true);
        if (frame.empty()) {
          out->SetNull(row);
          break;
        }
        // tiekey -> (count, representative position). Equal values share a
        // tiekey; ties between values break toward the smallest tiekey
        // (i.e., the smallest numeric value).
        std::unordered_map<uint64_t, std::pair<size_t, size_t>> counts;
        for (size_t pos : frame) {
          const uint64_t tiekey =
              internal_window::ModeTieKey(*arg, view.rows[pos]);
          auto [it, inserted] = counts.try_emplace(tiekey, 0, pos);
          ++it->second.first;
        }
        size_t best_count = 0;
        uint64_t best_key = 0;
        size_t best_pos = 0;
        for (const auto& [tiekey, entry] : counts) {
          if (entry.first > best_count ||
              (entry.first == best_count && tiekey < best_key)) {
            best_count = entry.first;
            best_key = tiekey;
            best_pos = entry.second;
          }
        }
        WriteArg(row, best_pos);
        break;
      }
      case WindowFunctionKind::kLead:
      case WindowFunctionKind::kLag: {
        if (!PassesFilter(i) || (call.ignore_nulls && ArgIsNull(i))) {
          out->SetNull(row);
          break;
        }
        std::vector<size_t> frame = GatherFrame(i, call.ignore_nulls);
        if (frame.empty()) {
          out->SetNull(row);
          break;
        }
        std::sort(frame.begin(), frame.end(),
                  [&](size_t a, size_t b) { return TotalLess(a, b); });
        size_t before = 0;
        for (size_t pos : frame) {
          if (TotalLess(pos, i)) ++before;
        }
        const int64_t target =
            call.kind == WindowFunctionKind::kLead
                ? static_cast<int64_t>(before) + call.param
                : static_cast<int64_t>(before) - call.param;
        if (target < 0 || target >= static_cast<int64_t>(frame.size())) {
          out->SetNull(row);
          break;
        }
        WriteArg(row, frame[static_cast<size_t>(target)]);
        break;
      }
    }
  }
};

}  // namespace

Status EvalNaive(const PartitionView& view, const WindowFunctionCall& call,
                 Column* out) {
  HWF_TRACE_SCOPE_ARG("baseline.naive", "rows", view.size());
  ParallelFor(
      0, view.size(),
      [&](size_t lo, size_t hi) {
        NaiveEvaluator evaluator(view, call, out);
        for (size_t i = lo; i < hi; ++i) evaluator.EvalRow(i);
      },
      *view.pool, view.options->morsel_size);
  return Status::OK();
}

}  // namespace hwf
