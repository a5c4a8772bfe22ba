#ifndef HWF_MST_PROBE_BATCH_H_
#define HWF_MST_PROBE_BATCH_H_

#ifndef HWF_MST_MERGE_SORT_TREE_H_
#error "probe_batch.h is tail-included by mst/merge_sort_tree.h; include that"
#endif

/// \file probe_batch.h
/// Batched, prefetch-pipelined probe kernel for the merge sort tree.
///
/// A probe walks one query through ~log_f(n) tree levels, and every level
/// starts with loads (cascade pointers, run data) whose addresses depend on
/// the previous level's result — a dependent-miss chain the core cannot
/// overlap when queries run one at a time. This kernel is the tree's only
/// probe path: it keeps a group of queries in flight
/// and advances all of them one level per round (group prefetching /
/// AMAC-style state machines): when a query finishes its work at level ℓ it
/// immediately computes its level ℓ-1 touch points and issues software
/// prefetches for them, then yields to the next query in the group. By the
/// time the round returns to it, the lines are (being) loaded. Queries that
/// retire are backfilled from the batch, so the group stays full until the
/// batch drains.
///
/// Results do not depend on the group size: every query takes the same
/// bisection positions (via the shared branchless lower bound) and the
/// same descent decisions, and VisitCountCoverBatch delivers each query's
/// pieces in one fixed order — the canonical cover of [lo, hi) left to
/// right, i.e. a depth-first walk of the tree — which the annotated tree's
/// floating-point merges rely on. The tests check the counts against
/// linear scans and the cover against a test-local canonical cover.
///
/// Spilled levels cooperate: the prefetch pass warms each query's spill
/// pages through the thread-local MRU cache (SpillableVector::
/// PrefetchElement), so a group resolves its page set per level in one pass
/// instead of faulting per query mid-computation.

namespace hwf {
namespace internal_mst {

/// Per-call counter deltas, flushed once per batch instead of per probe.
struct ProbeBatchStats {
  uint64_t cascade_lookups = 0;
  uint64_t fallbacks = 0;
  uint64_t rounds = 0;
  uint64_t prefetches = 0;

  void Flush(size_t num_queries) const {
    obs::Add(obs::Counter::kMstProbeBatches);
    obs::Add(obs::Counter::kMstProbeBatchQueries, num_queries);
    obs::Add(obs::Counter::kMstProbeBatchRounds, rounds);
    obs::Add(obs::Counter::kMstProbePrefetches, prefetches);
    if (cascade_lookups > 0) {
      obs::Add(obs::Counter::kMstCascadeLookups, cascade_lookups);
    }
    if (fallbacks > 0) {
      obs::Add(obs::Counter::kMstBinarySearchFallbacks, fallbacks);
    }
  }
};

/// How many children ahead the descent loop decodes cascade windows and
/// prefetches their data before searching them (ring capacity must exceed
/// the distance). Four children ≈ 4–8 dependent window searches of slack,
/// enough to cover an L2 hit and most of an L3 hit at default f = k = 32.
inline constexpr size_t kChildLookahead = 4;
inline constexpr size_t kChildRing = 8;

/// Cover-piece consumer that just sums counts (CountLess semantics; the
/// emission order is irrelevant for integer sums).
struct CountCoverSum {
  size_t* out;  // one accumulator per query, pre-zeroed

  void Emit(size_t /*slot*/, size_t query, size_t /*level*/,
            size_t /*run_begin*/, size_t count, bool /*lo_side*/) {
    out[query] += count;
  }
  void EndLoRound(size_t /*slot*/) {}
  void Retire(size_t /*slot*/, size_t /*query*/) {}
};

/// Cover-piece consumer that buffers each query's pieces and replays them
/// in depth-first (left-to-right) order when the query retires.
///
/// A depth-first walk emits, for a query whose boundaries split at some
/// level:
/// the lower-boundary subtree bottom-up-by-round pieces first, then the
/// split level's fully-covered middle children, then the upper-boundary
/// subtree top-down. The kernel produces the same pieces level-by-level, so
/// the lower-boundary pieces arrive in reverse round order — they are
/// buffered as one segment per round and replayed with the segment order
/// reversed; everything else already arrives in left-to-right order and is
/// appended to a second buffer.
template <typename Visitor>
struct OrderedCoverReplay {
  struct Piece {
    size_t level;
    size_t run_begin;
    size_t count;
  };
  struct SlotBuffer {
    std::vector<Piece> lo;
    std::vector<size_t> lo_segment_end;
    std::vector<Piece> main;
  };

  explicit OrderedCoverReplay(Visitor* v) : visit(v) {}

  SlotBuffer& Buffer(size_t slot) {
    if (slot >= buffers.size()) buffers.resize(slot + 1);
    return buffers[slot];
  }

  void Emit(size_t slot, size_t /*query*/, size_t level, size_t run_begin,
            size_t count, bool lo_side) {
    SlotBuffer& buf = Buffer(slot);
    (lo_side ? buf.lo : buf.main).push_back(Piece{level, run_begin, count});
  }

  void EndLoRound(size_t slot) {
    SlotBuffer& buf = Buffer(slot);
    const size_t prev_end =
        buf.lo_segment_end.empty() ? 0 : buf.lo_segment_end.back();
    if (buf.lo.size() > prev_end) buf.lo_segment_end.push_back(buf.lo.size());
  }

  void Retire(size_t slot, size_t query) {
    SlotBuffer& buf = Buffer(slot);
    for (size_t seg = buf.lo_segment_end.size(); seg-- > 0;) {
      const size_t begin = seg == 0 ? 0 : buf.lo_segment_end[seg - 1];
      const size_t end = buf.lo_segment_end[seg];
      for (size_t i = begin; i < end; ++i) {
        const Piece& p = buf.lo[i];
        (*visit)(query, p.level, p.run_begin, p.count);
      }
    }
    for (const Piece& p : buf.main) {
      (*visit)(query, p.level, p.run_begin, p.count);
    }
    buf.lo.clear();
    buf.lo_segment_end.clear();
    buf.main.clear();
  }

  Visitor* visit;
  std::vector<SlotBuffer> buffers;
};

}  // namespace internal_mst

// ---------------------------------------------------------------------------
// SelectBatch.
// ---------------------------------------------------------------------------

template <typename Index>
void MergeSortTree<Index>::SelectBatch(
    std::span<const KeyRange<Index>> range_pool,
    std::span<const SelectQuery> queries, size_t group_size,
    size_t* out) const {
  if (queries.empty()) return;
  HWF_CHECK(n_ > 0);
  if (n_ == 1) {
    // Position 0 is the only candidate.
    for (size_t q = 0; q < queries.size(); ++q) out[q] = 0;
    return;
  }
  if (group_size == 0) group_size = 1;

  internal_mst::ProbeBatchStats stats;
  const Index* top = levels_.back().data.ResidentData();
  const size_t k = opts_.sampling;
  const size_t f = opts_.fanout;
  const size_t top_level = levels_.size() - 1;
  constexpr size_t kMaxBounds = 2 * kSelectMaxRanges;

  enum Phase : uint8_t { kFree, kTopBisect, kDescend };
  struct Slot {
    Phase phase = kFree;
    size_t query = 0;
    size_t num_bounds = 0;  // 2 per range: [2r] = lo key, [2r+1] = hi key
    size_t rank = 0;
    size_t level = 0;
    size_t run_begin = 0;
    size_t run_len_actual = 0;
    bool casc_valid = false;
    Index key[kMaxBounds];
    size_t pos[kMaxBounds];        // boundary positions within current run
    size_t bis_base[kMaxBounds];   // top-run bisection state
    size_t bis_len[kMaxBounds];
    size_t casc_base[kMaxBounds];  // cascade slot base per boundary
    bool casc_next[kMaxBounds];    // a following sample bounds the window
  };

  const size_t num_slots = std::min(group_size, queries.size());
  std::vector<Slot> slots(num_slots);
  size_t next_query = 0;
  size_t active = 0;

  // Computes the cascade sample bases of the slot's current level and
  // prefetches next round's touch points: the cascade window rows for
  // levels >= 2, the child run elements for level 1.
  auto enter_level = [&](Slot& slot) {
    if (slot.level == 1) {
      const mem::SpillableVector<Index>& data0 = levels_[0].data;
      const size_t stride = 64 / sizeof(Index);
      for (size_t i = 0; i < slot.run_len_actual; i += stride) {
        data0.PrefetchElement(slot.run_begin + i);
        ++stats.prefetches;
      }
      data0.PrefetchElement(slot.run_begin + slot.run_len_actual - 1);
      ++stats.prefetches;
      slot.casc_valid = false;
      return;
    }
    const Level& lvl = levels_[slot.level];
    slot.casc_valid = !lvl.cascade.empty();
    if (!slot.casc_valid) return;
    const size_t run_index = slot.run_begin / lvl.run_len;
    const size_t num_samples = SamplesForLen(slot.run_len_actual);
    for (size_t b = 0; b < slot.num_bounds; ++b) {
      const size_t s = std::min(slot.pos[b] / k, num_samples - 1);
      slot.casc_base[b] = (run_index * lvl.samples_per_full_run + s) * f;
      slot.casc_next[b] = s + 1 < num_samples;
      lvl.cascade.PrefetchElement(slot.casc_base[b]);
      lvl.cascade.PrefetchElement(slot.casc_base[b] + f - 1);
      stats.prefetches += 2;
      if (slot.casc_next[b]) {
        lvl.cascade.PrefetchElement(slot.casc_base[b] + f);
        lvl.cascade.PrefetchElement(slot.casc_base[b] + 2 * f - 1);
        stats.prefetches += 2;
      }
    }
  };

  auto refill = [&](Slot& slot) -> bool {
    if (next_query >= queries.size()) {
      slot.phase = kFree;
      return false;
    }
    const size_t q = next_query++;
    const SelectQuery& query = queries[q];
    HWF_CHECK(query.num_ranges <= kSelectMaxRanges);
    slot.phase = kTopBisect;
    slot.query = q;
    slot.num_bounds = 2 * query.num_ranges;
    slot.rank = query.rank;
    for (size_t r = 0; r < query.num_ranges; ++r) {
      const KeyRange<Index>& range = range_pool[query.range_begin + r];
      slot.key[2 * r] = range.lo;
      slot.key[2 * r + 1] = range.hi;
    }
    for (size_t b = 0; b < slot.num_bounds; ++b) {
      slot.bis_base[b] = 0;
      slot.bis_len[b] = n_;
    }
    // Every boundary's first probe is the same top-run element.
    HWF_PREFETCH(top + n_ / 2 - 1);
    ++stats.prefetches;
    return true;
  };

  // One branchless bisection step per boundary per round, prefetching each
  // boundary's next probe. The top run is always resident.
  auto step_top_bisect = [&](Slot& slot) {
    bool all_done = true;
    for (size_t b = 0; b < slot.num_bounds; ++b) {
      const size_t len = slot.bis_len[b];
      if (len <= 1) continue;
      const size_t half = len / 2;
      const size_t base = slot.bis_base[b];
      slot.bis_base[b] = (top[base + half - 1] < slot.key[b]) ? base + half
                                                              : base;
      slot.bis_len[b] = len - half;
      if (slot.bis_len[b] > 1) {
        HWF_PREFETCH(top + slot.bis_base[b] + slot.bis_len[b] / 2 - 1);
        ++stats.prefetches;
        all_done = false;
      }
    }
    if (!all_done) return;
    for (size_t b = 0; b < slot.num_bounds; ++b) {
      slot.pos[b] =
          slot.bis_base[b] + ((top[slot.bis_base[b]] < slot.key[b]) ? 1 : 0);
    }
    slot.phase = kDescend;
    slot.level = top_level;
    slot.run_begin = 0;
    slot.run_len_actual = n_;
    enter_level(slot);
  };

  // Advances the descent by one level: scans the children of the current
  // run, decoding cascade windows and prefetching their data a few children
  // ahead of the searches. Retires the slot when the element is found.
  auto step_descend = [&](Slot& slot, size_t slot_index) {
    using internal_mst::kChildLookahead;
    using internal_mst::kChildRing;
    const size_t level = slot.level;
    const Level& child_lvl = levels_[level - 1];
    const size_t child_run_len = child_lvl.run_len;
    const size_t run_end = slot.run_begin + slot.run_len_actual;
    const size_t num_children =
        (slot.run_len_actual + child_run_len - 1) / child_run_len;

    if (level == 1) {
      // Children are single elements of level 0 (prefetched last round).
      const mem::SpillableVector<Index>& data0 = levels_[0].data;
      for (size_t c = 0; c < num_children; ++c) {
        const Index key = data0.Get(slot.run_begin + c);
        size_t count = 0;
        for (size_t b = 0; b < slot.num_bounds; b += 2) {
          count += (key >= slot.key[b] && key < slot.key[b + 1]) ? 1 : 0;
        }
        if (slot.rank < count) {
          out[slot.query] = slot.run_begin + c;
          if (refill(slot)) return;
          --active;
          return;
        }
        slot.rank -= count;
      }
      HWF_CHECK_MSG(false, "MergeSortTree::Select: i out of range");
    }

    const Level& lvl = levels_[level];
    // Ring of decoded per-boundary windows, kChildLookahead children ahead.
    size_t window_lo[kChildRing][kMaxBounds];
    size_t window_hi[kChildRing][kMaxBounds];
    size_t decoded = 0;
    auto decode_child = [&](size_t c) {
      const size_t cb = slot.run_begin + c * child_run_len;
      const size_t ce = std::min(run_end, cb + child_run_len);
      const size_t child_len = ce - cb;
      size_t* wlo = window_lo[c % kChildRing];
      size_t* whi = window_hi[c % kChildRing];
      for (size_t b = 0; b < slot.num_bounds; ++b) {
        size_t lo = 0;
        size_t hi = child_len;
        if (slot.casc_valid) {
          lo = static_cast<size_t>(lvl.cascade.Get(slot.casc_base[b] + c));
          if (slot.casc_next[b]) {
            hi = std::min<size_t>(
                static_cast<size_t>(lvl.cascade.Get(slot.casc_base[b] + f + c)),
                child_len);
          }
        }
        wlo[b] = lo;
        whi[b] = hi;
        if (lo < hi) {
          // The bisection's first probe plus the window start line.
          child_lvl.data.PrefetchElement(cb + lo + (hi - lo) / 2);
          child_lvl.data.PrefetchElement(cb + lo);
          stats.prefetches += 2;
        }
      }
    };

    size_t child_pos[kMaxBounds];
    for (size_t c = 0; c < num_children; ++c) {
      while (decoded < num_children &&
             decoded <= c + kChildLookahead) {
        decode_child(decoded++);
      }
      const size_t cb = slot.run_begin + c * child_run_len;
      const size_t ce = std::min(run_end, cb + child_run_len);
      const size_t* wlo = window_lo[c % kChildRing];
      const size_t* whi = window_hi[c % kChildRing];
      // Count the child searches actually performed, not the speculatively
      // decoded lookahead windows (the scan stops at the descend child).
      if (slot.casc_valid) {
        stats.cascade_lookups += slot.num_bounds;
      } else {
        stats.fallbacks += slot.num_bounds;
      }
      size_t count = 0;
      for (size_t b = 0; b < slot.num_bounds; b += 2) {
        child_pos[b] =
            child_lvl.data.LowerBound(cb + wlo[b], cb + whi[b], slot.key[b]) -
            cb;
        child_pos[b + 1] = child_lvl.data.LowerBound(cb + wlo[b + 1],
                                                     cb + whi[b + 1],
                                                     slot.key[b + 1]) -
                           cb;
        count += child_pos[b + 1] - child_pos[b];
      }
      if (slot.rank < count) {
        for (size_t b = 0; b < slot.num_bounds; ++b) {
          slot.pos[b] = child_pos[b];
        }
        slot.run_begin = cb;
        slot.run_len_actual = ce - cb;
        --slot.level;
        enter_level(slot);
        return;
      }
      slot.rank -= count;
    }
    (void)slot_index;
    HWF_CHECK_MSG(false, "MergeSortTree::Select: i out of range");
  };

  for (size_t s = 0; s < num_slots; ++s) {
    if (refill(slots[s])) ++active;
  }
  while (active > 0) {
    ++stats.rounds;
    for (size_t s = 0; s < num_slots; ++s) {
      Slot& slot = slots[s];
      switch (slot.phase) {
        case kFree:
          break;
        case kTopBisect:
          step_top_bisect(slot);
          break;
        case kDescend:
          step_descend(slot, s);
          break;
      }
    }
  }
  stats.Flush(queries.size());
}

// ---------------------------------------------------------------------------
// Count cover batch (CountLessBatch / VisitCountCoverBatch).
// ---------------------------------------------------------------------------

template <typename Index>
template <typename Emitter>
void MergeSortTree<Index>::RunCountCoverBatch(
    std::span<const CountQuery> queries, size_t group_size,
    Emitter& emitter) const {
  if (queries.empty()) return;
  if (n_ <= 1) {
    // Degenerate trees: no levels to descend.
    for (size_t q = 0; q < queries.size(); ++q) {
      HWF_CHECK(queries[q].pos_hi <= n_);
      if (queries[q].pos_lo < queries[q].pos_hi && n_ == 1 &&
          levels_[0].data.Get(0) < queries[q].threshold) {
        emitter.Emit(0, q, 0, 0, 1, false);
      }
      emitter.Retire(0, q);
    }
    return;
  }
  if (group_size == 0) group_size = 1;

  internal_mst::ProbeBatchStats stats;
  const Index* top = levels_.back().data.ResidentData();
  const size_t k = opts_.sampling;
  const size_t f = opts_.fanout;
  const size_t top_level = levels_.size() - 1;

  enum Phase : uint8_t { kFree, kTopBisect, kDescend };
  // A frontier node of the cover walk. The frontier holds at most two
  // nodes: once the query's [lo, hi) bounds split across children, the
  // lower boundary's chain and the upper boundary's chain each keep exactly
  // one partially-covered child per level.
  struct Node {
    size_t run_begin;
    size_t run_len_actual;
    size_t p;   // lower-bound position of the threshold within the run
    size_t lo;  // query bounds clamped to the run
    size_t hi;
    size_t casc_base;
    bool casc_next;
  };
  struct Slot {
    Phase phase = kFree;
    size_t query = 0;
    Index threshold = 0;
    size_t level = 0;
    bool casc_valid = false;
    size_t bis_base = 0;
    size_t bis_len = 0;
    size_t num_nodes = 0;
    Node nodes[2];
  };

  const size_t num_slots = std::min(group_size, queries.size());
  std::vector<Slot> slots(num_slots);
  size_t next_query = 0;
  size_t active = 0;

  auto enter_level = [&](Slot& slot) {
    if (slot.level == 1) {
      const mem::SpillableVector<Index>& data0 = levels_[0].data;
      const size_t stride = 64 / sizeof(Index);
      for (size_t ni = 0; ni < slot.num_nodes; ++ni) {
        const Node& node = slot.nodes[ni];
        for (size_t i = node.lo; i < node.hi; i += stride) {
          data0.PrefetchElement(i);
          ++stats.prefetches;
        }
      }
      slot.casc_valid = false;
      return;
    }
    const Level& lvl = levels_[slot.level];
    slot.casc_valid = !lvl.cascade.empty();
    if (!slot.casc_valid) return;
    const size_t child_run_len = levels_[slot.level - 1].run_len;
    for (size_t ni = 0; ni < slot.num_nodes; ++ni) {
      Node& node = slot.nodes[ni];
      const size_t run_index = node.run_begin / lvl.run_len;
      const size_t num_samples = SamplesForLen(node.run_len_actual);
      const size_t s = std::min(node.p / k, num_samples - 1);
      node.casc_base = (run_index * lvl.samples_per_full_run + s) * f;
      node.casc_next = s + 1 < num_samples;
      const size_t first = (node.lo - node.run_begin) / child_run_len;
      const size_t last = (node.hi - 1 - node.run_begin) / child_run_len;
      lvl.cascade.PrefetchElement(node.casc_base + first);
      lvl.cascade.PrefetchElement(node.casc_base + last);
      stats.prefetches += 2;
      if (node.casc_next) {
        lvl.cascade.PrefetchElement(node.casc_base + f + first);
        lvl.cascade.PrefetchElement(node.casc_base + f + last);
        stats.prefetches += 2;
      }
    }
  };

  auto refill = [&](Slot& slot, size_t slot_index) -> bool {
    while (next_query < queries.size()) {
      const size_t q = next_query++;
      const CountQuery& cq = queries[q];
      HWF_CHECK(cq.pos_hi <= n_);
      if (cq.pos_lo >= cq.pos_hi) {
        emitter.Retire(slot_index, q);  // empty query: no pieces
        continue;
      }
      slot.phase = kTopBisect;
      slot.query = q;
      slot.threshold = cq.threshold;
      slot.bis_base = 0;
      slot.bis_len = n_;
      slot.num_nodes = 1;
      slot.nodes[0].lo = cq.pos_lo;
      slot.nodes[0].hi = cq.pos_hi;
      HWF_PREFETCH(top + n_ / 2 - 1);
      ++stats.prefetches;
      return true;
    }
    slot.phase = kFree;
    return false;
  };

  auto step_top_bisect = [&](Slot& slot, size_t slot_index) {
    const size_t len = slot.bis_len;
    const size_t half = len / 2;
    const size_t base = slot.bis_base;
    slot.bis_base =
        (top[base + half - 1] < slot.threshold) ? base + half : base;
    slot.bis_len = len - half;
    if (slot.bis_len > 1) {
      HWF_PREFETCH(top + slot.bis_base + slot.bis_len / 2 - 1);
      ++stats.prefetches;
      return;
    }
    const size_t p =
        slot.bis_base + ((top[slot.bis_base] < slot.threshold) ? 1 : 0);
    const size_t lo = slot.nodes[0].lo;
    const size_t hi = slot.nodes[0].hi;
    if (lo == 0 && hi == n_) {
      if (p > 0) emitter.Emit(slot_index, slot.query, top_level, 0, p, false);
      emitter.Retire(slot_index, slot.query);
      if (!refill(slot, slot_index)) --active;
      return;
    }
    slot.nodes[0] =
        Node{/*run_begin=*/0, /*run_len_actual=*/n_, p, lo, hi, 0, false};
    slot.level = top_level;
    slot.phase = kDescend;
    enter_level(slot);
  };

  auto step_descend = [&](Slot& slot, size_t slot_index) {
    const size_t level = slot.level;
    const Level& child_lvl = levels_[level - 1];
    const Level& lvl = levels_[level];
    const size_t child_run_len = child_lvl.run_len;
    Node new_nodes[2];
    size_t num_new = 0;
    for (size_t ni = 0; ni < slot.num_nodes; ++ni) {
      const Node& node = slot.nodes[ni];
      const size_t run_end = node.run_begin + node.run_len_actual;
      // Pieces of a node that still contains the lower boundary (and whose
      // upper bound is the run end) precede, left to right, every piece
      // emitted at this level or above — they go to the replayed-in-reverse
      // buffer. Everything else is already in left-to-right order.
      const bool lo_side =
          node.lo > node.run_begin && node.hi == run_end;
      const size_t first = (node.lo - node.run_begin) / child_run_len;
      const size_t last = (node.hi - 1 - node.run_begin) / child_run_len;
      for (size_t c = first; c <= last; ++c) {
        const size_t cb = node.run_begin + c * child_run_len;
        const size_t ce = std::min(run_end, cb + child_run_len);
        size_t pc;
        if (level == 1) {
          pc = levels_[0].data.Get(cb) < slot.threshold ? 1 : 0;
        } else {
          size_t window_lo = 0;
          size_t window_hi = ce - cb;
          if (slot.casc_valid) {
            ++stats.cascade_lookups;
            window_lo =
                static_cast<size_t>(lvl.cascade.Get(node.casc_base + c));
            if (node.casc_next) {
              window_hi = std::min<size_t>(
                  static_cast<size_t>(lvl.cascade.Get(node.casc_base + f + c)),
                  ce - cb);
            }
          } else {
            ++stats.fallbacks;
          }
          pc = child_lvl.data.LowerBound(cb + window_lo, cb + window_hi,
                                         slot.threshold) -
               cb;
        }
        if (cb >= node.lo && ce <= node.hi) {
          if (pc > 0) {
            emitter.Emit(slot_index, slot.query, level - 1, cb, pc, lo_side);
          }
        } else {
          new_nodes[num_new++] = Node{cb,
                                      ce - cb,
                                      pc,
                                      std::max(node.lo, cb),
                                      std::min(node.hi, ce),
                                      0,
                                      false};
        }
      }
    }
    emitter.EndLoRound(slot_index);
    if (num_new == 0) {
      emitter.Retire(slot_index, slot.query);
      if (!refill(slot, slot_index)) --active;
      return;
    }
    slot.num_nodes = num_new;
    for (size_t ni = 0; ni < num_new; ++ni) slot.nodes[ni] = new_nodes[ni];
    --slot.level;
    enter_level(slot);
  };

  for (size_t s = 0; s < num_slots; ++s) {
    if (refill(slots[s], s)) ++active;
  }
  while (active > 0) {
    ++stats.rounds;
    for (size_t s = 0; s < num_slots; ++s) {
      Slot& slot = slots[s];
      switch (slot.phase) {
        case kFree:
          break;
        case kTopBisect:
          step_top_bisect(slot, s);
          break;
        case kDescend:
          step_descend(slot, s);
          break;
      }
    }
  }
  stats.Flush(queries.size());
}

template <typename Index>
void MergeSortTree<Index>::CountLessBatch(std::span<const CountQuery> queries,
                                          size_t group_size,
                                          size_t* out) const {
  for (size_t q = 0; q < queries.size(); ++q) out[q] = 0;
  internal_mst::CountCoverSum emitter{out};
  RunCountCoverBatch(queries, group_size, emitter);
}

template <typename Index>
template <typename Visitor>
void MergeSortTree<Index>::VisitCountCoverBatch(
    std::span<const CountQuery> queries, size_t group_size,
    Visitor&& visit) const {
  using VisitorT = std::remove_reference_t<Visitor>;
  internal_mst::OrderedCoverReplay<VisitorT> emitter(&visit);
  RunCountCoverBatch(queries, group_size, emitter);
}

}  // namespace hwf

#endif  // HWF_MST_PROBE_BATCH_H_
