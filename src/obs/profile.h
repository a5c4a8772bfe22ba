#ifndef HWF_OBS_PROFILE_H_
#define HWF_OBS_PROFILE_H_

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"

namespace hwf {
namespace obs {

/// The phase taxonomy of the paper's evaluation (Fig. 14), shared by the
/// window executor, the MST build, and the figure benchmarks so every
/// emitted profile decomposes the same way:
///   - kPartition: partition-boundary detection over the sorted input.
///   - kSort: the global (partition keys, order keys) sort.
///   - kPreprocess: Algorithm 1 — permutation / dense-code construction,
///     hash-array population, prevIdcs. The evaluators record this
///     themselves, and the executor subtracts it from kProbe, so kProbe
///     measures query answering only.
///   - kFrameResolve: per-row frame-bound resolution.
///   - kTreeBuild: merge sort tree level construction (per-level detail in
///     tree_level_seconds()).
///   - kProbe: computing results from the built structures.
///   - kSpill: writing sorted runs / evicted tree levels to spill files and
///     reading them back (only non-zero when a memory budget forces the
///     out-of-core path).
///   - kDeltaMerge: the streaming-ingest increment — sorting freshly
///     appended delta rows and stably merging them into a cached base sort
///     artifact (only non-zero on the first query after an append; replaces
///     kSort, which stays 0 on that path).
enum class ProfilePhase : size_t {
  kPartition,
  kSort,
  kPreprocess,
  kFrameResolve,
  kTreeBuild,
  kProbe,
  kSpill,
  kDeltaMerge,
  kNumPhases,
};

inline constexpr size_t kNumProfilePhases =
    static_cast<size_t>(ProfilePhase::kNumPhases);

/// Stable snake_case name ("partition", "sort", ...), used as JSON key.
const char* ProfilePhaseName(ProfilePhase phase);

/// Sub-steps of kPreprocess, so the fused pipeline's internals are
/// individually visible (kPreprocess itself is unchanged — sub-step
/// seconds are an orthogonal breakdown recorded alongside it):
///   - kGatherCodes: hashing/encoding argument or order-key columns into
///     the sortable records.
///   - kRecordSort: the one shared (key, position) record sort.
///   - kEmitArtifacts: the morsel-parallel pass emitting permutation,
///     dense/unique codes, prevIdcs and nextIdcs from the sorted records.
enum class PreprocessStep : size_t {
  kGatherCodes,
  kRecordSort,
  kEmitArtifacts,
  kNumSteps,
};

inline constexpr size_t kNumPreprocessSteps =
    static_cast<size_t>(PreprocessStep::kNumSteps);

/// Stable snake_case name ("gather_codes", ...), used as JSON key.
const char* PreprocessStepName(PreprocessStep step);

/// Aggregated cost profile of one window-function execution (or one
/// benchmark pipeline): per-phase wall seconds, per-tree-level build
/// seconds, and the counter activity between start and finish.
///
/// Producers accumulate concurrently (phase adds are mutex-protected and
/// cheap relative to the phases they describe). When partitions are
/// evaluated in parallel, per-partition phases sum CPU-style and can exceed
/// the wall total; with a serial pool they nest within it.
class ExecutionProfile {
 public:
  ExecutionProfile() = default;
  ExecutionProfile(const ExecutionProfile&) = delete;
  ExecutionProfile& operator=(const ExecutionProfile&) = delete;

  /// Forgets all recorded data (the executor clears the attached profile
  /// on entry, so one profile object can be reused across runs).
  void Clear();

  /// Adds wall seconds to a phase.
  void AddPhaseSeconds(ProfilePhase phase, double seconds);

  /// Adds wall seconds to tree level `level_index` (0 = level 1, the first
  /// merged level) and to the kTreeBuild phase.
  void AddTreeLevelSeconds(size_t level_index, double seconds);

  /// Adds wall seconds to a kPreprocess sub-step (does NOT touch the
  /// kPreprocess phase total — evaluators time that separately around the
  /// whole preprocessing block).
  void AddPreprocessStepSeconds(PreprocessStep step, double seconds);

  void SetRows(size_t rows);
  void SetPartitions(size_t partitions);
  void SetEngine(const std::string& engine);
  void SetTotalSeconds(double seconds);

  /// Human-readable execution plan (the executor's shared-sort / hash-
  /// partition decisions, one line per sort chain). Rendered verbatim in
  /// Explain() and as an escaped "plan" string in ToJson().
  void SetPlanText(const std::string& plan);
  std::string plan_text() const;

  /// Memory-governance summary: the budget the run was given (0 =
  /// unlimited) and the high-water mark of reserved bytes. Peaks are a
  /// maximum, not a monotonic counter, so they live here instead of in the
  /// counter table (snapshot deltas would corrupt them).
  void SetMemoryLimitBytes(size_t bytes);
  void SetPeakReservedBytes(size_t bytes);

  /// Stores the counter activity since `before` (captured via
  /// SnapshotCounters() when the execution started).
  void CaptureCountersSince(const CounterSnapshot& before);

  double phase_seconds(ProfilePhase phase) const;
  double preprocess_step_seconds(PreprocessStep step) const;
  std::vector<double> tree_level_seconds() const;
  double total_seconds() const;
  size_t rows() const;
  size_t partitions() const;
  size_t memory_limit_bytes() const;
  size_t peak_reserved_bytes() const;
  CounterSnapshot counters() const;

  /// Serializes the profile as one JSON object:
  /// {"rows":..., "partitions":..., "engine":..., "total_seconds":...,
  ///  "phases": {"partition":..., ...}, "tree_build_levels": [...],
  ///  "counters": {"pool.tasks_submitted":..., ...}}
  std::string ToJson() const;

  /// Human-readable table: phases with shares of the total, per-level tree
  /// build times, and non-zero counters.
  std::string Explain() const;

 private:
  mutable std::mutex mutex_;
  double phases_[kNumProfilePhases] = {};
  double preprocess_steps_[kNumPreprocessSteps] = {};
  std::vector<double> tree_levels_;
  double total_seconds_ = 0;
  size_t rows_ = 0;
  size_t partitions_ = 0;
  size_t memory_limit_bytes_ = 0;
  size_t peak_reserved_bytes_ = 0;
  std::string engine_;
  std::string plan_text_;
  CounterSnapshot counters_{};
};

/// RAII phase timer: adds the scope's wall time to `profile` (when
/// non-null) and emits a trace span named after the phase. Reads the clock
/// only when it has somewhere to report to.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(ExecutionProfile* profile, ProfilePhase phase)
      : profile_(profile),
        phase_(phase),
        trace_(ProfilePhaseTraceName(phase)) {
    if (profile_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

  ~ScopedPhaseTimer() {
    if (profile_ != nullptr) {
      profile_->AddPhaseSeconds(
          phase_, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    }
  }

  /// "window.partition", "window.sort", ... — the span names the phases
  /// trace under (distinct from the JSON keys, which drop the prefix).
  static const char* ProfilePhaseTraceName(ProfilePhase phase);

 private:
  ExecutionProfile* profile_;
  ProfilePhase phase_;
  TraceScope trace_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII timer for a kPreprocess sub-step: adds the scope's wall time to the
/// sub-step breakdown and emits a "window.preprocess.<step>" trace span.
/// Nested inside the evaluators' kPreprocess ScopedPhaseTimer.
class ScopedPreprocessStepTimer {
 public:
  ScopedPreprocessStepTimer(ExecutionProfile* profile, PreprocessStep step)
      : profile_(profile), step_(step), trace_(StepTraceName(step)) {
    if (profile_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedPreprocessStepTimer(const ScopedPreprocessStepTimer&) = delete;
  ScopedPreprocessStepTimer& operator=(const ScopedPreprocessStepTimer&) =
      delete;

  ~ScopedPreprocessStepTimer() {
    if (profile_ != nullptr) {
      profile_->AddPreprocessStepSeconds(
          step_, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
    }
  }

  static const char* StepTraceName(PreprocessStep step);

 private:
  ExecutionProfile* profile_;
  PreprocessStep step_;
  TraceScope trace_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace hwf

#endif  // HWF_OBS_PROFILE_H_
