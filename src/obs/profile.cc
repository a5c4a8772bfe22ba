#include "obs/profile.h"

#include <cstdio>

namespace hwf {
namespace obs {

const char* ProfilePhaseName(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kPartition:
      return "partition";
    case ProfilePhase::kSort:
      return "sort";
    case ProfilePhase::kPreprocess:
      return "preprocess";
    case ProfilePhase::kFrameResolve:
      return "frame_resolve";
    case ProfilePhase::kTreeBuild:
      return "tree_build";
    case ProfilePhase::kProbe:
      return "probe";
    case ProfilePhase::kSpill:
      return "spill";
    case ProfilePhase::kDeltaMerge:
      return "delta_merge";
    case ProfilePhase::kNumPhases:
      break;
  }
  return "unknown";
}

const char* PreprocessStepName(PreprocessStep step) {
  switch (step) {
    case PreprocessStep::kGatherCodes:
      return "gather_codes";
    case PreprocessStep::kRecordSort:
      return "record_sort";
    case PreprocessStep::kEmitArtifacts:
      return "emit_artifacts";
    case PreprocessStep::kNumSteps:
      break;
  }
  return "unknown";
}

const char* ScopedPreprocessStepTimer::StepTraceName(PreprocessStep step) {
  switch (step) {
    case PreprocessStep::kGatherCodes:
      return "window.preprocess.gather_codes";
    case PreprocessStep::kRecordSort:
      return "window.preprocess.record_sort";
    case PreprocessStep::kEmitArtifacts:
      return "window.preprocess.emit_artifacts";
    case PreprocessStep::kNumSteps:
      break;
  }
  return "window.preprocess.unknown";
}

const char* ScopedPhaseTimer::ProfilePhaseTraceName(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kPartition:
      return "window.partition";
    case ProfilePhase::kSort:
      return "window.sort";
    case ProfilePhase::kPreprocess:
      return "window.preprocess";
    case ProfilePhase::kFrameResolve:
      return "window.frame_resolve";
    case ProfilePhase::kTreeBuild:
      return "window.tree_build";
    case ProfilePhase::kProbe:
      return "window.probe";
    case ProfilePhase::kSpill:
      return "window.spill";
    case ProfilePhase::kDeltaMerge:
      return "window.delta_merge";
    case ProfilePhase::kNumPhases:
      break;
  }
  return "window.unknown";
}

void ExecutionProfile::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (double& seconds : phases_) seconds = 0;
  for (double& seconds : preprocess_steps_) seconds = 0;
  tree_levels_.clear();
  total_seconds_ = 0;
  rows_ = 0;
  partitions_ = 0;
  memory_limit_bytes_ = 0;
  peak_reserved_bytes_ = 0;
  engine_.clear();
  plan_text_.clear();
  counters_ = CounterSnapshot{};
}

void ExecutionProfile::AddPhaseSeconds(ProfilePhase phase, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  phases_[static_cast<size_t>(phase)] += seconds;
}

void ExecutionProfile::AddTreeLevelSeconds(size_t level_index,
                                           double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tree_levels_.size() <= level_index) {
    tree_levels_.resize(level_index + 1, 0.0);
  }
  tree_levels_[level_index] += seconds;
  phases_[static_cast<size_t>(ProfilePhase::kTreeBuild)] += seconds;
}

void ExecutionProfile::AddPreprocessStepSeconds(PreprocessStep step,
                                                double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  preprocess_steps_[static_cast<size_t>(step)] += seconds;
}

void ExecutionProfile::SetRows(size_t rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  rows_ = rows;
}

void ExecutionProfile::SetPartitions(size_t partitions) {
  std::lock_guard<std::mutex> lock(mutex_);
  partitions_ = partitions;
}

void ExecutionProfile::SetEngine(const std::string& engine) {
  std::lock_guard<std::mutex> lock(mutex_);
  engine_ = engine;
}

void ExecutionProfile::SetTotalSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_seconds_ = seconds;
}

void ExecutionProfile::SetPlanText(const std::string& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_text_ = plan;
}

std::string ExecutionProfile::plan_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_text_;
}

void ExecutionProfile::SetMemoryLimitBytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  memory_limit_bytes_ = bytes;
}

void ExecutionProfile::SetPeakReservedBytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  peak_reserved_bytes_ = bytes;
}

void ExecutionProfile::CaptureCountersSince(const CounterSnapshot& before) {
  const CounterSnapshot after = SnapshotCounters();
  std::lock_guard<std::mutex> lock(mutex_);
  counters_ = SnapshotDelta(before, after);
}

double ExecutionProfile::phase_seconds(ProfilePhase phase) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return phases_[static_cast<size_t>(phase)];
}

double ExecutionProfile::preprocess_step_seconds(PreprocessStep step) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return preprocess_steps_[static_cast<size_t>(step)];
}

std::vector<double> ExecutionProfile::tree_level_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tree_levels_;
}

double ExecutionProfile::total_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_seconds_;
}

size_t ExecutionProfile::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

size_t ExecutionProfile::partitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return partitions_;
}

size_t ExecutionProfile::memory_limit_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_limit_bytes_;
}

size_t ExecutionProfile::peak_reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_reserved_bytes_;
}

CounterSnapshot ExecutionProfile::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

namespace {

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out->append(buf);
}

void AppendJsonEscaped(std::string* out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string ExecutionProfile::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string json = "{";
  json += "\"rows\": " + std::to_string(rows_);
  json += ", \"partitions\": " + std::to_string(partitions_);
  json += ", \"engine\": \"" + engine_ + "\"";
  if (!plan_text_.empty()) {
    json += ", \"plan\": \"";
    AppendJsonEscaped(&json, plan_text_);
    json += "\"";
  }
  json += ", \"total_seconds\": ";
  AppendDouble(&json, total_seconds_);
  json += ", \"memory_limit_bytes\": " + std::to_string(memory_limit_bytes_);
  json += ", \"peak_reserved_bytes\": " + std::to_string(peak_reserved_bytes_);
  json += ", \"phases\": {";
  for (size_t i = 0; i < kNumProfilePhases; ++i) {
    if (i > 0) json += ", ";
    json += "\"";
    json += ProfilePhaseName(static_cast<ProfilePhase>(i));
    json += "\": ";
    AppendDouble(&json, phases_[i]);
  }
  json += "}, \"preprocess_steps\": {";
  for (size_t i = 0; i < kNumPreprocessSteps; ++i) {
    if (i > 0) json += ", ";
    json += "\"";
    json += PreprocessStepName(static_cast<PreprocessStep>(i));
    json += "\": ";
    AppendDouble(&json, preprocess_steps_[i]);
  }
  json += "}, \"tree_build_levels\": [";
  for (size_t i = 0; i < tree_levels_.size(); ++i) {
    if (i > 0) json += ", ";
    AppendDouble(&json, tree_levels_[i]);
  }
  json += "], \"counters\": {";
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (i > 0) json += ", ";
    json += "\"";
    json += CounterName(static_cast<Counter>(i));
    json += "\": " + std::to_string(counters_.values[i]);
  }
  json += "}}";
  return json;
}

std::string ExecutionProfile::Explain() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char line[160];

  std::snprintf(line, sizeof line, "Execution profile (%zu rows, %zu %s",
                rows_, partitions_,
                partitions_ == 1 ? "partition" : "partitions");
  out += line;
  if (!engine_.empty()) out += ", engine=" + engine_;
  out += ")\n";

  if (!plan_text_.empty()) {
    out += "  plan:\n";
    size_t begin = 0;
    while (begin < plan_text_.size()) {
      size_t end = plan_text_.find('\n', begin);
      if (end == std::string::npos) end = plan_text_.size();
      out += "    " + plan_text_.substr(begin, end - begin) + "\n";
      begin = end + 1;
    }
  }

  double accounted = 0;
  for (size_t i = 0; i < kNumProfilePhases; ++i) accounted += phases_[i];
  const double denom = total_seconds_ > 0 ? total_seconds_ : accounted;

  out += "  phase            seconds      share\n";
  for (size_t i = 0; i < kNumProfilePhases; ++i) {
    if (phases_[i] == 0) continue;
    std::snprintf(line, sizeof line, "  %-15s %10.6f   %6.1f%%\n",
                  ProfilePhaseName(static_cast<ProfilePhase>(i)), phases_[i],
                  denom > 0 ? 100.0 * phases_[i] / denom : 0.0);
    out += line;
  }
  if (total_seconds_ > 0) {
    std::snprintf(line, sizeof line, "  %-15s %10.6f\n", "total",
                  total_seconds_);
    out += line;
  }

  {
    bool steps_header = false;
    for (size_t i = 0; i < kNumPreprocessSteps; ++i) {
      if (preprocess_steps_[i] == 0) continue;
      if (!steps_header) {
        out += "  preprocess sub-steps:\n";
        steps_header = true;
      }
      std::snprintf(line, sizeof line, "    %-15s %10.6f s\n",
                    PreprocessStepName(static_cast<PreprocessStep>(i)),
                    preprocess_steps_[i]);
      out += line;
    }
  }

  if (memory_limit_bytes_ > 0 || peak_reserved_bytes_ > 0) {
    std::snprintf(line, sizeof line,
                  "  memory: limit %zu bytes, peak reserved %zu bytes\n",
                  memory_limit_bytes_, peak_reserved_bytes_);
    out += line;
  }

  if (!tree_levels_.empty()) {
    out += "  tree build by level:\n";
    for (size_t i = 0; i < tree_levels_.size(); ++i) {
      std::snprintf(line, sizeof line, "    level %-3zu %12.6f s\n", i + 1,
                    tree_levels_[i]);
      out += line;
    }
  }

  bool header_written = false;
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (counters_.values[i] == 0) continue;
    if (!header_written) {
      out += "  counters:\n";
      header_written = true;
    }
    std::snprintf(line, sizeof line, "    %-28s %llu\n",
                  CounterName(static_cast<Counter>(i)),
                  static_cast<unsigned long long>(counters_.values[i]));
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace hwf
