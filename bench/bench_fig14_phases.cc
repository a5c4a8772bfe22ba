// Figure 14: execution-phase breakdown of a framed (running) distinct
// count,
//   count(DISTINCT l_partkey) OVER (ORDER BY l_shipdate
//                                   ROWS UNBOUNDED PRECEDING),
// measured through the production window executor
// (EvaluateWindowSpecGroups). The paper's phases map onto the executor's
// profile taxonomy:
//   1. partition/sort setup of the window operator   -> partition, sort
//   2.-4. Algorithm 1 (hash array, its sort, prevIdcs) -> preprocess
//   5. build the merge sort tree levels               -> tree_build
//   6. compute all results from the tree              -> probe
// plus frame_resolve, which the paper folds into its setup phase.
//
// The reproduced quantity is the *proportion* of time per phase (the
// paper ran SF10 on 40 hardware threads; see EXPERIMENTS.md for this
// host's run).
//
// Observability: the run executes with span tracing enabled and writes
//   --trace=PATH    Chrome trace_event JSON (default BENCH_fig14_trace.json)
//                   — the executor's phase spans plus the nested
//                   sort/preprocess/tree-level spans, loadable in
//                   chrome://tracing or Perfetto
//   --profile=PATH  ExecutionProfile JSON (default BENCH_fig14_phases.json)
//                   — the executor's profile of the measured run, with
//                   per-tree-level build seconds and counters
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/tpch_gen.h"
#include "window/executor.h"

int main(int argc, char** argv) {
  using namespace hwf;

  std::string trace_path = "BENCH_fig14_trace.json";
  std::string profile_path = "BENCH_fig14_phases.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile_path = argv[i] + 10;
    } else {
      std::fprintf(stderr, "unknown flag %s (--trace=PATH, --profile=PATH)\n",
                   argv[i]);
      return 1;
    }
  }

  const size_t n = bench::Scaled(2000000);
  Table lineitem = GenerateLineitem(n, /*seed=*/14);

  WindowSpec spec;
  spec.order_by = {SortKey{lineitem.MustColumnIndex("l_shipdate")}};
  spec.frame.begin = FrameBound::UnboundedPreceding();
  spec.frame.end = FrameBound::CurrentRow();
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kCountDistinct;
  call.argument = lineitem.MustColumnIndex("l_partkey");
  const WindowSpecGroup group{&spec, std::span<const WindowFunctionCall>(
                                         &call, 1)};

  obs::Tracer::Get().Enable();
  obs::ExecutionProfile profile;
  WindowExecutorOptions options;
  options.profile = &profile;
  bench::Timer total;
  StatusOr<std::vector<std::vector<Column>>> result = EvaluateWindowSpecGroups(
      lineitem, std::span<const WindowSpecGroup>(&group, 1), options);
  const double total_seconds = total.Seconds();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  bench::PrintHeader(
      "Figure 14: phase breakdown of a running COUNT(DISTINCT l_partkey), "
      "n = " +
      std::to_string(n));
  std::printf("%-28s %10s %8s\n", "phase", "time [s]", "share");
  double phase_sum = 0;
  for (size_t p = 0; p < obs::kNumProfilePhases; ++p) {
    const obs::ProfilePhase phase = static_cast<obs::ProfilePhase>(p);
    const double seconds = profile.phase_seconds(phase);
    phase_sum += seconds;
    if (seconds == 0) continue;
    std::printf("%-28s %10.3f %7.1f%%\n", obs::ProfilePhaseName(phase),
                seconds, 100.0 * seconds / total_seconds);
  }
  // Phases are summed over the worker threads, so on more than one core
  // their sum may exceed the wall time.
  std::printf("%-28s %10.3f\n", "phase sum", phase_sum);
  std::printf("%-28s %10.3f\n", "total (wall)", total_seconds);
  // The running count peaks at the last row in ORDER BY order.
  const Column& counts = (*result)[0][0];
  int64_t last = 0;
  for (size_t i = 0; i < n; ++i) last = std::max(last, counts.GetInt64(i));
  std::printf("(distinct count at the last row: %lld)\n",
              static_cast<long long>(last));

  bench::BenchJson json("fig14_phases");
  json.Add("count_distinct_running",
           static_cast<double>(n) / total_seconds / 1e6, &profile);
  if (!json.WriteFile(profile_path)) return 1;
  const Status trace_status = obs::Tracer::Get().WriteChromeTrace(trace_path);
  if (!trace_status.ok()) {
    std::fprintf(stderr, "%s\n", trace_status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", trace_path.c_str());
  return 0;
}
