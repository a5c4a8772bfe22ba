// hwf_cli — run a framed window function over a CSV file.
//
// Examples:
//   hwf_cli --input trades.csv --function median --arg price
//           --order-by day --frame-begin preceding:6 --frame-end current
//
//   hwf_cli --input results.csv --function rank --func-order-by tps:desc
//           --order-by date --frame-begin unbounded --frame-end current
//
//   hwf_cli --input orders.csv --function count_distinct --arg custkey
//           --order-by orderdate --range --frame-begin preceding:30
//           --frame-end current --output with_mau.csv --format json
//
// The result is the input table plus one column (named after the
// function, or --as NAME), written to stdout or --output as CSV or JSON
// (--format). Every failure exits with the Status-code-specific exit code
// documented in service/result_format.h (2 = usage error).
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory_budget.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "service/result_format.h"
#include "storage/csv.h"
#include "window/executor.h"

namespace {

using namespace hwf;

void Usage() {
  std::fprintf(
      stderr,
      "usage: hwf_cli --input FILE --function FN [options]\n"
      "\n"
      "functions: count_star count sum min max avg count_distinct\n"
      "           sum_distinct avg_distinct min_distinct max_distinct\n"
      "           rank dense_rank row_number percent_rank cume_dist ntile\n"
      "           percentile_disc percentile_cont median first_value\n"
      "           last_value nth_value lead lag mode\n"
      "\n"
      "options:\n"
      "  --arg COLUMN               function argument column\n"
      "  --order-by COL[:desc][:nulls_first]   frame ORDER BY (repeatable)\n"
      "  --func-order-by COL[:desc]            function-level ORDER BY\n"
      "  --partition-by COLUMN      PARTITION BY (repeatable)\n"
      "  --frame-begin SPEC         unbounded | current | preceding:N |\n"
      "                             following:N | preceding-col:COL | "
      "following-col:COL\n"
      "  --frame-end SPEC           (same forms; default current)\n"
      "  --range | --groups         frame mode (default ROWS)\n"
      "  --exclude current|group|ties\n"
      "  --filter COLUMN            FILTER clause (int64 boolean column)\n"
      "  --ignore-nulls             IGNORE NULLS (value functions)\n"
      "  --fraction F               percentile fraction (default 0.5)\n"
      "  --param N                  lead/lag offset, nth_value n, ntile "
      "buckets\n"
      "  --engine mst|naive|incremental|ost     (default mst)\n"
      "  --memory_limit BYTES       memory budget with optional K/M/G\n"
      "                             suffix (e.g. 256M); spills to disk\n"
      "                             instead of exceeding it (default "
      "unlimited)\n"
      "  --as NAME                  result column name\n"
      "  --format csv|json          output format (default csv)\n"
      "  --output FILE              write the result here (default stdout)\n"
      "  --explain                  print the execution profile to stderr\n"
      "  --profile FILE             write the execution profile as JSON\n"
      "  --trace FILE               write a Chrome trace_event JSON of the "
      "run\n"
      "\n"
      "exit codes: 0 ok, 2 usage, 3 invalid argument, 4 out of range,\n"
      "            5 not implemented, 6 type mismatch, 7 internal,\n"
      "            8 resource exhausted, 9 cancelled, 10 deadline "
      "exceeded\n");
}

std::optional<WindowFunctionKind> ParseFunction(const std::string& name) {
  static const std::pair<const char*, WindowFunctionKind> kFunctions[] = {
      {"count_star", WindowFunctionKind::kCountStar},
      {"count", WindowFunctionKind::kCount},
      {"sum", WindowFunctionKind::kSum},
      {"min", WindowFunctionKind::kMin},
      {"max", WindowFunctionKind::kMax},
      {"avg", WindowFunctionKind::kAvg},
      {"count_distinct", WindowFunctionKind::kCountDistinct},
      {"sum_distinct", WindowFunctionKind::kSumDistinct},
      {"avg_distinct", WindowFunctionKind::kAvgDistinct},
      {"min_distinct", WindowFunctionKind::kMinDistinct},
      {"max_distinct", WindowFunctionKind::kMaxDistinct},
      {"rank", WindowFunctionKind::kRank},
      {"dense_rank", WindowFunctionKind::kDenseRank},
      {"row_number", WindowFunctionKind::kRowNumber},
      {"percent_rank", WindowFunctionKind::kPercentRank},
      {"cume_dist", WindowFunctionKind::kCumeDist},
      {"ntile", WindowFunctionKind::kNtile},
      {"percentile_disc", WindowFunctionKind::kPercentileDisc},
      {"percentile_cont", WindowFunctionKind::kPercentileCont},
      {"median", WindowFunctionKind::kMedian},
      {"first_value", WindowFunctionKind::kFirstValue},
      {"last_value", WindowFunctionKind::kLastValue},
      {"nth_value", WindowFunctionKind::kNthValue},
      {"lead", WindowFunctionKind::kLead},
      {"lag", WindowFunctionKind::kLag},
      {"mode", WindowFunctionKind::kMode},
  };
  for (const auto& [fn_name, kind] : kFunctions) {
    if (name == fn_name) return kind;
  }
  return std::nullopt;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

Status ParseSortKey(const Table& table, const std::string& spec,
                    SortKey* key) {
  std::vector<std::string> parts = Split(spec, ':');
  StatusOr<size_t> column = table.ColumnIndex(parts[0]);
  if (!column.ok()) return column.status();
  key->column = *column;
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i] == "desc") {
      key->ascending = false;
    } else if (parts[i] == "asc") {
      key->ascending = true;
    } else if (parts[i] == "nulls_first") {
      key->nulls_first = true;
    } else if (parts[i] == "nulls_last") {
      key->nulls_first = false;
    } else {
      return Status::InvalidArgument("unknown sort modifier '" + parts[i] +
                                     "'");
    }
  }
  return Status::OK();
}

Status ParseFrameBound(const Table& table, const std::string& spec,
                       FrameBound* bound) {
  std::vector<std::string> parts = Split(spec, ':');
  const std::string& kind = parts[0];
  if (kind == "unbounded" || kind == "unbounded_preceding") {
    *bound = FrameBound::UnboundedPreceding();
  } else if (kind == "unbounded_following") {
    *bound = FrameBound::UnboundedFollowing();
  } else if (kind == "current") {
    *bound = FrameBound::CurrentRow();
  } else if ((kind == "preceding" || kind == "following") &&
             parts.size() == 2) {
    const int64_t offset = std::atoll(parts[1].c_str());
    *bound = kind == "preceding" ? FrameBound::Preceding(offset)
                                 : FrameBound::Following(offset);
  } else if ((kind == "preceding-col" || kind == "following-col") &&
             parts.size() == 2) {
    StatusOr<size_t> column = table.ColumnIndex(parts[1]);
    if (!column.ok()) return column.status();
    *bound = kind == "preceding-col" ? FrameBound::PrecedingColumn(*column)
                                     : FrameBound::FollowingColumn(*column);
  } else {
    return Status::InvalidArgument("bad frame bound '" + spec + "'");
  }
  return Status::OK();
}

/// Everything main() parsed from argv; column names still unresolved.
struct CliArgs {
  std::string input_path;
  std::string output_path;
  std::string function_name;
  WindowFunctionKind kind = WindowFunctionKind::kCountStar;
  std::string result_name;
  std::string engine_name = "mst";
  std::vector<std::string> order_specs;
  std::vector<std::string> func_order_specs;
  std::vector<std::string> partition_names;
  std::string arg_name;
  std::string filter_name;
  std::string begin_spec = "unbounded";
  std::string end_spec = "current";
  std::string exclude_spec;
  std::string format_name = "csv";
  FrameMode mode = FrameMode::kRows;
  bool ignore_nulls = false;
  double fraction = 0.5;
  int64_t param = 1;
  bool explain = false;
  size_t memory_limit_bytes = 0;
  std::string profile_path;
  std::string trace_path;
};

/// The fallible part of the CLI: every failure is a Status, so main() can
/// map it to a distinct exit code.
Status RunCli(const CliArgs& args) {
  StatusOr<service::ResultFormat> format =
      service::ParseResultFormat(args.format_name);
  if (!format.ok()) return format.status();

  StatusOr<Table> table_or = ReadCsvFile(args.input_path);
  if (!table_or.ok()) return table_or.status();
  Table table = std::move(*table_or);

  WindowSpec spec;
  spec.frame.mode = args.mode;
  for (const std::string& name : args.partition_names) {
    StatusOr<size_t> column = table.ColumnIndex(name);
    if (!column.ok()) return column.status();
    spec.partition_by.push_back(*column);
  }
  for (const std::string& order : args.order_specs) {
    SortKey key;
    if (Status s = ParseSortKey(table, order, &key); !s.ok()) return s;
    spec.order_by.push_back(key);
  }
  if (Status s = ParseFrameBound(table, args.begin_spec, &spec.frame.begin);
      !s.ok()) {
    return s;
  }
  if (Status s = ParseFrameBound(table, args.end_spec, &spec.frame.end);
      !s.ok()) {
    return s;
  }
  if (!args.exclude_spec.empty()) {
    if (args.exclude_spec == "current") {
      spec.frame.exclusion = FrameExclusion::kCurrentRow;
    } else if (args.exclude_spec == "group") {
      spec.frame.exclusion = FrameExclusion::kGroup;
    } else if (args.exclude_spec == "ties") {
      spec.frame.exclusion = FrameExclusion::kTies;
    } else {
      return Status::InvalidArgument("bad --exclude '" + args.exclude_spec +
                                     "'");
    }
  }

  WindowFunctionCall call;
  call.kind = args.kind;
  call.ignore_nulls = args.ignore_nulls;
  call.fraction = args.fraction;
  call.param = args.param;
  if (!args.arg_name.empty()) {
    StatusOr<size_t> column = table.ColumnIndex(args.arg_name);
    if (!column.ok()) return column.status();
    call.argument = *column;
  }
  for (const std::string& order : args.func_order_specs) {
    SortKey key;
    if (Status s = ParseSortKey(table, order, &key); !s.ok()) return s;
    call.order_by.push_back(key);
  }
  if (!args.filter_name.empty()) {
    StatusOr<size_t> column = table.ColumnIndex(args.filter_name);
    if (!column.ok()) return column.status();
    call.filter = *column;
  }

  WindowExecutorOptions options;
  if (args.engine_name == "mst") {
    options.engine = WindowEngine::kMergeSortTree;
  } else if (args.engine_name == "naive") {
    options.engine = WindowEngine::kNaive;
  } else if (args.engine_name == "incremental") {
    options.engine = WindowEngine::kIncremental;
  } else if (args.engine_name == "ost") {
    options.engine = WindowEngine::kOrderStatisticTree;
  } else {
    return Status::InvalidArgument("unknown engine '" + args.engine_name +
                                   "'");
  }
  options.memory_limit_bytes = args.memory_limit_bytes;
  obs::ExecutionProfile profile;
  const bool want_profile = args.explain || !args.profile_path.empty() ||
                            !args.trace_path.empty();
  if (want_profile) options.profile = &profile;
  if (!args.trace_path.empty()) obs::Tracer::Get().Enable();

  StatusOr<Column> result = EvaluateWindowFunction(table, spec, call, options);
  if (!result.ok()) return result.status();
  if (args.explain) {
    std::fprintf(stderr, "%s", profile.Explain().c_str());
  }
  if (!args.profile_path.empty()) {
    const std::string json = profile.ToJson();
    if (std::FILE* f = std::fopen(args.profile_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    } else {
      return Status::Internal("cannot open " + args.profile_path);
    }
  }
  if (!args.trace_path.empty()) {
    if (Status s = obs::Tracer::Get().WriteChromeTrace(args.trace_path);
        !s.ok()) {
      return s;
    }
  }
  table.AddColumn(
      args.result_name.empty() ? args.function_name : args.result_name,
      std::move(*result));

  const std::string rendered = service::FormatTable(table, *format);
  if (args.output_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  } else {
    std::FILE* f = std::fopen(args.output_path.c_str(), "w");
    if (f == nullptr) {
      return Status::Internal("cannot open " + args.output_path);
    }
    std::fwrite(rendered.data(), 1, rendered.size(), f);
    std::fclose(f);
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--input") {
      args.input_path = next();
    } else if (flag == "--output") {
      args.output_path = next();
    } else if (flag == "--function") {
      args.function_name = next();
    } else if (flag == "--arg") {
      args.arg_name = next();
    } else if (flag == "--order-by") {
      args.order_specs.push_back(next());
    } else if (flag == "--func-order-by") {
      args.func_order_specs.push_back(next());
    } else if (flag == "--partition-by") {
      args.partition_names.push_back(next());
    } else if (flag == "--frame-begin") {
      args.begin_spec = next();
    } else if (flag == "--frame-end") {
      args.end_spec = next();
    } else if (flag == "--range") {
      args.mode = FrameMode::kRange;
    } else if (flag == "--groups") {
      args.mode = FrameMode::kGroups;
    } else if (flag == "--exclude") {
      args.exclude_spec = next();
    } else if (flag == "--filter") {
      args.filter_name = next();
    } else if (flag == "--ignore-nulls") {
      args.ignore_nulls = true;
    } else if (flag == "--fraction") {
      args.fraction = std::atof(next());
    } else if (flag == "--param") {
      args.param = std::atoll(next());
    } else if (flag == "--engine") {
      args.engine_name = next();
    } else if (flag == "--memory_limit") {
      const char* value = next();
      if (!mem::ParseMemorySize(value, &args.memory_limit_bytes)) {
        std::fprintf(stderr, "error: bad --memory_limit '%s'\n", value);
        return 2;
      }
    } else if (flag == "--as") {
      args.result_name = next();
    } else if (flag == "--format") {
      args.format_name = next();
    } else if (flag == "--explain") {
      args.explain = true;
    } else if (flag == "--profile") {
      args.profile_path = next();
    } else if (flag == "--trace") {
      args.trace_path = next();
    } else if (flag == "--help" || flag == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", flag.c_str());
      Usage();
      return 2;
    }
  }

  if (args.input_path.empty() || args.function_name.empty()) {
    Usage();
    return 2;
  }
  std::optional<WindowFunctionKind> kind = ParseFunction(args.function_name);
  if (!kind.has_value()) {
    std::fprintf(stderr, "error: unknown function '%s'\n",
                 args.function_name.c_str());
    return 2;
  }
  args.kind = *kind;

  const Status status = RunCli(args);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  return hwf::service::ExitCodeForStatus(status);
}
