// perfbench_child — one workload of the repository benchmark, run as a
// child process of perfbench/run.py.
//
// The child generates its inputs from --seed (the program under test only
// ever sees the generated tables and CSV text), computes the naive-engine
// oracle digest of every distinct query, sets the program up, and then
// executes its share of a fixed operation sequence, reporting each
// operation on stdout as one flushed line:
//
//   I <json>                    thread and client counts of the workload
//   O <key> <value> [<text> <cli>]
//                               oracle digests (naive engine, untimed);
//                               ingest states carry the value form only
//   S <seconds>                 one timed set-up (--timed-setup 1 only)
//   K <json>                    counter/gauge baseline (traced runs)
//   B <op>                      operation started
//   E <op> <client> <kind> <t0_ns> <t1_ns> <status> <rows> <bytes> <traced>
//     [<json>]                  operation ended; json = cumulative
//                               counters and gauges (traced runs)
//   P <json>                    one span of a traced operation
//   X <message>                 harness-level failure (not a timing)
//   D                           segment finished
//
// A crash of the program kills this process; run.py counts the operations
// that began but never ended as failed and restarts the child with
// --resume/--replay/--oracle so it continues the same sequence. Spans and
// per-operation records live in run.py, which writes the Chrome trace.
#include <sched.h>
#include <signal.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dist/coordinator.h"
#include "dist/wire_client.h"
#include "obs/counters.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"
#include "service/result_format.h"
#include "service/service.h"
#include "service/sql_parser.h"
#include "service/tcp_server.h"
#include "storage/csv.h"
#include "storage/table.h"
#include "window/executor.h"

namespace {

using namespace hwf;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Serializes protocol lines from all client threads; every line is
/// flushed so a crash loses at most the operations still in flight.
class Emitter {
 public:
  void Line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

 private:
  std::mutex mutex_;
};

Emitter g_out;

[[noreturn]] void Fatal(const std::string& message) {
  g_out.Line("X " + message);
  std::exit(3);
}

// ---------------------------------------------------------------------------
// Inputs: the benchmark's own seeded generator.

struct Rng {
  uint64_t state;
  uint64_t Next() {  // splitmix64
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int64_t Below(uint64_t n) { return static_cast<int64_t>(Next() % n); }
};

// Set-ups per run before the timed window; run.py reports their median.
constexpr int kSetupReps = 3;

// Table size (--rows, 200K by default; the tests run tiny tables) and the
// APPEND batch size, 1% of the table.
size_t g_rows = 200000;
size_t g_append_rows = 2000;
constexpr int64_t kGroups = 20;       // ~10K-row partitions
constexpr int64_t kTsSpan = 1000000000;

/// Rows [first_id, first_id + count) with order keys in
/// [ts_lo, ts_lo + ts_span). Columns: id, grp (partition / shard key), ts
/// (order key), val, cat (500 distinct values), w (per-row frame offset
/// 0..100), price (double), sym (string).
Table MakeRows(uint64_t seed, size_t count, int64_t first_id, int64_t ts_lo,
               int64_t ts_span) {
  Rng rng{seed};
  std::vector<int64_t> id, grp, ts, val, cat, w;
  std::vector<double> price;
  std::vector<std::string> sym;
  for (size_t i = 0; i < count; ++i) {
    id.push_back(first_id + static_cast<int64_t>(i));
    grp.push_back(rng.Below(kGroups));
    ts.push_back(ts_lo + rng.Below(static_cast<uint64_t>(ts_span)));
    val.push_back(rng.Below(100000));
    cat.push_back(rng.Below(500));
    w.push_back(rng.Below(101));
    price.push_back(static_cast<double>(rng.Below(1000000)) / 100.0);
    sym.push_back("S" + std::to_string(rng.Below(100)));
  }
  Table table;
  table.AddColumn("id", Column::FromInt64(std::move(id)));
  table.AddColumn("grp", Column::FromInt64(std::move(grp)));
  table.AddColumn("ts", Column::FromInt64(std::move(ts)));
  table.AddColumn("val", Column::FromInt64(std::move(val)));
  table.AddColumn("cat", Column::FromInt64(std::move(cat)));
  table.AddColumn("w", Column::FromInt64(std::move(w)));
  table.AddColumn("price", Column::FromDouble(std::move(price)));
  table.AddColumn("sym", Column::FromString(std::move(sym)));
  return table;
}

/// The APPEND batch of operation `op`: a pure function of (seed, op), so a
/// restarted child replays exactly the acknowledged batches. Ids and order
/// keys lie past the base table, as in a time-ordered stream.
Table MakeAppendBatch(uint64_t seed, size_t op) {
  return MakeRows(seed * 1000003 + op + 1, g_append_rows,
                  static_cast<int64_t>(g_rows + op * g_append_rows),
                  kTsSpan + static_cast<int64_t>(op) * 1000000, 1000000);
}

// ---------------------------------------------------------------------------
// Query mix. Frames span ~100 to ~10K rows; every query is cheap enough for
// the naive oracle at 200K rows.

struct QueryDef {
  const char* name;
  const char* sql;
};

const QueryDef kQueries[] = {
    {"cd100",
     "SELECT count(DISTINCT cat) OVER (PARTITION BY grp ORDER BY ts ROWS "
     "BETWEEN 100 PRECEDING AND CURRENT ROW) AS cd FROM t"},
    {"med1k",
     "SELECT percentile_disc(0.5 ORDER BY val) OVER (PARTITION BY grp ORDER "
     "BY ts ROWS BETWEEN 500 PRECEDING AND 500 FOLLOWING) AS med FROM t"},
    {"rank500",
     "SELECT rank(ORDER BY val) OVER (PARTITION BY grp ORDER BY ts ROWS "
     "BETWEEN 500 PRECEDING AND CURRENT ROW) AS rk FROM t"},
    {"drank100",
     "SELECT dense_rank(ORDER BY cat) OVER (PARTITION BY grp ORDER BY ts "
     "ROWS BETWEEN 100 PRECEDING AND CURRENT ROW) AS drk FROM t"},
    {"leadlag",
     "SELECT lead(val, 2) OVER (PARTITION BY grp ORDER BY ts ROWS BETWEEN 20 "
     "PRECEDING AND 20 FOLLOWING) AS ld, lag(val, 2) OVER (PARTITION BY grp "
     "ORDER BY ts ROWS BETWEEN 20 PRECEDING AND 20 FOLLOWING) AS lg FROM t"},
    {"sum10k",
     "SELECT sum(val) OVER (PARTITION BY grp ORDER BY ts ROWS BETWEEN 10000 "
     "PRECEDING AND CURRENT ROW) AS s10k FROM t"},
    {"nonmono",
     "SELECT count(DISTINCT cat) OVER (PARTITION BY grp ORDER BY ts ROWS "
     "BETWEEN w PRECEDING AND w FOLLOWING) AS cdw FROM t"},
    {"shared2",
     "SELECT sum(val) OVER (PARTITION BY grp ORDER BY ts ROWS BETWEEN 200 "
     "PRECEDING AND CURRENT ROW) AS s200, percentile_disc(0.9 ORDER BY val) "
     "OVER (PARTITION BY grp ORDER BY ts, id ROWS BETWEEN 200 PRECEDING AND "
     "CURRENT ROW) AS p90 FROM t"},
    {"cd10",
     "SELECT count(DISTINCT cat) OVER (PARTITION BY grp ORDER BY ts ROWS "
     "BETWEEN 10 PRECEDING AND CURRENT ROW) AS cd10 FROM t"},
    {"drank20",
     "SELECT dense_rank(ORDER BY cat) OVER (PARTITION BY grp ORDER BY ts "
     "ROWS BETWEEN 20 PRECEDING AND CURRENT ROW) AS drk20 FROM t"},
    {"fallback",
     "SELECT count(DISTINCT val) OVER (PARTITION BY cat ORDER BY ts ROWS "
     "BETWEEN 20 PRECEDING AND CURRENT ROW) AS cdv FROM t"},
};
constexpr int kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);
constexpr int kAppend = -1;  // mix entry for an APPEND batch

int QueryIndex(const char* name) {
  for (int q = 0; q < kNumQueries; ++q) {
    if (std::strcmp(kQueries[q].name, name) == 0) return q;
  }
  Fatal(std::string("unknown query ") + name);
}

// ---------------------------------------------------------------------------
// Result digests: FNV-1a over a CSV rendering written here, independently
// of the library's formatter (header row, '\n' rows, NULL as an empty
// field, int64 in decimal, doubles as %.17g).

using NamedColumns = std::vector<std::pair<std::string, const Column*>>;

NamedColumns ColumnsOf(const Table& table) {
  NamedColumns out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    out.emplace_back(table.column_name(c), &table.column(c));
  }
  return out;
}

NamedColumns ColumnsOf(
    const std::vector<std::pair<std::string, Column>>& columns) {
  NamedColumns out;
  for (const auto& [name, column] : columns) out.emplace_back(name, &column);
  return out;
}

std::string RenderCsv(const NamedColumns& columns) {
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out.push_back(',');
    out += columns[c].first;
  }
  out.push_back('\n');
  const size_t rows = columns.empty() ? 0 : columns[0].second->size();
  char buffer[64];
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out.push_back(',');
      const Column& column = *columns[c].second;
      if (column.IsNull(r)) continue;
      switch (column.type()) {
        case DataType::kInt64:
          std::snprintf(buffer, sizeof(buffer), "%" PRId64,
                        column.GetInt64(r));
          out += buffer;
          break;
        case DataType::kDouble:
          std::snprintf(buffer, sizeof(buffer), "%.17g", column.GetDouble(r));
          out += buffer;
          break;
        case DataType::kString:
          out += column.GetString(r);  // generator strings need no quoting
          break;
      }
    }
    out.push_back('\n');
  }
  return out;
}

uint64_t Digest(std::string_view text) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of result values, for results the harness holds as columns:
/// cheap enough to take between timed operations without stretching the
/// measured window. Covers names, types, NULLs and every value.
uint64_t ValueDigest(const NamedColumns& columns) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  const auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  for (const auto& [name, column] : columns) {
    mix(Digest(name));
    mix(static_cast<uint64_t>(column->type()));
    for (size_t r = 0; r < column->size(); ++r) {
      if (column->IsNull(r)) {
        mix(0x5bd1e995ULL);
        continue;
      }
      switch (column->type()) {
        case DataType::kInt64:
          mix(static_cast<uint64_t>(column->GetInt64(r)));
          break;
        case DataType::kDouble: {
          const double value = column->GetDouble(r);
          uint64_t bits = 0;
          std::memcpy(&bits, &value, sizeof(bits));
          mix(bits);
          break;
        }
        case DataType::kString:
          mix(Digest(column->GetString(r)));
          break;
      }
    }
  }
  return h;
}

/// How a workload's operations return results, and so which digest of
/// the naive result they are compared with.
enum class DigestForm {
  kValue,  // result columns in memory: ValueDigest
  kText,   // wire payload: the result formatted as CSV
  kCli,    // hwf_cli output: input plus result columns formatted as CSV
};

/// The naive result's digest in every form (run.py caches all three, so
/// workloads sharing a query and seed compute it once).
std::array<uint64_t, 3> OracleDigests(const Table& base,
                                      const NamedColumns& result) {
  NamedColumns all = ColumnsOf(base);
  all.insert(all.end(), result.begin(), result.end());
  return {ValueDigest(result), Digest(RenderCsv(result)),
          Digest(RenderCsv(all))};
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

/// Oracle key of query `q` over the base table, or over the base table
/// plus the APPEND batches of ops `applied`, in order (ingest states).
std::string OracleKey(int q, const std::vector<size_t>& applied = {}) {
  std::string key = std::to_string(q);
  if (applied.empty()) return key;
  std::string ops;
  for (const size_t op : applied) ops += std::to_string(op) + ",";
  return key + "@" + Hex(Digest(ops));
}

/// Evaluates a planned query and returns its result columns in select-list
/// order (the assembly hwf_cli and the service perform).
StatusOr<std::vector<std::pair<std::string, Column>>> EvaluatePlan(
    const Table& table, const service::PlannedQuery& plan,
    const WindowExecutorOptions& options, ThreadPool& pool) {
  std::vector<WindowSpecGroup> groups;
  for (const service::PlannedGroup& group : plan.groups) {
    groups.push_back(WindowSpecGroup{&group.spec, group.calls});
  }
  StatusOr<std::vector<std::vector<Column>>> columns =
      EvaluateWindowSpecGroups(table, groups, options, pool);
  if (!columns.ok()) return columns.status();
  std::vector<std::optional<Column>> slots(plan.output_names.size());
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    for (size_t i = 0; i < (*columns)[g].size(); ++i) {
      slots[plan.groups[g].output_slots[i]] = std::move((*columns)[g][i]);
    }
  }
  std::vector<std::pair<std::string, Column>> out;
  for (size_t s = 0; s < slots.size(); ++s) {
    out.emplace_back(plan.output_names[s], std::move(*slots[s]));
  }
  return out;
}

/// Naive-engine result columns of query `q` over `table`.
std::vector<std::pair<std::string, Column>> NaiveResult(const Table& table,
                                                        int q,
                                                        ThreadPool& pool) {
  StatusOr<service::PlannedQuery> plan =
      service::PlanQuery(kQueries[q].sql, table);
  if (!plan.ok()) Fatal("oracle plan: " + plan.status().ToString());
  WindowExecutorOptions options;
  options.engine = WindowEngine::kNaive;
  auto result = EvaluatePlan(table, *plan, options, pool);
  if (!result.ok()) Fatal("oracle eval: " + result.status().ToString());
  return std::move(*result);
}

// ---------------------------------------------------------------------------
// Tracing: spans of one operation, emitted as P lines.

std::string JsonNum(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

class OpTrace {
 public:
  OpTrace(size_t op, bool on) : op_(op), on_(on) {}
  bool on() const { return on_; }
  void set_query_id(uint64_t id) { query_id_ = id; }

  /// Records a span and returns its id (0 when tracing is off). `args` is
  /// a JSON object body without braces.
  uint64_t Span(const char* name, int64_t t0, int64_t t1, uint64_t parent,
                const std::string& args = std::string()) {
    if (!on_) return 0;
    const uint64_t id = op_ * 64 + (++next_);
    g_out.Line("P {\"op\":" + std::to_string(op_) + ",\"name\":\"" + name +
               "\",\"t0\":" + std::to_string(t0) +
               ",\"t1\":" + std::to_string(t1) +
               ",\"id\":" + std::to_string(id) +
               ",\"parent\":" + std::to_string(parent) +
               ",\"qid\":" + std::to_string(query_id_) + ",\"args\":{" +
               args + "}}");
    return id;
  }

 private:
  size_t op_;
  bool on_;
  uint64_t query_id_ = 0;
  uint64_t next_ = 0;
};

/// Executor phase breakdown as span args (milliseconds).
std::string ProfileArgs(const obs::ExecutionProfile& profile) {
  std::string args = "\"wall_ms\":" + JsonNum(profile.total_seconds() * 1e3);
  for (size_t p = 0; p < obs::kNumProfilePhases; ++p) {
    const auto phase = static_cast<obs::ProfilePhase>(p);
    args += std::string(",\"") + obs::ProfilePhaseName(phase) +
            "_ms\":" + JsonNum(profile.phase_seconds(phase) * 1e3);
  }
  return args;
}

/// The number after `"key": ` in `json` (0 when absent).
double JsonField(std::string_view json, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtod(std::string(json.substr(pos + needle.size(), 32)).c_str(),
                     nullptr);
}

/// Lays the service's own stage timings (admission to finish, from its
/// retained record of query `id`) out as spans starting at `t0`: queue
/// wait, then the session's work, which contains parse/plan and the
/// executor call with its phase breakdown.
void ServiceSpans(OpTrace& trace, uint64_t parent, int64_t t0,
                  const service::QueryService& svc, uint64_t id) {
  StatusOr<std::string> retained = svc.RetainedProfileJson(id);
  if (!retained.ok()) return;
  const std::string_view record = *retained;
  const auto ns = [](double seconds) {
    return static_cast<int64_t>(seconds * 1e9);
  };
  const int64_t queue_end = t0 + ns(JsonField(record, "queue_wait_seconds"));
  const int64_t exec_end = queue_end + ns(JsonField(record, "exec_seconds"));
  const int64_t plan_end =
      queue_end + ns(JsonField(record, "parse_plan_seconds"));
  trace.Span("service.queue_wait", t0, queue_end, parent);
  const uint64_t session =
      trace.Span("service.exec", queue_end, exec_end, parent);
  trace.Span("plan", queue_end, plan_end, session);
  const size_t at = record.find("\"profile\": {");
  if (at == std::string::npos) return;
  const std::string_view profile = record.substr(at);
  const double wall = JsonField(profile, "total_seconds");
  std::string args = "\"wall_ms\":" + JsonNum(wall * 1e3);
  const std::string_view phases = profile.substr(profile.find("\"phases\""));
  for (size_t p = 0; p < obs::kNumProfilePhases; ++p) {
    const char* name = obs::ProfilePhaseName(static_cast<obs::ProfilePhase>(p));
    args += std::string(",\"") + name +
            "_ms\":" + JsonNum(JsonField(phases, name) * 1e3);
  }
  trace.Span("exec", plan_end, plan_end + ns(wall), session, args);
}

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  size_t cycles = 1;
  bool trace = false;
  bool timed_setup = true;
  int nproc = 1;
  std::vector<size_t> resume;                 // next op per client
  std::vector<size_t> replay;                 // acknowledged APPEND ops
  std::map<std::string, std::string> oracle;  // digests already known
  long corrupt_op = -1;  // test hook: flip this op's digest
  long kill_at_op = -1;  // test hook: SIGKILL at this op
  size_t rows = 200000;
};

/// Worker count for a pool that may run beside `other_busy` CPU-burning
/// threads without exceeding nproc. ThreadPool(0) means "hardware - 1",
/// so an empty budget maps to the worker-less pool (-1).
int PoolWorkers(int nproc, int other_busy) {
  const int workers = nproc - other_busy;
  return workers > 0 ? workers : -1;
}

/// One operation: its timed interval (the public calls only, never the
/// oracle check), result status, input rows and bytes moved.
struct OpOutcome {
  const char* status = "ok";  // ok | mismatch | error
  size_t rows = 0;
  size_t bytes = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const std::vector<int>& mix() const = 0;
  virtual int clients() const { return 1; }
  /// Threads that can burn CPU at once, by construction, and its parts.
  virtual std::string ThreadsJson() const = 0;
  /// The form of result this workload's operations return: values by
  /// default.
  virtual DigestForm form() const { return DigestForm::kValue; }
  virtual void Setup() = 0;
  virtual void Teardown() = 0;
  virtual void Replay(const std::vector<size_t>& acked) { (void)acked; }
  /// Adds the oracle digests of states other than the base table that the
  /// remaining operations will read (untimed, before set-up).
  virtual void ExpectStates(std::map<std::string, uint64_t>* oracle,
                            ThreadPool& pool) {
    (void)oracle;
    (void)pool;
  }
  virtual OpOutcome Run(size_t op, int client, OpTrace& trace) = 0;
  /// Cumulative program gauges reported with traced operations.
  virtual std::string Gauges() { return std::string(); }

  void set_oracle(std::map<std::string, uint64_t> oracle) {
    oracle_ = std::move(oracle);
  }
  void set_corrupt_op(long op) { corrupt_op_ = op; }

 protected:
  /// Oracle digest of query `q` over the base table.
  uint64_t Oracle(int q) const { return oracle_.at(OracleKey(q)); }

  /// Compares the digest of operation `op`'s result with `expected`.
  const char* Check(size_t op, uint64_t digest, uint64_t expected) const {
    if (static_cast<long>(op) == corrupt_op_) digest ^= 1;
    return digest == expected ? "ok" : "mismatch";
  }

  std::map<std::string, uint64_t> oracle_;
  long corrupt_op_ = -1;
};

std::vector<int> Mix(std::initializer_list<const char*> names) {
  std::vector<int> mix;
  for (const char* name : names) {
    mix.push_back(std::strcmp(name, "append") == 0 ? kAppend
                                                   : QueryIndex(name));
  }
  return mix;
}

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Moves the calling thread to the CPU of operation `op` (untimed). The
/// scheduler otherwise leaves a mostly sequential caller on one CPU for a
/// whole run, and on a shared host one CPU can run ~10% slower than the
/// others for tens of seconds, so runs would differ by where they landed.
/// Rotating by op and cycle gives every query kind every CPU. Only for a
/// caller that starts no threads of its own, which would inherit the pin.
void MoveToCpu(const std::vector<int>& cpus, size_t op, size_t mix_len) {
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[(op + op / mix_len) % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// cli_batch: the hwf_cli path, CSV text in to formatted text out.
class CliBatch : public Workload {
 public:
  CliBatch(const Args& args, const std::string& csv)
      : args_(args), csv_(csv),
        mix_(Mix({"cd100", "med1k", "leadlag", "shared2"})) {}

  const std::vector<int>& mix() const override { return mix_; }
  std::string ThreadsJson() const override {
    return "{\"cpu_threads\":" + std::to_string(args_.nproc) +
           ",\"caller\":1,\"pool_workers\":" +
           std::to_string(PoolWorkers(args_.nproc, 1)) + ",\"clients\":1}";
  }
  DigestForm form() const override { return DigestForm::kCli; }
  void Setup() override {
    pool_ = std::make_unique<ThreadPool>(PoolWorkers(args_.nproc, 1));
    OpTrace off(0, false);
    std::string out;
    OpOutcome outcome;
    if (!Execute(mix_[0], off, &out, &outcome)) Fatal("cli_batch warm-up");
  }
  void Teardown() override { pool_.reset(); }

  OpOutcome Run(size_t op, int client, OpTrace& trace) override {
    (void)client;
    const int q = mix_[op % mix_.size()];
    std::string out;
    OpOutcome outcome;
    outcome.rows = g_rows;
    // CSV parse and format run on this thread alone; the pool's workers
    // (started in Setup, unpinned) stay free to run anywhere.
    MoveToCpu(cpus_, op, mix_.size());
    if (!Execute(q, trace, &out, &outcome)) {
      outcome.status = "error";
      return outcome;
    }
    outcome.bytes = csv_.size() + out.size();
    outcome.status = Check(op, Digest(out), Oracle(q));
    return outcome;
  }

 private:
  /// One CLI invocation's work, recorded as an operation span with one
  /// child per public call; false on failure.
  bool Execute(int q, OpTrace& trace, std::string* out, OpOutcome* outcome) {
    const int64_t t0 = NowNs();
    outcome->t0 = t0;
    StatusOr<Table> table = ParseCsv(csv_);
    const int64_t t1 = NowNs();
    if (!table.ok()) return false;
    StatusOr<service::PlannedQuery> plan =
        service::PlanQuery(kQueries[q].sql, *table);
    const int64_t t2 = NowNs();
    if (!plan.ok()) return false;
    obs::ExecutionProfile profile;
    WindowExecutorOptions options;
    if (trace.on()) options.profile = &profile;
    auto result = EvaluatePlan(*table, *plan, options, *pool_);
    const int64_t t3 = NowNs();
    if (!result.ok()) return false;
    Table output = std::move(*table);
    for (auto& [name, column] : *result) {
      output.AddColumn(name, std::move(column));
    }
    const int64_t t4 = NowNs();
    *out = service::FormatTable(output, service::ResultFormat::kCsv);
    const int64_t t5 = NowNs();
    outcome->t1 = t5;
    if (trace.on()) {
      const uint64_t root = trace.Span("op", t0, t5, 0);
      trace.Span("csv.parse", t0, t1, root,
                 "\"bytes\":" + std::to_string(csv_.size()));
      trace.Span("plan", t1, t2, root);
      trace.Span("exec", t2, t3, root, ProfileArgs(profile));
      trace.Span("format", t4, t5, root,
                 "\"bytes\":" + std::to_string(out->size()));
    }
    return true;
  }

  const Args& args_;
  const std::string& csv_;
  std::vector<int> mix_;
  const std::vector<int> cpus_ = AllowedCpus();
  std::unique_ptr<ThreadPool> pool_;
};

/// Shared by the in-process service workloads: one QueryService call per
/// query, with the service's stage timings attached when traced. With a
/// compactor, the operation span records whether a compaction ran
/// during the query.
OpOutcome ServiceQuery(service::QueryService& svc, int q, OpTrace& trace,
                       size_t rows, Table* result_table,
                       ingest::Compactor* compactor = nullptr) {
  OpOutcome outcome;
  outcome.rows = rows;
  ingest::Compactor::Stats before;
  if (compactor != nullptr) before = compactor->stats();
  const int64_t t0 = NowNs();
  StatusOr<service::QueryResult> result = svc.Query(kQueries[q].sql);
  const int64_t t1 = NowNs();
  outcome.t0 = t0;
  outcome.t1 = t1;
  if (!result.ok()) {
    std::fprintf(stderr, "query %s: %s\n", kQueries[q].name,
                 result.status().ToString().c_str());
    outcome.status = "error";
    return outcome;
  }
  if (trace.on()) {
    std::string args;
    if (compactor != nullptr) {
      const ingest::Compactor::Stats after = compactor->stats();
      const bool during =
          before.scheduled > before.completed + before.failed ||
          after.completed + after.failed != before.completed + before.failed;
      args = std::string("\"during_compaction\":") + (during ? "1" : "0");
    }
    trace.set_query_id(result->query_id);
    const uint64_t root = trace.Span("op", t0, t1, 0, args);
    ServiceSpans(trace, root, t0, svc, result->query_id);
  }
  *result_table = std::move(result->table);
  return outcome;
}

/// query_cold: SQL through an in-process QueryService whose tree cache is
/// too small to keep any query's artifacts, so every query builds.
class QueryCold : public Workload {
 public:
  QueryCold(const Args& args, const Table& base)
      : args_(args), base_(base),
        mix_(Mix({"cd100", "med1k", "rank500", "drank100", "leadlag",
                  "sum10k", "nonmono", "shared2"})) {}

  const std::vector<int>& mix() const override { return mix_; }
  std::string ThreadsJson() const override {
    return "{\"cpu_threads\":" + std::to_string(args_.nproc) +
           ",\"sessions\":1,\"pool_workers\":" +
           std::to_string(PoolWorkers(args_.nproc, 1)) +
           ",\"clients\":1,\"cache_bytes\":" + std::to_string(kCacheBytes) +
           "}";
  }
  void Setup() override {
    pool_ = std::make_unique<ThreadPool>(PoolWorkers(args_.nproc, 1));
    service::ServiceOptions options;
    options.num_sessions = 1;
    options.pool = pool_.get();
    options.cache_capacity_bytes = kCacheBytes;
    svc_ = std::make_unique<service::QueryService>(options);
    svc_->RegisterTable("t", base_);
    if (!svc_->Query(kQueries[mix_[0]].sql).ok()) Fatal("query_cold warm-up");
  }
  void Teardown() override {
    svc_.reset();
    pool_.reset();
  }
  OpOutcome Run(size_t op, int client, OpTrace& trace) override {
    (void)client;
    const int q = mix_[op % mix_.size()];
    Table table;
    OpOutcome outcome = ServiceQuery(*svc_, q, trace, g_rows, &table);
    if (std::strcmp(outcome.status, "ok") == 0) {
      outcome.status =
          Check(op, ValueDigest(ColumnsOf(table)), Oracle(q));
    }
    return outcome;
  }
  std::string Gauges() override {
    return "\"cache_bytes\":" + std::to_string(svc_->cache().stats().bytes);
  }

 private:
  static constexpr size_t kCacheBytes = 256 << 10;
  const Args& args_;
  const Table& base_;
  std::vector<int> mix_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<service::QueryService> svc_;
};

/// serve_warm: the hwf_serve front door over loopback with two clients and
/// a skewed mix whose artifacts all fit in the default tree cache.
class ServeWarm : public Workload {
 public:
  ServeWarm(const Args& args, const Table& base)
      : args_(args), base_(base),
        mix_(Mix({"cd100", "med1k", "cd100", "nonmono", "cd100", "med1k",
                  "rank500", "cd100", "nonmono", "shared2"})) {}

  const std::vector<int>& mix() const override { return mix_; }
  int clients() const override { return kClients; }
  DigestForm form() const override { return DigestForm::kText; }
  std::string ThreadsJson() const override {
    return "{\"cpu_threads\":" + std::to_string(args_.nproc) +
           ",\"clients\":2,\"sessions\":2,\"pool_workers\":" +
           std::to_string(PoolWorkers(args_.nproc, kClients)) +
           ",\"cache_bytes\":" +
           std::to_string(service::ServiceOptions{}.cache_capacity_bytes) +
           "}";
  }
  void Setup() override {
    pool_ = std::make_unique<ThreadPool>(PoolWorkers(args_.nproc, kClients));
    service::ServiceOptions options;
    options.num_sessions = kClients;
    options.pool = pool_.get();
    svc_ = std::make_unique<service::QueryService>(options);
    svc_->RegisterTable("t", base_);
    server_ = std::make_unique<service::TcpServer>([this](int fd) {
      service::ServeServiceConnection(fd, svc_.get(), &registry_);
    });
    StatusOr<int> port = server_->Listen(0);
    if (!port.ok()) Fatal("listen: " + port.status().ToString());
    server_->Start();
    for (int c = 0; c < kClients; ++c) {
      dist::WireClientOptions client_options;
      client_options.port = *port;
      clients_[c] = std::make_unique<dist::WireClient>(client_options);
      if (!clients_[c]->Connect().ok()) Fatal("connect");
    }
    for (const int q : mix_) {
      std::string payload;
      if (!clients_[0]->Exchange(std::string("QUERY ") + kQueries[q].sql,
                                 &payload)
               .ok()) {
        Fatal("serve_warm warm-up");
      }
    }
  }
  void Teardown() override {
    for (auto& client : clients_) client.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    svc_.reset();
    pool_.reset();
  }
  OpOutcome Run(size_t op, int client, OpTrace& trace) override {
    const int q = mix_[op % mix_.size()];
    const std::string command = std::string("QUERY ") + kQueries[q].sql;
    std::string payload;
    std::string extra;
    OpOutcome outcome;
    outcome.rows = g_rows;
    const int64_t t0 = NowNs();
    Status status = clients_[client]->Exchange(command, &payload, &extra);
    const int64_t t1 = NowNs();
    outcome.t0 = t0;
    outcome.t1 = t1;
    if (!status.ok()) {
      std::fprintf(stderr, "wire query: %s\n", status.ToString().c_str());
      outcome.status = "error";
      return outcome;
    }
    outcome.bytes = command.size() + payload.size();
    outcome.status = Check(op, Digest(payload), Oracle(q));
    if (trace.on()) {
      const size_t at = extra.find("id=");
      const uint64_t id =
          at == std::string::npos
              ? 0
              : std::strtoull(extra.c_str() + at + 3, nullptr, 10);
      trace.set_query_id(id);
      const uint64_t root = trace.Span("op", t0, t1, 0);
      const uint64_t request =
          trace.Span("wire.request", t0, t1, root,
                     "\"bytes\":" + std::to_string(outcome.bytes));
      StatusOr<std::string> retained = svc_->RetainedProfileJson(id);
      if (retained.ok()) {
        const int64_t total_end =
            t0 + static_cast<int64_t>(JsonField(*retained, "total_seconds") *
                                      1e9);
        const uint64_t server =
            trace.Span("service.total", t0, total_end, request);
        ServiceSpans(trace, server, t0, *svc_, id);
      }
    }
    return outcome;
  }
  std::string Gauges() override {
    return "\"cache_bytes\":" + std::to_string(svc_->cache().stats().bytes);
  }

 private:
  static constexpr int kClients = 2;
  const Args& args_;
  const Table& base_;
  std::vector<int> mix_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<service::QueryService> svc_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<service::TcpServer> server_;
  std::unique_ptr<dist::WireClient> clients_[kClients];
};

/// The base table with the APPEND batches of ops `applied` after it, in
/// order: the rows an ingest state holds.
Table WithBatches(const Table& base, uint64_t seed,
                  const std::vector<size_t>& applied) {
  std::vector<Table> batches;
  for (const size_t op : applied) batches.push_back(MakeAppendBatch(seed, op));
  Table grown;
  for (size_t c = 0; c < base.num_columns(); ++c) {
    Column column = base.column(c);
    for (const Table& batch : batches) {
      const Column& extra = batch.column(c);
      for (size_t r = 0; r < extra.size(); ++r) {
        column.AppendValue(extra.GetValue(r));
      }
    }
    grown.AddColumn(base.column_name(c), std::move(column));
  }
  return grown;
}

/// ingest_mixed: one caller alternating APPEND batches of 1% of the table
/// with reads, background compaction on. Reads are checked against a naive
/// recompute over the concatenated rows the service has acknowledged.
class IngestMixed : public Workload {
 public:
  IngestMixed(const Args& args, const Table& base)
      : args_(args), base_(base), mix_(Mix({"append", "cd10", "drank20"})) {}

  const std::vector<int>& mix() const override { return mix_; }
  std::string ThreadsJson() const override {
    return "{\"cpu_threads\":" + std::to_string(args_.nproc) +
           ",\"sessions\":1,\"pool_workers\":" +
           std::to_string(PoolWorkers(args_.nproc, 1)) +
           ",\"clients\":1,\"compactor\":\"pool task\",\"append_rows\":" +
           std::to_string(g_append_rows) + "}";
  }
  /// The state each read sees is a pure function of the seed and the
  /// APPEND ops applied before it, so every read's digest is computed
  /// here, assuming every remaining APPEND succeeds; no oracle work runs
  /// between timed operations unless one fails.
  void ExpectStates(std::map<std::string, uint64_t>* oracle,
                    ThreadPool& pool) override {
    std::vector<size_t> applied = args_.replay;
    const size_t start = args_.resume.empty() ? 0 : args_.resume[0];
    for (size_t op = start; op < args_.cycles * mix_.size(); ++op) {
      const int q = mix_[op % mix_.size()];
      if (q == kAppend) {
        applied.push_back(op);
      } else if (!applied.empty() &&
                 oracle->count(OracleKey(q, applied)) == 0) {
        (*oracle)[OracleKey(q, applied)] = StateDigest(q, applied, pool);
      }
    }
    rows_ = Table();  // the last state's rows are not needed in the run
    rows_ops_.clear();
  }
  void Setup() override {
    pool_ = std::make_unique<ThreadPool>(PoolWorkers(args_.nproc, 1));
    service::ServiceOptions options;
    options.num_sessions = 1;
    options.pool = pool_.get();
    svc_ = std::make_unique<service::QueryService>(options);
    svc_->RegisterTable("t", base_);
    applied_.clear();
    for (const int q : mix_) {
      if (q != kAppend && !svc_->Query(kQueries[q].sql).ok()) {
        Fatal("ingest_mixed warm-up");
      }
    }
  }
  void Teardown() override {
    svc_.reset();
    pool_.reset();
  }
  void Replay(const std::vector<size_t>& acked) override {
    for (const size_t op : acked) {
      if (!svc_->AppendRows("t", MakeAppendBatch(args_.seed, op)).ok()) {
        Fatal("replay append");
      }
      applied_.push_back(op);
    }
  }
  OpOutcome Run(size_t op, int client, OpTrace& trace) override {
    (void)client;
    const int q = mix_[op % mix_.size()];
    OpOutcome outcome;
    if (q == kAppend) {
      Table batch = MakeAppendBatch(args_.seed, op);
      outcome.rows = g_append_rows;
      const int64_t t0 = NowNs();
      auto meta = svc_->AppendRows("t", batch);
      const int64_t t1 = NowNs();
      outcome.t0 = t0;
      outcome.t1 = t1;
      if (!meta.ok()) {
        outcome.status = "error";
        return outcome;
      }
      applied_.push_back(op);
      const uint64_t root = trace.Span("op", t0, t1, 0);
      trace.Span("ingest.append", t0, t1, root,
                 "\"rows\":" + std::to_string(g_append_rows));
      return outcome;
    }
    Table table;
    outcome = ServiceQuery(*svc_, q, trace,
                           g_rows + applied_.size() * g_append_rows, &table,
                           &svc_->compactor());
    if (std::strcmp(outcome.status, "ok") != 0) return outcome;
    outcome.status = Check(op, ValueDigest(ColumnsOf(table)), Expected(q));
    return outcome;
  }
  std::string Gauges() override {
    const auto stats = svc_->compactor().stats();
    return "\"cache_bytes\":" + std::to_string(svc_->cache().stats().bytes) +
           ",\"compaction_seconds\":" + JsonNum(stats.total_seconds) +
           ",\"compactions\":" + std::to_string(stats.completed);
  }

 private:
  /// Oracle digest of query `q` over the rows acknowledged so far. A state
  /// ExpectStates did not foresee follows a failed APPEND only; it is
  /// recomputed here.
  uint64_t Expected(int q) {
    const std::string key = OracleKey(q, applied_);
    auto it = oracle_.find(key);
    if (it != oracle_.end()) return it->second;
    const uint64_t digest = StateDigest(q, applied_, *pool_);
    oracle_[key] = digest;
    return digest;
  }

  /// Naive digest of query `q` over the base plus batches `applied`,
  /// reported as an O line so run.py caches it for a restarted child.
  uint64_t StateDigest(int q, const std::vector<size_t>& applied,
                       ThreadPool& pool) {
    if (applied != rows_ops_) {
      rows_ = WithBatches(base_, args_.seed, applied);
      rows_ops_ = applied;
    }
    const uint64_t digest =
        ValueDigest(ColumnsOf(NaiveResult(rows_, q, pool)));
    g_out.Line("O " + OracleKey(q, applied) + " " + Hex(digest));
    return digest;
  }

  const Args& args_;
  const Table& base_;
  std::vector<int> mix_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<service::QueryService> svc_;
  std::vector<size_t> applied_;  // APPEND ops the service acknowledged
  Table rows_;                   // rows of state rows_ops_ (oracle only)
  std::vector<size_t> rows_ops_;
};

/// shard_scatter: a dist::Coordinator over two in-process loopback
/// workers with small pools; one query in five falls back to the
/// full-copy worker.
class ShardScatter : public Workload {
 public:
  ShardScatter(const Args& args, const Table& base)
      : args_(args), base_(base),
        mix_(Mix({"cd100", "med1k", "rank500", "nonmono", "fallback"})) {}

  const std::vector<int>& mix() const override { return mix_; }
  std::string ThreadsJson() const override {
    return "{\"cpu_threads\":" + std::to_string(args_.nproc) +
           ",\"clients\":1,\"shard_workers\":2,\"sessions_per_worker\":1,"
           "\"pool_workers_per_worker\":" +
           std::to_string(WorkerPool()) + "}";
  }
  void Setup() override {
    std::vector<std::string> endpoints;
    for (int w = 0; w < kWorkers; ++w) {
      auto worker = std::make_unique<Worker>();
      worker->pool = std::make_unique<ThreadPool>(WorkerPool());
      service::ServiceOptions options;
      options.num_sessions = 1;
      options.pool = worker->pool.get();
      worker->svc = std::make_unique<service::QueryService>(options);
      Worker* raw = worker.get();
      worker->server = std::make_unique<service::TcpServer>([raw](int fd) {
        service::ServeServiceConnection(fd, raw->svc.get(), &raw->registry);
      });
      StatusOr<int> port = worker->server->Listen(0);
      if (!port.ok()) Fatal("listen: " + port.status().ToString());
      worker->server->Start();
      endpoints.push_back("127.0.0.1:" + std::to_string(*port));
      workers_.push_back(std::move(worker));
    }
    dist::CoordinatorOptions options;
    options.workers = endpoints;
    coordinator_ = std::make_unique<dist::Coordinator>(options);
    if (!coordinator_->RegisterTable("t", base_, {"grp"}).ok()) {
      Fatal("shard registration");
    }
    for (const int q : mix_) {
      if (!coordinator_->Query(kQueries[q].sql).ok()) {
        Fatal("shard_scatter warm-up");
      }
    }
    for (auto& worker : workers_) worker->last_id = LastRetainedId(*worker);
  }
  void Teardown() override {
    coordinator_.reset();
    for (auto& worker : workers_) worker->server->Stop();
    workers_.clear();
  }
  OpOutcome Run(size_t op, int client, OpTrace& trace) override {
    (void)client;
    const int q = mix_[op % mix_.size()];
    OpOutcome outcome;
    outcome.rows = g_rows;
    const int64_t t0 = NowNs();
    auto result = coordinator_->Query(kQueries[q].sql);
    const int64_t t1 = NowNs();
    outcome.t0 = t0;
    outcome.t1 = t1;
    // The sub-queries this operation sent, collected on every operation,
    // traced or not, so that a traced one never claims an earlier one's.
    std::vector<std::pair<size_t, double>> subqueries;  // worker, seconds
    for (size_t w = 0; w < workers_.size(); ++w) {
      Worker& worker = *workers_[w];
      for (;;) {
        auto retained = worker.svc->RetainedProfileJson(worker.last_id + 1);
        if (!retained.ok()) break;
        ++worker.last_id;
        subqueries.emplace_back(w, JsonField(*retained, "total_seconds"));
      }
    }
    if (!result.ok()) {
      std::fprintf(stderr, "coordinator query: %s\n",
                   result.status().ToString().c_str());
      outcome.status = "error";
      return outcome;
    }
    outcome.status =
        Check(op, ValueDigest(ColumnsOf(result->table)), Oracle(q));
    if (trace.on()) {
      trace.set_query_id(result->query_id);
      const uint64_t root = trace.Span("op", t0, t1, 0);
      const uint64_t query = trace.Span(
          "dist.query", t0, t1, root,
          "\"regime\":\"" + result->regime + "\"");
      for (const auto& [w, seconds] : subqueries) {
        trace.Span("dist.subquery", t0,
                   t0 + static_cast<int64_t>(seconds * 1e9), query,
                   "\"worker\":" + std::to_string(w));
      }
    }
    return outcome;
  }
  std::string Gauges() override {
    const auto stats = coordinator_->stats();
    return "\"dist_retries\":" + std::to_string(stats.retries) +
           ",\"dist_scatter\":" + std::to_string(stats.scatter_queries) +
           ",\"dist_fallback\":" + std::to_string(stats.fallback_queries);
  }

 private:
  static constexpr int kWorkers = 2;
  struct Worker {
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<service::QueryService> svc;
    obs::MetricsRegistry registry;
    std::unique_ptr<service::TcpServer> server;
    uint64_t last_id = 0;
  };
  /// Each worker's session plus pool workers get nproc / 2 threads.
  int WorkerPool() const { return PoolWorkers(args_.nproc / kWorkers, 1); }
  static uint64_t LastRetainedId(const Worker& worker) {
    uint64_t id = 0;
    while (worker.svc->RetainedProfileJson(id + 1).ok()) ++id;
    return id;
  }

  const Args& args_;
  const Table& base_;
  std::vector<int> mix_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<dist::Coordinator> coordinator_;
};

// ---------------------------------------------------------------------------
// Driver.

std::vector<size_t> ParseList(const char* text) {
  std::vector<size_t> out;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    out.push_back(std::strtoull(p, &end, 10));
    if (end == p) break;
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--cycles") {
      args.cycles = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--timed-setup") {
      args.timed_setup = std::atoi(value) != 0;
    } else if (flag == "--nproc") {
      args.nproc = std::max(1, std::atoi(value));
    } else if (flag == "--resume") {
      args.resume = ParseList(value);
    } else if (flag == "--replay") {
      args.replay = ParseList(value);
    } else if (flag == "--oracle") {
      // key:hex,key:hex
      std::string text = value;
      size_t start = 0;
      while (start < text.size()) {
        size_t end = text.find(',', start);
        if (end == std::string::npos) end = text.size();
        const std::string item = text.substr(start, end - start);
        const size_t colon = item.find(':');
        if (colon != std::string::npos) {
          args.oracle[item.substr(0, colon)] = item.substr(colon + 1);
        }
        start = end + 1;
      }
    } else if (flag == "--rows") {
      args.rows = std::max<size_t>(100, std::strtoull(value, nullptr, 10));
    } else if (flag == "--kill-at-op") {
      args.kill_at_op = std::atol(value);
    } else if (flag == "--corrupt-op") {
      args.corrupt_op = std::atol(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return args;
}

constexpr obs::Counter kTracedCounters[] = {
    obs::Counter::kPoolTasksSubmitted,
    obs::Counter::kPoolTasksRunByCaller,
    obs::Counter::kPoolIdleWakeups,
    obs::Counter::kSortComparisons,
    obs::Counter::kSortOvcResolved,
    obs::Counter::kMstLevelsBuilt,
    obs::Counter::kMstLevelBytesAllocated,
    obs::Counter::kMstCascadeLookups,
    obs::Counter::kMstBinarySearchFallbacks,
    obs::Counter::kMstProbeBatchQueries,
    obs::Counter::kExecutorSortsShared,
    obs::Counter::kCacheHits,
    obs::Counter::kCacheMisses,
    obs::Counter::kCacheEvictions,
    obs::Counter::kIngestDeltaMerges,
    obs::Counter::kIngestMergedCursorBuilds,
    obs::Counter::kIngestCompactions,
};

std::string CountersJson(Workload& workload) {
  std::string json = "{\"counters\":{";
  bool first = true;
  for (const obs::Counter counter : kTracedCounters) {
    if (!first) json += ",";
    first = false;
    json += std::string("\"") + obs::CounterName(counter) +
            "\":" + std::to_string(obs::Value(counter));
  }
  json += "},\"gauges\":{" + workload.Gauges() + "}}";
  return json;
}

void RunClient(Workload& workload, const Args& args, int client,
               size_t start) {
  const size_t ops = args.cycles * workload.mix().size();
  const size_t stride = static_cast<size_t>(workload.clients());
  for (size_t op = start; op < ops; op += stride) {
    const int q = workload.mix()[op % workload.mix().size()];
    const bool traced = args.trace && (op / workload.mix().size()) % 2 == 1;
    g_out.Line("B " + std::to_string(op));
    if (static_cast<long>(op) == args.kill_at_op) raise(SIGKILL);
    OpTrace trace(op, traced);
    const OpOutcome outcome = workload.Run(op, client, trace);
    std::string line = "E " + std::to_string(op) + " " +
                       std::to_string(client) + " " +
                       (q == kAppend ? "append" : kQueries[q].name) + " " +
                       std::to_string(outcome.t0) + " " +
                       std::to_string(outcome.t1) + " " +
                       outcome.status + " " + std::to_string(outcome.rows) +
                       " " + std::to_string(outcome.bytes) + " " +
                       (traced ? "1" : "0");
    if (args.trace) line += " " + CountersJson(workload);
    g_out.Line(line);
  }
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  const Args args = ParseArgs(argc, argv);
  g_rows = args.rows;
  g_append_rows = args.rows / 100;

  const Table base = MakeRows(args.seed, g_rows, 0, 0, kTsSpan);
  std::string csv;
  std::unique_ptr<Workload> workload;
  if (args.workload == "cli_batch") {
    csv = RenderCsv(ColumnsOf(base));
    workload = std::make_unique<CliBatch>(args, csv);
  } else if (args.workload == "query_cold") {
    workload = std::make_unique<QueryCold>(args, base);
  } else if (args.workload == "serve_warm") {
    workload = std::make_unique<ServeWarm>(args, base);
  } else if (args.workload == "ingest_mixed") {
    workload = std::make_unique<IngestMixed>(args, base);
  } else if (args.workload == "shard_scatter") {
    workload = std::make_unique<ShardScatter>(args, base);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::string mix;
  for (const int q : workload->mix()) {
    mix += std::string(mix.empty() ? "\"" : ",\"") +
           (q == kAppend ? "append" : kQueries[q].name) + "\"";
  }
  g_out.Line("I {\"threads\":" + workload->ThreadsJson() +
             ",\"clients\":" + std::to_string(workload->clients()) +
             ",\"mix\":[" + mix + "],\"table_rows\":" +
             std::to_string(g_rows) + "}");

  // Oracle digests of every distinct query and state read (untimed).
  std::map<std::string, uint64_t> oracle;
  for (const auto& [key, hex] : args.oracle) {
    oracle[key] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  {
    ThreadPool oracle_pool(PoolWorkers(args.nproc, 1));
    for (const int q : workload->mix()) {
      const std::string key = OracleKey(q);
      if (q == kAppend || oracle.count(key) != 0) continue;
      const auto result = NaiveResult(base, q, oracle_pool);
      const std::array<uint64_t, 3> digests =
          OracleDigests(base, ColumnsOf(result));
      oracle[key] = digests[static_cast<size_t>(workload->form())];
      g_out.Line("O " + key + " " + Hex(digests[0]) + " " + Hex(digests[1]) +
                 " " + Hex(digests[2]));
    }
    workload->ExpectStates(&oracle, oracle_pool);
  }
  workload->set_oracle(oracle);
  workload->set_corrupt_op(args.corrupt_op);

  // Set-up: repeated and timed until one segment has reported it, once
  // and untimed after a restart (plus replay of the acknowledged APPEND
  // batches).
  const int reps = args.timed_setup ? kSetupReps : 1;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) workload->Teardown();
    const int64_t t0 = NowNs();
    workload->Setup();
    const int64_t t1 = NowNs();
    if (args.timed_setup) {
      g_out.Line("S " + JsonNum(static_cast<double>(t1 - t0) * 1e-9));
    }
  }
  workload->Replay(args.replay);
  if (args.trace) g_out.Line("K " + CountersJson(*workload));

  std::vector<std::thread> threads;
  for (int c = 0; c < workload->clients(); ++c) {
    const size_t start =
        static_cast<size_t>(c) < args.resume.size() ? args.resume[c] : c;
    threads.emplace_back(
        [&workload, &args, c, start] { RunClient(*workload, args, c, start); });
  }
  for (std::thread& thread : threads) thread.join();
  workload->Teardown();
  g_out.Line("D");
  return 0;
}
