#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <unordered_set>
#include <utility>

#include "obs/counters.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwf {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t SecondsToMicros(double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<uint64_t>(seconds * 1e6);
}

void AppendDouble(std::string* out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  out->append(buf);
}

}  // namespace

const char* QueryStageName(QueryStage stage) {
  switch (stage) {
    case QueryStage::kQueueWait:
      return "queue_wait";
    case QueryStage::kParsePlan:
      return "parse_plan";
    case QueryStage::kSort:
      return "sort";
    case QueryStage::kTreeBuild:
      return "build";
    case QueryStage::kProbe:
      return "probe";
    case QueryStage::kTotal:
      return "total";
    case QueryStage::kNumStages:
      break;
  }
  return "unknown";
}

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kCancelled:
      return "cancelled";
    case QueryOutcome::kDeadline:
      return "deadline";
    case QueryOutcome::kError:
      return "error";
    case QueryOutcome::kRejected:
      return "rejected";
    case QueryOutcome::kNumOutcomes:
      break;
  }
  return "unknown";
}

/// Everything the service tracks about one query. The result slot is
/// guarded by `mutex`; the StopSource is wait-free and shared with the
/// executing session via the ambient-token mechanism.
struct QueryService::QueryState {
  uint64_t id = 0;
  std::string sql;
  QueryOptions options;
  StopSource stop;
  /// Admission reservation; held from Submit until the query finishes
  /// (success, error or cancellation), then released before the waiter
  /// is woken so "done" implies "budget returned".
  mem::MemoryReservation reservation;

  /// Lifecycle timestamps: admission (set in Submit) and the moment a
  /// session dequeued the query. total = finish - admit; the difference of
  /// the two timestamps is the queue wait, which is SUBTRACTED from total
  /// to get execution time — a query that waited is not "slow to execute".
  Clock::time_point admit_time;
  Clock::time_point dequeue_time;
  bool dequeued = false;

  /// Wall seconds spent in parse + bind (filled by ExecuteQuery).
  double parse_plan_seconds = 0;
  size_t plan_groups = 0;

  /// Process-counter baseline, rebased at dequeue: the delta at finish is
  /// this query's counter activity (approximate under concurrency — other
  /// executing queries' activity lands in the same window).
  obs::CounterDeltaTracker counters;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Status status;
  QueryResult result;
};

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      cache_(options.enable_cache ? options.cache_capacity_bytes : 0),
      admission_budget_(options.memory_limit_bytes),
      pool_(options.pool != nullptr ? *options.pool : ThreadPool::Default()) {
  if (options_.num_sessions == 0) options_.num_sessions = 1;
  if (options_.enable_telemetry) {
    telemetry_ = std::make_unique<ServiceTelemetry>();
  }
  if (!options_.slow_query_log_path.empty()) {
    Status opened = slow_log_.Open(options_.slow_query_log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "warning: %s\n", opened.ToString().c_str());
    }
  }
  ingest::CompactorOptions compactor_options = options_.compactor;
  if (compactor_options.budget == nullptr && admission_budget_.limited()) {
    compactor_options.budget = &admission_budget_;
  }
  compactor_ = std::make_unique<ingest::Compactor>(&catalog_, &pool_,
                                                   compactor_options);
  sessions_.reserve(options_.num_sessions);
  for (size_t i = 0; i < options_.num_sessions; ++i) {
    sessions_.emplace_back([this] { SessionLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

uint64_t QueryService::RegisterTable(const std::string& name, Table table) {
  const uint64_t epoch = catalog_.RegisterTable(name, std::move(table));
  GarbageCollectDeadEpochs();
  ExportTableGauges(name);
  return epoch;
}

StatusOr<uint64_t> QueryService::RegisterTable(const std::string& name,
                                               Table table,
                                               const std::string& key_column) {
  StatusOr<uint64_t> epoch =
      catalog_.RegisterTable(name, std::move(table), key_column);
  if (!epoch.ok()) return epoch;
  GarbageCollectDeadEpochs();
  ExportTableGauges(name);
  return epoch;
}

StatusOr<Catalog::TableMeta> QueryService::AppendRows(const std::string& name,
                                                      const Table& rows) {
  const Clock::time_point start = Clock::now();
  StatusOr<Catalog::TableMeta> meta = catalog_.AppendRows(name, rows);
  if (!meta.ok()) return meta;
  obs::Add(obs::Counter::kIngestRowsAppended, rows.num_rows());
  obs::Add(obs::Counter::kIngestBatches);
  if (telemetry_ != nullptr) {
    telemetry_->ingest_batches.Record(
        SecondsToMicros(SecondsBetween(start, Clock::now())));
  }
  if (options_.auto_compact) compactor_->MaybeScheduleCompaction(name);
  return meta;
}

StatusOr<Catalog::TableMeta> QueryService::UpsertRows(const std::string& name,
                                                      const Table& rows) {
  const Clock::time_point start = Clock::now();
  StatusOr<Catalog::TableMeta> meta = catalog_.UpsertRows(name, rows);
  if (!meta.ok()) return meta;
  obs::Add(obs::Counter::kIngestRowsUpserted, rows.num_rows());
  obs::Add(obs::Counter::kIngestBatches);
  if (telemetry_ != nullptr) {
    telemetry_->ingest_batches.Record(
        SecondsToMicros(SecondsBetween(start, Clock::now())));
  }
  if (options_.auto_compact) compactor_->MaybeScheduleCompaction(name);
  return meta;
}

StatusOr<Catalog::TableMeta> QueryService::CompactTable(
    const std::string& name) {
  const Clock::time_point start = Clock::now();
  StatusOr<Catalog::TableMeta> meta = compactor_->CompactNow(name);
  if (telemetry_ != nullptr && meta.ok()) {
    telemetry_->compactions.Record(
        SecondsToMicros(SecondsBetween(start, Clock::now())));
  }
  return meta;
}

void QueryService::GarbageCollectDeadEpochs() {
  const std::vector<uint64_t> live = catalog_.LiveEpochs();
  const std::unordered_set<uint64_t> live_set(live.begin(), live.end());
  // Every cache key this service writes starts with "t<epoch>." — keys
  // that do not parse are foreign and left alone.
  const size_t dropped = cache_.EvictIf([&](const std::string& key) {
    if (key.empty() || key[0] != 't') return false;
    uint64_t epoch = 0;
    size_t i = 1;
    while (i < key.size() && key[i] >= '0' && key[i] <= '9') {
      epoch = epoch * 10 + static_cast<uint64_t>(key[i] - '0');
      ++i;
    }
    if (i == 1) return false;
    return live_set.find(epoch) == live_set.end();
  });
  cache_gc_dropped_.fetch_add(dropped, std::memory_order_relaxed);
}

void QueryService::ExportTableGauges(const std::string& name) {
  // Record the table under mutex_, but register its gauges after releasing
  // it: a scrape holds the registry's mutex while its gauge callbacks take
  // mutex_ (through stats()), so calling AddGauge under mutex_ would invert
  // that lock order.
  obs::MetricsRegistry* registry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (registry_ == nullptr) return;
    if (std::find(gauge_tables_.begin(), gauge_tables_.end(), name) !=
        gauge_tables_.end()) {
      return;
    }
    gauge_tables_.push_back(name);
    registry = registry_;
  }
  auto table_gauge = [&](const char* metric, const char* help, auto getter) {
    registry->AddGauge(metric, help, {{"table", name}},
                        [this, name, getter]() -> double {
                          StatusOr<Catalog::TableMeta> meta =
                              catalog_.PeekMeta(name);
                          if (!meta.ok()) return 0.0;
                          return static_cast<double>(getter(*meta));
                        });
  };
  table_gauge("hwf_catalog_epoch", "table registration epoch",
              [](const Catalog::TableMeta& m) { return m.epoch; });
  table_gauge("hwf_table_minor_version",
              "mutations applied within the table's current epoch",
              [](const Catalog::TableMeta& m) { return m.minor; });
  table_gauge("hwf_table_delta_rows",
              "rows buffered in the table's un-compacted delta",
              [](const Catalog::TableMeta& m) { return m.delta_rows; });
}

StatusOr<uint64_t> QueryService::Submit(std::string sql,
                                        QueryOptions options) {
  auto state = std::make_shared<QueryState>();
  state->sql = std::move(sql);
  state->options = options;
  state->admit_time = Clock::now();

  const double timeout = options.timeout_seconds < 0
                             ? options_.default_timeout_seconds
                             : options.timeout_seconds;
  if (timeout > 0) {
    state->stop.SetDeadline(
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout)));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return Status::InvalidArgument("service is shut down");
    }
    if (queue_.size() >= options_.max_queued) {
      ++rejected_;
      ++rejected_queue_full_;
      obs::Add(obs::Counter::kServiceQueriesRejected);
      obs::Add(obs::Counter::kServiceRejectedQueueFull);
      if (telemetry_ != nullptr) {
        constexpr size_t kRejected =
            static_cast<size_t>(QueryOutcome::kRejected);
        telemetry_->outcomes[kRejected].Record(0);
        telemetry_->outcome_counts[kRejected].fetch_add(
            1, std::memory_order_relaxed);
      }
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) +
          " queries queued)");
    }
    if (admission_budget_.limited()) {
      Status reserve = state->reservation.Reserve(
          &admission_budget_, options_.per_query_reservation_bytes);
      if (!reserve.ok()) {
        ++rejected_;
        ++rejected_memory_;
        obs::Add(obs::Counter::kServiceQueriesRejected);
        obs::Add(obs::Counter::kServiceRejectedMemory);
        if (telemetry_ != nullptr) {
          constexpr size_t kRejected =
              static_cast<size_t>(QueryOutcome::kRejected);
          telemetry_->outcomes[kRejected].Record(0);
          telemetry_->outcome_counts[kRejected].fetch_add(
              1, std::memory_order_relaxed);
        }
        return Status::ResourceExhausted(
            "admission memory budget exhausted: " + reserve.message());
      }
    }
    state->id = next_id_++;
    queries_[state->id] = state;
    queue_.push_back(state);
    peak_queued_ = std::max(peak_queued_, queue_.size());
    ++admitted_;
    obs::Add(obs::Counter::kServiceQueriesAdmitted);
  }
  queue_cv_.notify_one();
  return state->id;
}

Status QueryService::Cancel(uint64_t query_id) {
  std::shared_ptr<QueryState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) {
      return Status::InvalidArgument("unknown query id " +
                                     std::to_string(query_id));
    }
    state = it->second;
  }
  state->stop.RequestStop();
  return Status::OK();
}

StatusOr<QueryResult> QueryService::Wait(uint64_t query_id) {
  std::shared_ptr<QueryState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) {
      return Status::InvalidArgument("unknown query id " +
                                     std::to_string(query_id));
    }
    state = it->second;
    queries_.erase(it);
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] { return state->done; });
  if (!state->status.ok()) return state->status;
  return std::move(state->result);
}

StatusOr<QueryResult> QueryService::Query(std::string sql,
                                          QueryOptions options) {
  StatusOr<uint64_t> id = Submit(std::move(sql), options);
  if (!id.ok()) return id.status();
  return Wait(*id);
}

QueryService::Stats QueryService::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.queued = queue_.size();
    stats.peak_queued = peak_queued_;
    stats.executing = executing_;
    stats.admitted = admitted_;
    stats.rejected = rejected_;
    stats.rejected_queue_full = rejected_queue_full_;
    stats.rejected_memory = rejected_memory_;
    stats.cancelled = cancelled_;
    stats.completed = completed_;
    stats.slow_queries = slow_queries_;
  }
  stats.reserved_bytes = admission_budget_.reserved_bytes();
  stats.cache = cache_.stats();
  if (compactor_ != nullptr) stats.compaction = compactor_->stats();
  stats.cache_gc_dropped = cache_gc_dropped_.load(std::memory_order_relaxed);
  return stats;
}

std::string QueryService::StatsJson() const {
  const Stats s = stats();
  std::string out = "{";
  auto field = [&out](const char* name, uint64_t value, bool comma = true) {
    out += std::string("\"") + name + "\":" + std::to_string(value);
    if (comma) out += ",";
  };
  field("queued", s.queued);
  field("peak_queued", s.peak_queued);
  field("executing", s.executing);
  field("admitted", s.admitted);
  field("rejected", s.rejected);
  field("rejected_queue_full", s.rejected_queue_full);
  field("rejected_memory", s.rejected_memory);
  field("cancelled", s.cancelled);
  field("completed", s.completed);
  field("slow_queries", s.slow_queries);
  field("reserved_bytes", s.reserved_bytes);
  out += "\"cache\":{";
  field("hits", s.cache.hits);
  field("misses", s.cache.misses);
  field("evictions", s.cache.evictions);
  field("entries", s.cache.entries);
  field("bytes", s.cache.bytes);
  field("capacity_bytes", s.cache.capacity_bytes, /*comma=*/false);
  out += "},\"ingest\":{";
  field("compactions_scheduled", s.compaction.scheduled);
  field("compactions_completed", s.compaction.completed);
  field("compactions_failed", s.compaction.failed);
  out += "\"compaction_seconds\":";
  AppendDouble(&out, s.compaction.total_seconds);
  out += ",";
  field("cache_gc_dropped", s.cache_gc_dropped, /*comma=*/false);
  out += "}";
  if (telemetry_ != nullptr) {
    out += ",\"latency\":{";
    for (size_t i = 0; i < kNumQueryStages; ++i) {
      const obs::HistogramSnapshot snapshot = telemetry_->stages[i].Snapshot();
      if (i != 0) out += ",";
      out += std::string("\"") +
             QueryStageName(static_cast<QueryStage>(i)) + "\":{";
      out += "\"count\":" + std::to_string(snapshot.count);
      out += ",\"p50_seconds\":";
      AppendDouble(&out, snapshot.Quantile(0.5) * 1e-6);
      out += ",\"p99_seconds\":";
      AppendDouble(&out, snapshot.Quantile(0.99) * 1e-6);
      out += "}";
    }
    out += "},\"outcomes\":{";
    for (size_t i = 0; i < kNumQueryOutcomes; ++i) {
      if (i != 0) out += ",";
      out += std::string("\"") +
             QueryOutcomeName(static_cast<QueryOutcome>(i)) + "\":" +
             std::to_string(telemetry_->outcome_counts[i].load(
                 std::memory_order_relaxed));
    }
    out += "}";
  }
  out += "}\n";
  return out;
}

void QueryService::RegisterMetrics(obs::MetricsRegistry* registry) {
  auto gauge = [&](const char* name, const char* help, auto getter) {
    registry->AddGauge(name, help, {}, [this, getter] {
      return static_cast<double>(getter(stats()));
    });
  };
  gauge("hwf_service_queued", "queries admitted but not yet executing",
        [](const Stats& s) { return s.queued; });
  gauge("hwf_service_queue_peak", "high-water mark of the admission queue",
        [](const Stats& s) { return s.peak_queued; });
  gauge("hwf_service_executing", "queries currently executing",
        [](const Stats& s) { return s.executing; });
  gauge("hwf_service_reserved_bytes", "live admission reservations in bytes",
        [](const Stats& s) { return s.reserved_bytes; });
  gauge("hwf_service_cache_bytes", "bytes held by the tree cache",
        [](const Stats& s) { return s.cache.bytes; });
  gauge("hwf_service_cache_entries", "entries held by the tree cache",
        [](const Stats& s) { return s.cache.entries; });
  gauge("hwf_service_cache_capacity_bytes", "tree cache capacity in bytes",
        [](const Stats& s) { return s.cache.capacity_bytes; });

  auto counter = [&](const char* name, const char* help, auto getter) {
    registry->AddCounter(name, help, {}, [this, getter] {
      return static_cast<double>(getter(stats()));
    });
  };
  counter("hwf_service_cache_hits_total", "tree cache hits",
          [](const Stats& s) { return s.cache.hits; });
  counter("hwf_service_cache_misses_total", "tree cache misses",
          [](const Stats& s) { return s.cache.misses; });
  counter("hwf_service_cache_evictions_total", "tree cache evictions",
          [](const Stats& s) { return s.cache.evictions; });
  counter("hwf_service_slow_queries_total",
          "queries at or over the slow-query threshold",
          [](const Stats& s) { return s.slow_queries; });
  // Note: the mutation counts themselves (hwf_ingest_rows_appended_total,
  // hwf_ingest_rows_upserted_total, hwf_ingest_compactions_total, ...) are
  // process-wide obs counters exported by obs::RegisterProcessCounters;
  // registering them here as well would duplicate the series.
  counter("hwf_service_cache_gc_dropped_total",
          "dead-epoch cache entries garbage-collected",
          [](const Stats& s) { return s.cache_gc_dropped; });
  registry->AddCounter("hwf_ingest_compaction_seconds_total",
                       "total seconds spent compacting", {}, [this] {
                         return compactor_ != nullptr
                                    ? compactor_->stats().total_seconds
                                    : 0.0;
                       });
  registry->AddCounter("hwf_service_rejected_by_cause_total",
                       "admission rejections by cause",
                       {{"cause", "queue_full"}}, [this] {
                         return static_cast<double>(
                             stats().rejected_queue_full);
                       });
  registry->AddCounter("hwf_service_rejected_by_cause_total",
                       "admission rejections by cause", {{"cause", "memory"}},
                       [this] {
                         return static_cast<double>(stats().rejected_memory);
                       });

  {
    std::lock_guard<std::mutex> lock(mutex_);
    registry_ = registry;
  }
  for (const std::string& name : catalog_.TableNames()) {
    ExportTableGauges(name);
  }

  if (telemetry_ == nullptr) return;
  registry->AddSummary("hwf_ingest_batch_seconds",
                       "APPEND/UPSERT batch application latency", {},
                       &telemetry_->ingest_batches, 1e-6);
  registry->AddSummary("hwf_ingest_compaction_seconds",
                       "synchronous compaction latency", {},
                       &telemetry_->compactions, 1e-6);
  for (size_t i = 0; i < kNumQueryOutcomes; ++i) {
    registry->AddCounter(
        "hwf_service_queries_by_outcome_total", "finished queries by outcome",
        {{"outcome", QueryOutcomeName(static_cast<QueryOutcome>(i))}},
        [this, i] {
          return static_cast<double>(
              telemetry_->outcome_counts[i].load(std::memory_order_relaxed));
        });
  }
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    registry->AddSummary(
        "hwf_query_stage_seconds", "query latency by lifecycle stage",
        {{"stage", QueryStageName(static_cast<QueryStage>(i))}},
        &telemetry_->stages[i], 1e-6);
  }
  for (size_t i = 0; i < kNumQueryOutcomes; ++i) {
    registry->AddSummary(
        "hwf_query_outcome_seconds",
        "admission-to-completion latency by outcome",
        {{"outcome", QueryOutcomeName(static_cast<QueryOutcome>(i))}},
        &telemetry_->outcomes[i], 1e-6);
  }
}

void QueryService::Shutdown() {
  std::deque<std::shared_ptr<QueryState>> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    drained.swap(queue_);
  }
  queue_cv_.notify_all();
  // Cancel in-flight compactions first: they run on the shared pool and a
  // stuck fold must not block the session join below.
  if (compactor_ != nullptr) compactor_->Stop();
  // Queued-but-never-started queries fail over to Cancelled so waiters
  // are not stranded.
  for (const std::shared_ptr<QueryState>& state : drained) {
    state->stop.RequestStop();
    FinishQuery(*state, Status::Cancelled("service shut down"), QueryResult{});
  }
  for (std::thread& session : sessions_) {
    if (session.joinable()) session.join();
  }
  sessions_.clear();
  // Every in-flight query has finished and recorded; the log can close
  // with no truncated lines.
  slow_log_.Close();
}

void QueryService::SessionLoop() {
  for (;;) {
    std::shared_ptr<QueryState> state;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      state = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
    }
    state->dequeue_time = Clock::now();
    state->dequeued = true;
    // Rebase the counter baseline to the start of execution so the delta
    // at finish excludes time spent queued (other queries ran meanwhile).
    state->counters.Rebase();

    Status status;
    {
      // Install the query's token for the whole execution: ParallelFor
      // re-installs it on every pool worker, so cancellation reaches
      // every morsel without explicit plumbing. The ambient query id rides
      // the same way (ThreadPool::Submit re-installs it), attributing every
      // span recorded on any thread on the query's behalf.
      ScopedStopToken scope(state->stop.token());
      obs::ScopedQueryId query_scope(state->id);
      HWF_TRACE_SCOPE_ARG("service.query", "query", state->id);
      status = ExecuteQuery(*state);
    }
    FinishQuery(*state, std::move(status), std::move(state->result));

    std::lock_guard<std::mutex> lock(mutex_);
    --executing_;
  }
}

Status QueryService::ExecuteQuery(QueryState& state) {
  if (Status stop = CheckStop(); !stop.ok()) return stop;

  const Clock::time_point parse_start = Clock::now();
  StatusOr<ParsedStatement> statement = ParseStatement(state.sql);
  if (!statement.ok()) return statement.status();

  StatusOr<Catalog::Snapshot> snapshot = catalog_.Lookup(statement->table_name);
  if (!snapshot.ok()) return snapshot.status();
  const Table& table = *snapshot->table;

  StatusOr<PlannedQuery> plan = BindStatement(*statement, table);
  state.parse_plan_seconds = SecondsBetween(parse_start, Clock::now());
  if (!plan.ok()) return plan.status();
  state.plan_groups = plan->groups.size();

  auto profile = std::make_shared<obs::ExecutionProfile>();
  const bool cache_on = options_.enable_cache &&
                        options_.cache_capacity_bytes > 0 &&
                        state.options.use_cache &&
                        options_.query_memory_limit_bytes == 0;

  // Evaluate every spec group in one executor call: the shared-sort
  // optimizer sequences the groups (BindStatement already emits them in
  // sharing order) so covered specs reuse a producer's sort instead of
  // paying their own, and the sharing plan lands in the profile's plan
  // text for --explain.
  WindowExecutorOptions exec = options_.executor;
  exec.memory_limit_bytes = options_.query_memory_limit_bytes;
  if (cache_on) {
    exec.tree_cache = &cache_;
    // Content-addressed coordinates (see WindowExecutorOptions): the
    // epoch identifies the registration, gen the in-place rewrite
    // generation, and the row count pins this snapshot's exact id set —
    // together they make every derived key exact across appends and
    // compactions.
    const std::string content = "t" + std::to_string(snapshot->epoch) +
                                ".g" + std::to_string(snapshot->gen);
    exec.cache_key = content + ".n" + std::to_string(table.num_rows());
    exec.content_cache_key = content;
    if (snapshot->delta_rows > 0 && snapshot->base_rows > 0) {
      exec.delta_base_rows = snapshot->base_rows;
      exec.delta_base_key =
          content + ".n" + std::to_string(snapshot->base_rows);
    }
  }
  exec.profile = profile.get();
  std::vector<WindowSpecGroup> exec_groups;
  exec_groups.reserve(plan->groups.size());
  for (const PlannedGroup& group : plan->groups) {
    exec_groups.push_back(WindowSpecGroup{&group.spec, group.calls});
  }
  StatusOr<std::vector<std::vector<Column>>> group_columns =
      EvaluateWindowSpecGroups(table, exec_groups, exec, pool_);
  if (!group_columns.ok()) return group_columns.status();

  // Results land in select-list order via the recorded output slots.
  std::vector<std::optional<Column>> slots(plan->output_names.size());
  for (size_t g = 0; g < plan->groups.size(); ++g) {
    const PlannedGroup& group = plan->groups[g];
    std::vector<Column>& columns = (*group_columns)[g];
    for (size_t i = 0; i < columns.size(); ++i) {
      slots[group.output_slots[i]] = std::move(columns[i]);
    }
  }
  if (Status stop = CheckStop(); !stop.ok()) return stop;

  QueryResult result;
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    result.table.AddColumn(plan->output_names[slot],
                           std::move(*slots[slot]));
  }
  result.profile = std::move(profile);
  result.query_id = state.id;
  state.result = std::move(result);
  return Status::OK();
}

void QueryService::FinishQuery(QueryState& state, Status status,
                               QueryResult result) {
  // Release the admission reservation before publishing completion:
  // a waiter observing "done" must also observe the budget returned.
  state.reservation.Release();
  QueryOutcome outcome = QueryOutcome::kError;
  if (status.ok()) {
    outcome = QueryOutcome::kOk;
  } else if (status.code() == StatusCode::kCancelled) {
    outcome = QueryOutcome::kCancelled;
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    outcome = QueryOutcome::kDeadline;
  }
  const bool was_cancelled = outcome == QueryOutcome::kCancelled ||
                             outcome == QueryOutcome::kDeadline;
  RecordOutcome(state, outcome, result);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (was_cancelled) {
      ++cancelled_;
    } else {
      ++completed_;
    }
  }
  obs::Add(was_cancelled ? obs::Counter::kServiceQueriesCancelled
                         : obs::Counter::kServiceQueriesCompleted);
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.status = std::move(status);
    state.result = std::move(result);
    state.done = true;
  }
  state.cv.notify_all();
}

void QueryService::RecordOutcome(const QueryState& state, QueryOutcome outcome,
                                 const QueryResult& result) {
  const Clock::time_point now = Clock::now();
  const double total_seconds = SecondsBetween(state.admit_time, now);
  const double queue_wait_seconds =
      state.dequeued ? SecondsBetween(state.admit_time, state.dequeue_time)
                     : total_seconds;
  const double exec_seconds = total_seconds - queue_wait_seconds;
  const obs::ExecutionProfile* profile = result.profile.get();

  if (telemetry_ != nullptr) {
    auto stage = [&](QueryStage s) -> obs::LatencyHistogram& {
      return telemetry_->stages[static_cast<size_t>(s)];
    };
    stage(QueryStage::kQueueWait).Record(SecondsToMicros(queue_wait_seconds));
    stage(QueryStage::kTotal).Record(SecondsToMicros(total_seconds));
    if (state.dequeued) {
      stage(QueryStage::kParsePlan)
          .Record(SecondsToMicros(state.parse_plan_seconds));
    }
    if (profile != nullptr) {
      using obs::ProfilePhase;
      stage(QueryStage::kSort).Record(SecondsToMicros(
          profile->phase_seconds(ProfilePhase::kPartition) +
          profile->phase_seconds(ProfilePhase::kSort) +
          profile->phase_seconds(ProfilePhase::kPreprocess)));
      stage(QueryStage::kTreeBuild).Record(SecondsToMicros(
          profile->phase_seconds(ProfilePhase::kTreeBuild)));
      stage(QueryStage::kProbe).Record(SecondsToMicros(
          profile->phase_seconds(ProfilePhase::kFrameResolve) +
          profile->phase_seconds(ProfilePhase::kProbe)));
    }
    const size_t slot = static_cast<size_t>(outcome);
    telemetry_->outcomes[slot].Record(SecondsToMicros(total_seconds));
    telemetry_->outcome_counts[slot].fetch_add(1, std::memory_order_relaxed);
  }

  const bool retain = options_.retained_profiles > 0;
  const bool slow = slow_log_.enabled() &&
                    total_seconds >= options_.slow_query_seconds;
  if (!retain && !slow) return;

  RetainedQuery record;
  record.id = state.id;
  record.sql = state.sql;
  record.outcome = outcome;
  record.total_seconds = total_seconds;
  record.queue_wait_seconds = queue_wait_seconds;
  record.exec_seconds = exec_seconds;
  record.parse_plan_seconds = state.parse_plan_seconds;
  record.plan_groups = state.plan_groups;
  record.cache_hits = state.counters.DeltaOf(obs::Counter::kCacheHits);
  record.cache_misses = state.counters.DeltaOf(obs::Counter::kCacheMisses);
  record.peak_reserved_bytes =
      profile != nullptr ? profile->peak_reserved_bytes() : 0;
  record.profile = result.profile;

  if (slow) {
    slow_log_.Append(RetainedQueryJson(record));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (slow) ++slow_queries_;
  if (retain) {
    retained_.push_back(std::move(record));
    while (retained_.size() > options_.retained_profiles) {
      retained_.pop_front();
    }
  }
}

std::string QueryService::RetainedQueryJson(const RetainedQuery& record) {
  std::string out = "{\"query_id\": " + std::to_string(record.id);
  out += ", \"sql\": \"" + obs::JsonEscaped(record.sql) + "\"";
  out += std::string(", \"outcome\": \"") + QueryOutcomeName(record.outcome) +
         "\"";
  out += ", \"total_seconds\": ";
  AppendDouble(&out, record.total_seconds);
  out += ", \"queue_wait_seconds\": ";
  AppendDouble(&out, record.queue_wait_seconds);
  out += ", \"exec_seconds\": ";
  AppendDouble(&out, record.exec_seconds);
  out += ", \"parse_plan_seconds\": ";
  AppendDouble(&out, record.parse_plan_seconds);
  out += ", \"groups\": " + std::to_string(record.plan_groups);
  out += ", \"cache_hits\": " + std::to_string(record.cache_hits);
  out += ", \"cache_misses\": " + std::to_string(record.cache_misses);
  out += ", \"peak_reserved_bytes\": " +
         std::to_string(record.peak_reserved_bytes);
  out += ", \"profile\": ";
  out += record.profile != nullptr ? record.profile->ToJson() : "null";
  out += "}";
  return out;
}

StatusOr<std::string> QueryService::RetainedProfileJson(
    uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    if (it->id == query_id) return RetainedQueryJson(*it);
  }
  return Status::InvalidArgument("no retained profile for query id " +
                                 std::to_string(query_id) +
                                 " (never finished, or aged out of retention)");
}

}  // namespace service
}  // namespace hwf
