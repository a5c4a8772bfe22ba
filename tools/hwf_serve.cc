// hwf_serve — line-protocol TCP front door for the query service.
//
// Two roles, selected by --coordinator:
//
//   worker (default):
//     hwf_serve --port 0 --table lineitem=lineitem.csv --sessions 4
//     Serves the full single-process command set against a local
//     QueryService. May start with no tables at all: a coordinator
//     distributes shards to it over the wire with REGISTER.
//
//   coordinator:
//     hwf_serve --coordinator --worker 127.0.0.1:4141 --worker 127.0.0.1:4142
//         --table trades=trades.csv --shard_key trades=grp
//     Hash-shards each --table by its --shard_key columns across the
//     worker fleet at startup, then scatters eligible queries to all
//     shards and gathers the results back into the original row order
//     (byte-identical to single-process execution). Queries that do not
//     partition by the shard key run on a designated fallback worker
//     holding a full copy.
//
// Prints "LISTENING <port>" on stdout once the socket is bound (with
// --port 0 the kernel picks the port), then serves each connection on its
// own thread. Protocol: one command per line, responses framed as
//
//   OK <nbytes>\n<nbytes of payload>      (results, stats)
//   OK\n                                  (acknowledgements)
//   ERR <code> <message>\n
//
// Worker commands:
//   QUERY <sql>        execute synchronously, respond with the result
//                      (header carries "id=<n>" for trace correlation)
//   SUBMIT <sql>       enqueue; respond with framed payload "ID <n>\n"
//   WAIT <id>          block for a submitted query's result
//   CANCEL <id>        request cooperative cancellation
//   HELLO [version]    protocol-version handshake; replies "HWF <v>"
//   FORMAT csv|json    set this connection's result format (default csv)
//   TIMEOUT <seconds>  set this connection's per-query deadline (0 = none)
//   STATS              service + cache statistics as JSON
//   METRICS            Prometheus text-exposition metrics
//   PROFILE <id>       retained profile of a finished query as JSON
//   REGISTER <t> <n> [key=<col>]
//                      read n bytes of CSV and register/replace table t
//   APPEND <t> <n>     read n bytes of CSV (with header) and append the
//                      rows to table t; responds "ROWS <appended> ..."
//   UPSERT <t> <n>     as APPEND, but keyed upsert (needs --key for t)
//   COMPACT <t>        synchronously fold t's delta into its base
//   PING               liveness check, responds "OK 5\nPONG\n"
//   QUIT               close the connection
//
// The coordinator front door speaks the same framing with QUERY/EXPLAIN/
// HELLO/FORMAT/TIMEOUT/STATS/METRICS/REGISTER/APPEND/COMPACT/PING/QUIT;
// SUBMIT, WAIT, CANCEL, UPSERT and PROFILE answer ERR 5 (not implemented
// in coordinator mode). A QUERY response header carries
// "id=<n> regime=<scatter(N)|fallback>".
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
// queries, write the final metrics/trace dumps and close the slow-query
// log before exiting 0.
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "mem/memory_budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/result_format.h"
#include "service/service.h"
#include "service/tcp_server.h"
#include "storage/csv.h"

namespace {

using namespace hwf;

void Usage() {
  std::fprintf(
      stderr,
      "usage: hwf_serve [--table NAME=FILE.csv] [options]\n"
      "       hwf_serve --coordinator --worker HOST:PORT [...] [options]\n"
      "\n"
      "options:\n"
      "  --port N              listen port (default 0 = kernel-assigned;\n"
      "                        the chosen port is printed as LISTENING N)\n"
      "  --table NAME=FILE     register a CSV file as table NAME "
      "(repeatable)\n"
      "  --key NAME=COLUMN     declare COLUMN as table NAME's UPSERT key\n"
      "  --sessions N          concurrent query executions (default 2)\n"
      "  --queue N             admission queue depth (default 16)\n"
      "  --memory_limit BYTES  admission budget, K/M/G suffix ok "
      "(default unlimited)\n"
      "  --reservation BYTES   per-query admission reservation (default "
      "64M)\n"
      "  --cache_bytes BYTES   tree cache capacity, 0 disables (default "
      "256M)\n"
      "  --timeout SECONDS     default per-query deadline (default none)\n"
      "  --slow_query_log FILE JSON-lines slow-query log (default off)\n"
      "  --slow_query_ms N     slow-query threshold in ms (default 100)\n"
      "  --trace FILE          write a Chrome trace on shutdown\n"
      "  --metrics_dump FILE   write a final metrics snapshot on shutdown\n"
      "\n"
      "coordinator options:\n"
      "  --coordinator         run as scatter/gather coordinator\n"
      "  --worker HOST:PORT    worker endpoint (repeatable; list order\n"
      "                        defines shard numbering)\n"
      "  --shard_key NAME=COLS shard table NAME by the comma-separated\n"
      "                        COLS (must be PARTITION BY columns)\n"
      "  --shard_retries N     retries per shard sub-query (default 2)\n");
}

/// Signal-driven shutdown: the handler breaks the accept loop by shutting
/// the listener down (accept returns, the loop exits) — the only
/// async-signal-safe way to interrupt accept without polling.
volatile sig_atomic_t g_stop = 0;
int g_listener = -1;

void HandleStopSignal(int) {
  g_stop = 1;
  if (g_listener >= 0) ::shutdown(g_listener, SHUT_RDWR);
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t comma = text.find(',', begin);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

/// The coordinator's own line-protocol front door: same framing as a
/// worker, but QUERY scatters across the fleet. Async commands (SUBMIT/
/// WAIT/CANCEL), UPSERT and PROFILE are not implemented in this mode.
void ServeCoordinatorConnection(int fd, dist::Coordinator* coordinator,
                                obs::MetricsRegistry* registry) {
  using service::SendErrorFd;
  using service::SendOkFd;
  using service::SendPayloadFd;
  service::ResultFormat format = service::ResultFormat::kCsv;
  double timeout_seconds = -1;  // coordinator default
  std::string line;
  while (service::ReadLineFd(fd, &line)) {
    const size_t space = line.find(' ');
    std::string command = line.substr(0, space);
    for (char& c : command) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    const std::string rest =
        space == std::string::npos ? std::string() : line.substr(space + 1);

    if (command == "QUIT") {
      SendOkFd(fd);
      break;
    }
    if (command == "PING") {
      SendPayloadFd(fd, "PONG\n");
      continue;
    }
    if (command == "HELLO") {
      service::HandleHello(fd, rest);
      continue;
    }
    if (command == "STATS") {
      SendPayloadFd(fd, coordinator->StatsJson());
      continue;
    }
    if (command == "METRICS") {
      SendPayloadFd(fd, registry->RenderText());
      continue;
    }
    if (command == "FORMAT") {
      StatusOr<service::ResultFormat> parsed =
          service::ParseResultFormat(rest);
      if (!parsed.ok()) {
        SendErrorFd(fd, parsed.status());
        continue;
      }
      format = *parsed;
      SendOkFd(fd);
      continue;
    }
    if (command == "TIMEOUT") {
      timeout_seconds = std::atof(rest.c_str());
      SendOkFd(fd);
      continue;
    }
    if (command == "QUERY") {
      if (rest.empty()) {
        SendErrorFd(fd, Status::InvalidArgument("QUERY needs SQL text"));
        continue;
      }
      StatusOr<dist::CoordinatorQueryResult> result =
          coordinator->Query(rest, timeout_seconds);
      if (!result.ok()) {
        SendErrorFd(fd, result.status());
      } else {
        SendPayloadFd(fd, service::FormatTable(result->table, format),
                      "id=" + std::to_string(result->query_id) +
                          " regime=" + result->regime);
      }
      continue;
    }
    if (command == "EXPLAIN") {
      if (rest.empty()) {
        SendErrorFd(fd, Status::InvalidArgument("EXPLAIN needs SQL text"));
        continue;
      }
      StatusOr<std::string> plan = coordinator->Explain(rest);
      if (!plan.ok()) {
        SendErrorFd(fd, plan.status());
      } else {
        SendPayloadFd(fd, *plan);
      }
      continue;
    }
    if (command == "REGISTER") {
      // "<table> <nbytes> [key=<col>[,<col>...]]": the CSV payload follows
      // the line; key= names the shard key columns.
      const size_t sep = rest.find(' ');
      if (sep == std::string::npos) {
        SendErrorFd(fd, Status::InvalidArgument(
                            "REGISTER wants: <table> <nbytes> [key=<cols>]"));
        continue;
      }
      const std::string table_name = rest.substr(0, sep);
      char* end = nullptr;
      const std::string tail = rest.substr(sep + 1);
      const uint64_t nbytes = std::strtoull(tail.c_str(), &end, 10);
      if (end == tail.c_str()) {
        SendErrorFd(fd,
                    Status::InvalidArgument("REGISTER needs a byte count"));
        continue;
      }
      std::string key_text = end;
      std::vector<std::string> shard_key;
      const size_t key_pos = key_text.find("key=");
      if (key_pos != std::string::npos) {
        key_text = key_text.substr(key_pos + 4);
        const size_t key_end = key_text.find(' ');
        if (key_end != std::string::npos) key_text.resize(key_end);
        shard_key = SplitCommas(key_text);
      }
      std::string payload;
      if (!service::ReadExactFd(fd, static_cast<size_t>(nbytes), &payload)) {
        break;
      }
      StatusOr<Table> table = ParseCsv(payload);
      if (!table.ok()) {
        SendErrorFd(fd, table.status());
        continue;
      }
      const size_t rows = table->num_rows();
      Status registered =
          coordinator->RegisterTable(table_name, *table, shard_key);
      if (!registered.ok()) {
        SendErrorFd(fd, registered);
        continue;
      }
      SendPayloadFd(fd, "REGISTERED " + std::to_string(rows) + " workers=" +
                            std::to_string(coordinator->num_workers()) +
                            "\n");
      continue;
    }
    if (command == "APPEND") {
      const size_t sep = rest.find(' ');
      if (sep == std::string::npos) {
        SendErrorFd(fd,
                    Status::InvalidArgument("APPEND wants: <table> <nbytes>"));
        continue;
      }
      const std::string table_name = rest.substr(0, sep);
      char* end = nullptr;
      const std::string count_text = rest.substr(sep + 1);
      const uint64_t nbytes = std::strtoull(count_text.c_str(), &end, 10);
      if (end == count_text.c_str()) {
        SendErrorFd(fd, Status::InvalidArgument("APPEND needs a byte count"));
        continue;
      }
      std::string payload;
      if (!service::ReadExactFd(fd, static_cast<size_t>(nbytes), &payload)) {
        break;
      }
      StatusOr<Table> rows = ParseCsv(payload);
      if (!rows.ok()) {
        SendErrorFd(fd, rows.status());
        continue;
      }
      StatusOr<size_t> appended =
          coordinator->AppendRows(table_name, *rows);
      if (!appended.ok()) {
        SendErrorFd(fd, appended.status());
        continue;
      }
      SendPayloadFd(fd, "ROWS " + std::to_string(*appended) + "\n");
      continue;
    }
    if (command == "COMPACT") {
      if (rest.empty()) {
        SendErrorFd(fd, Status::InvalidArgument("COMPACT needs a table name"));
        continue;
      }
      Status compacted = coordinator->CompactTable(rest);
      if (!compacted.ok()) {
        SendErrorFd(fd, compacted);
        continue;
      }
      SendPayloadFd(fd, "COMPACTED\n");
      continue;
    }
    if (command == "SUBMIT" || command == "WAIT" || command == "CANCEL" ||
        command == "UPSERT" || command == "PROFILE") {
      SendErrorFd(fd, Status::NotImplemented(
                          command + " is not available in coordinator mode"));
      continue;
    }
    SendErrorFd(fd, Status::InvalidArgument("unknown command '" + command +
                                            "'"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  bool coordinator_mode = false;
  std::vector<std::pair<std::string, std::string>> tables;
  std::vector<std::pair<std::string, std::string>> keys;
  std::vector<std::pair<std::string, std::string>> shard_keys;
  std::string trace_path;
  std::string metrics_dump_path;
  service::ServiceOptions options;
  dist::CoordinatorOptions coordinator_options;
  bool sessions_set = false;
  bool queue_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto parse_name_value = [&](std::vector<std::pair<std::string,
                                                      std::string>>* out,
                                const char* shape) {
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "error: %s wants %s, got '%s'\n", flag.c_str(),
                     shape, spec.c_str());
        std::exit(2);
      }
      out->emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    };
    if (flag == "--port") {
      port = std::atoi(next());
    } else if (flag == "--coordinator") {
      coordinator_mode = true;
    } else if (flag == "--worker") {
      coordinator_options.workers.push_back(next());
    } else if (flag == "--shard_key") {
      parse_name_value(&shard_keys, "NAME=COL[,COL...]");
    } else if (flag == "--shard_retries") {
      coordinator_options.shard_retries =
          static_cast<size_t>(std::atoll(next()));
    } else if (flag == "--table") {
      parse_name_value(&tables, "NAME=FILE");
    } else if (flag == "--key") {
      parse_name_value(&keys, "NAME=COLUMN");
    } else if (flag == "--sessions") {
      options.num_sessions = static_cast<size_t>(std::atoll(next()));
      sessions_set = true;
    } else if (flag == "--queue") {
      options.max_queued = static_cast<size_t>(std::atoll(next()));
      queue_set = true;
    } else if (flag == "--memory_limit") {
      if (!mem::ParseMemorySize(next(), &options.memory_limit_bytes)) {
        std::fprintf(stderr, "error: bad --memory_limit\n");
        return 2;
      }
    } else if (flag == "--reservation") {
      if (!mem::ParseMemorySize(next(),
                                &options.per_query_reservation_bytes)) {
        std::fprintf(stderr, "error: bad --reservation\n");
        return 2;
      }
    } else if (flag == "--cache_bytes") {
      if (!mem::ParseMemorySize(next(), &options.cache_capacity_bytes)) {
        std::fprintf(stderr, "error: bad --cache_bytes\n");
        return 2;
      }
      options.enable_cache = options.cache_capacity_bytes > 0;
    } else if (flag == "--timeout") {
      options.default_timeout_seconds = std::atof(next());
      coordinator_options.default_timeout_seconds =
          options.default_timeout_seconds;
    } else if (flag == "--slow_query_log") {
      options.slow_query_log_path = next();
    } else if (flag == "--slow_query_ms") {
      options.slow_query_seconds = std::atof(next()) / 1000.0;
    } else if (flag == "--trace") {
      trace_path = next();
    } else if (flag == "--metrics_dump") {
      metrics_dump_path = next();
    } else if (flag == "--help" || flag == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", flag.c_str());
      Usage();
      return 2;
    }
  }
  if (coordinator_mode && coordinator_options.workers.empty()) {
    std::fprintf(stderr, "error: --coordinator needs at least one --worker\n");
    return 2;
  }
  if (!coordinator_mode &&
      (!coordinator_options.workers.empty() || !shard_keys.empty())) {
    std::fprintf(stderr,
                 "error: --worker/--shard_key need --coordinator\n");
    return 2;
  }

  if (!trace_path.empty()) obs::Tracer::Get().Enable();
  ::signal(SIGPIPE, SIG_IGN);
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  obs::MetricsRegistry registry;
  obs::RegisterProcessCounters(&registry);

  // Final observability artifacts. Must run while the service object whose
  // histograms back the registry's summaries is still alive, i.e. inside
  // the role branch, before svc/coordinator go out of scope.
  const auto write_final_artifacts = [&] {
    if (!metrics_dump_path.empty()) {
      const std::string text = registry.RenderText();
      if (std::FILE* file = std::fopen(metrics_dump_path.c_str(), "w")) {
        std::fwrite(text.data(), 1, text.size(), file);
        std::fclose(file);
        std::fprintf(stderr, "wrote final metrics to %s\n",
                     metrics_dump_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n",
                     metrics_dump_path.c_str());
      }
    }
    if (!trace_path.empty()) {
      Status written = obs::Tracer::Get().WriteChromeTrace(trace_path);
      if (written.ok()) {
        std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      }
    }
  };

  if (coordinator_mode) {
    if (sessions_set) {
      coordinator_options.max_concurrent_queries = options.num_sessions;
    }
    if (queue_set) coordinator_options.max_queued_queries = options.max_queued;
    dist::Coordinator coordinator(coordinator_options);
    coordinator.RegisterMetrics(&registry);
    for (const auto& [name, path] : tables) {
      StatusOr<Table> table = ReadCsvFile(path);
      if (!table.ok()) {
        std::fprintf(stderr, "error loading %s: %s\n", path.c_str(),
                     table.status().ToString().c_str());
        return service::ExitCodeForStatus(table.status());
      }
      std::vector<std::string> shard_key;
      for (const auto& [key_table, columns] : shard_keys) {
        if (key_table == name) shard_key = SplitCommas(columns);
      }
      Status registered = coordinator.RegisterTable(name, *table, shard_key);
      if (!registered.ok()) {
        std::fprintf(stderr, "error registering %s: %s\n", name.c_str(),
                     registered.ToString().c_str());
        return service::ExitCodeForStatus(registered);
      }
      std::fprintf(stderr, "registered table %s from %s across %zu worker(s)\n",
                   name.c_str(), path.c_str(), coordinator.num_workers());
    }

    service::TcpServer server(
        [&](int fd) { ServeCoordinatorConnection(fd, &coordinator, &registry); },
        /*detach_connections=*/true);
    StatusOr<int> bound = server.Listen(port);
    if (!bound.ok()) {
      std::fprintf(stderr, "error: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    g_listener = server.listener_fd();
    std::printf("LISTENING %d\n", *bound);
    std::fflush(stdout);
    server.AcceptLoop();
    std::fprintf(stderr, "shutting down coordinator\n");
    write_final_artifacts();
  } else {
    service::QueryService svc(options);
    svc.RegisterMetrics(&registry);
    for (const auto& [name, path] : tables) {
      StatusOr<Table> table = ReadCsvFile(path);
      if (!table.ok()) {
        std::fprintf(stderr, "error loading %s: %s\n", path.c_str(),
                     table.status().ToString().c_str());
        return service::ExitCodeForStatus(table.status());
      }
      std::string key_column;
      for (const auto& [key_table, column] : keys) {
        if (key_table == name) key_column = column;
      }
      if (key_column.empty()) {
        svc.RegisterTable(name, std::move(*table));
      } else {
        StatusOr<uint64_t> registered =
            svc.RegisterTable(name, std::move(*table), key_column);
        if (!registered.ok()) {
          std::fprintf(stderr, "error registering %s: %s\n", name.c_str(),
                       registered.status().ToString().c_str());
          return service::ExitCodeForStatus(registered.status());
        }
      }
      std::fprintf(stderr, "registered table %s from %s\n", name.c_str(),
                   path.c_str());
    }
    if (tables.empty()) {
      std::fprintf(stderr,
                   "no tables registered; waiting for REGISTER commands\n");
    }

    service::TcpServer server(
        [&](int fd) { service::ServeServiceConnection(fd, &svc, &registry); },
        /*detach_connections=*/true);
    StatusOr<int> bound = server.Listen(port);
    if (!bound.ok()) {
      std::fprintf(stderr, "error: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    g_listener = server.listener_fd();
    std::printf("LISTENING %d\n", *bound);
    std::fflush(stdout);
    server.AcceptLoop();

    // Graceful shutdown: drain in-flight queries (Shutdown joins the
    // sessions and closes the slow-query log), then write the final
    // observability artifacts.
    std::fprintf(stderr, "shutting down: draining in-flight queries\n");
    svc.Shutdown();
    write_final_artifacts();
  }
  return 0;
}
