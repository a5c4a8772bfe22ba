// hwf_client — command-line client for the hwf_serve line protocol.
//
//   hwf_client --port 4140 "select sum(price) over (order by day rows
//       between 6 preceding and current row) from trades"
//
//   hwf_client --port 4140 --format json --timeout 5 "select ..."
//   hwf_client --port 4140 --cancel-after-ms 50 "select ..."   # SUBMIT,
//       CANCEL mid-flight, then WAIT; exits 9 when cancellation won
//   hwf_client --port 4140 --stats
//   hwf_client --port 4140 --append trades --data new_rows.csv
//   hwf_client --port 4140 --compact trades
//
// The wire plumbing (framing, HELLO protocol-version handshake, connect
// timeout) lives in dist/wire_client.h, shared with the scatter/gather
// coordinator; this file is only flag parsing and command sequencing.
//
// Exit codes mirror the service's Status codes (see result_format.h):
// 0 success, 2 usage, 9 cancelled, 10 deadline exceeded, ...
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/status.h"
#include "dist/wire_client.h"
#include "service/result_format.h"

namespace {

using namespace hwf;

void Usage() {
  std::fprintf(stderr,
               "usage: hwf_client [options] \"SQL\"\n"
               "\n"
               "options:\n"
               "  --host HOST           server host (default 127.0.0.1)\n"
               "  --port N              server port (required)\n"
               "  --format csv|json     result format (default csv)\n"
               "  --timeout SECONDS     per-query deadline\n"
               "  --cancel-after-ms N   submit, cancel after N ms, wait\n"
               "  --explain             print the coordinator's plan for\n"
               "                        the SQL instead of executing it\n"
               "  --stats               print service statistics instead\n"
               "  --metrics             print Prometheus metrics instead\n"
               "  --profile-id N        print a finished query's retained\n"
               "                        profile instead\n"
               "  --show-id             print the query's service id on "
               "stderr\n"
               "  --ping                liveness check instead of a query\n"
               "  --no-handshake        skip the HELLO protocol-version "
               "check\n"
               "  --append TABLE        append CSV rows (see --data) to "
               "TABLE\n"
               "  --upsert TABLE        keyed upsert of CSV rows into TABLE\n"
               "  --data FILE           CSV payload for --append/--upsert\n"
               "                        (with header; '-' reads stdin)\n"
               "  --compact TABLE       fold TABLE's delta into its base\n");
}

/// Reads a whole file, or stdin for "-".
StatusOr<std::string> ReadDataFile(const std::string& path) {
  std::FILE* file = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open " + path);
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, file)) > 0) {
    data.append(buf, n);
  }
  if (file != stdin) std::fclose(file);
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string format;
  std::string sql;
  double timeout_seconds = -1;
  int cancel_after_ms = -1;
  bool explain = false;
  bool stats = false;
  bool metrics = false;
  bool show_id = false;
  bool handshake = true;
  long long profile_id = -1;
  bool ping = false;
  std::string append_table;
  std::string upsert_table;
  std::string data_path;
  std::string compact_table;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--host") {
      host = next();
    } else if (flag == "--port") {
      port = std::atoi(next());
    } else if (flag == "--format") {
      format = next();
    } else if (flag == "--timeout") {
      timeout_seconds = std::atof(next());
    } else if (flag == "--cancel-after-ms") {
      cancel_after_ms = std::atoi(next());
    } else if (flag == "--explain") {
      explain = true;
    } else if (flag == "--stats") {
      stats = true;
    } else if (flag == "--metrics") {
      metrics = true;
    } else if (flag == "--show-id") {
      show_id = true;
    } else if (flag == "--no-handshake") {
      handshake = false;
    } else if (flag == "--profile-id") {
      profile_id = std::atoll(next());
    } else if (flag == "--ping") {
      ping = true;
    } else if (flag == "--append") {
      append_table = next();
    } else if (flag == "--upsert") {
      upsert_table = next();
    } else if (flag == "--data") {
      data_path = next();
    } else if (flag == "--compact") {
      compact_table = next();
    } else if (flag == "--help" || flag == "-h") {
      Usage();
      return 0;
    } else if (flag.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", flag.c_str());
      Usage();
      return 2;
    } else {
      sql = flag;
    }
  }
  const bool ingest = !append_table.empty() || !upsert_table.empty();
  if (ingest && data_path.empty()) {
    std::fprintf(stderr, "error: --append/--upsert need --data FILE\n");
    return 2;
  }
  if (port == 0 || (sql.empty() && !stats && !metrics && !ping &&
                    profile_id < 0 && !ingest && compact_table.empty())) {
    Usage();
    return 2;
  }

  dist::WireClientOptions options;
  options.host = host;
  options.port = port;
  options.check_protocol_version = handshake;
  dist::WireClient client(options);
  if (Status connected = client.Connect(); !connected.ok()) {
    std::fprintf(stderr, "error: cannot connect to %s:%d: %s\n",
                 host.c_str(), port, connected.message().c_str());
    return 1;
  }

  auto run = [&]() -> Status {
    std::string payload;
    if (ping) {
      Status status = client.Exchange("PING", &payload);
      if (!status.ok()) return status;
      std::fputs(payload.c_str(), stdout);
      return Status::OK();
    }
    if (stats) {
      Status status = client.Exchange("STATS", &payload);
      if (!status.ok()) return status;
      std::fputs(payload.c_str(), stdout);
      return Status::OK();
    }
    if (metrics) {
      Status status = client.Exchange("METRICS", &payload);
      if (!status.ok()) return status;
      std::fputs(payload.c_str(), stdout);
      return Status::OK();
    }
    if (profile_id >= 0) {
      Status status = client.Exchange("PROFILE " + std::to_string(profile_id),
                                      &payload);
      if (!status.ok()) return status;
      std::fputs(payload.c_str(), stdout);
      return Status::OK();
    }
    if (ingest) {
      StatusOr<std::string> data = ReadDataFile(data_path);
      if (!data.ok()) return data.status();
      const std::string command =
          append_table.empty() ? "UPSERT " + upsert_table
                               : "APPEND " + append_table;
      Status status = client.ExchangeWithBody(command, *data, &payload);
      if (!status.ok()) return status;
      std::fputs(payload.c_str(), stdout);
      // Fall through only for an explicit chained --compact.
      if (compact_table.empty()) return Status::OK();
    }
    if (!compact_table.empty()) {
      Status status = client.Exchange("COMPACT " + compact_table, &payload);
      if (!status.ok()) return status;
      std::fputs(payload.c_str(), stdout);
      return Status::OK();
    }
    if (explain) {
      Status status = client.Exchange("EXPLAIN " + sql, &payload);
      if (!status.ok()) return status;
      std::fputs(payload.c_str(), stdout);
      return Status::OK();
    }
    if (!format.empty()) {
      if (Status s = client.Exchange("FORMAT " + format, &payload); !s.ok()) {
        return s;
      }
    }
    if (timeout_seconds >= 0) {
      if (Status s = client.Exchange(
              "TIMEOUT " + std::to_string(timeout_seconds), &payload);
          !s.ok()) {
        return s;
      }
    }
    if (cancel_after_ms < 0) {
      std::string extra;
      Status status = client.Exchange("QUERY " + sql, &payload, &extra);
      if (!status.ok()) return status;
      if (show_id && extra.rfind("id=", 0) == 0) {
        std::fprintf(stderr, "%s\n", extra.c_str());
      }
      std::fputs(payload.c_str(), stdout);
      return Status::OK();
    }
    // Cancellation exercise: SUBMIT, sleep, CANCEL, WAIT.
    Status status = client.Exchange("SUBMIT " + sql, &payload);
    if (!status.ok()) return status;
    if (payload.rfind("ID ", 0) != 0) {
      return Status::Internal("unexpected SUBMIT response: " + payload);
    }
    const std::string id = payload.substr(3, payload.find('\n') - 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
    if (Status s = client.Exchange("CANCEL " + id, &payload); !s.ok()) {
      return s;
    }
    status = client.Exchange("WAIT " + id, &payload);
    if (!status.ok()) return status;
    std::fputs(payload.c_str(), stdout);
    return Status::OK();
  };

  const Status status = run();
  std::string quit_payload;
  client.Exchange("QUIT", &quit_payload);
  client.Close();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  return service::ExitCodeForStatus(status);
}
