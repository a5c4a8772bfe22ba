#ifndef HWF_TESTS_CSV_ORACLE_H_
#define HWF_TESTS_CSV_ORACLE_H_

// The original CSV reader and writer, kept as the differential oracle for
// storage/csv: a per-character tokenizer that builds one std::string per
// cell, strtoll/strtod type inference over those cells, and an
// snprintf("%lld" / "%.17g") writer. Test-only; slow by design.

#include <string>

#include "common/status.h"
#include "storage/table.h"

namespace hwf {
namespace csv_oracle {

StatusOr<Table> ParseCsv(const std::string& content, char delimiter = ',');

/// Streams the file through the tokenizer in 64 KiB chunks.
StatusOr<Table> ReadCsvFile(const std::string& path, char delimiter = ',');

std::string ToCsv(const Table& table, char delimiter = ',');

}  // namespace csv_oracle
}  // namespace hwf

#endif  // HWF_TESTS_CSV_ORACLE_H_
