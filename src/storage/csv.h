#ifndef HWF_STORAGE_CSV_H_
#define HWF_STORAGE_CSV_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/table.h"

namespace hwf {

/// Parses CSV text into a Table.
///
/// The first record must be a header of column names. Fields may be quoted
/// with double quotes; embedded quotes are escaped by doubling (RFC 4180).
/// Empty unquoted fields are NULL. Column types are inferred from the
/// data: kInt64 if every non-NULL value parses as an integer, kDouble if
/// every non-NULL value is numeric, kString otherwise. A value is an
/// integer or a number exactly when strtoll / strtod (base 10, "C" locale)
/// consume all of it without ERANGE.
///
/// Blank lines (LF or CRLF) before the header are skipped; later ones are
/// a NULL row in a one-column table and skipped otherwise. Text after a
/// closing quote is part of the field, a quote inside an unquoted field is
/// literal, and one '\r' outside quotes before a line end (or the end of
/// input) is dropped; a '\r' inside quotes is data.
StatusOr<Table> ParseCsv(const std::string& content, char delimiter = ',');

/// Reads a whole CSV file and parses it as ParseCsv does.
StatusOr<Table> ReadCsvFile(const std::string& path, char delimiter = ',');

/// Renders a table as CSV (header + rows). NULLs render as empty fields;
/// strings are quoted when they contain the delimiter, quotes or newlines.
std::string ToCsv(const Table& table, char delimiter = ',');

/// The library's one number renderer, shared by the CSV and JSON writers
/// and the shard router: appends `value` byte for byte as printf renders
/// it with "%lld", or with "%g" at precision 17 ("nan", "-inf" and "-0"
/// included).
void AppendInt64Text(int64_t value, std::string* out);
void AppendDoubleText(double value, std::string* out);

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace hwf

#endif  // HWF_STORAGE_CSV_H_
