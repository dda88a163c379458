#include "util/table_printer.h"

#include <algorithm>
#include <sstream>

#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace infuserki::util {
namespace {

std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string escaped = ReplaceAll(cell, "\"", "\"\"");
  std::string quoted;
  quoted.reserve(escaped.size() + 2);
  quoted.append(1, '"').append(escaped).append(1, '"');
  return quoted;
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  CHECK(!header_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c] << std::string(widths[c] - row[c].size(), ' ')
         << " |";
    }
    os << "\n";
  };
  print_row(header_);
  os << "|";
  for (size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

Status TablePrinter::WriteCsv(const std::string& path) const {
  // Result tables are run artifacts like any checkpoint or manifest:
  // published atomically so a crash mid-write never leaves a torn CSV.
  std::ostringstream out;
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ",";
      out << CsvEscape(row[c]);
    }
    out << "\n";
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
  return WriteFileAtomic(path, out.str(), "table/write_csv");
}

}  // namespace infuserki::util
