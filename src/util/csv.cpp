#include "util/csv.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/text_file.hpp"

namespace photherm {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PH_REQUIRE(!header_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<TableCell> row) {
  PH_REQUIRE(row.size() == header_.size(), "row width must match the header");
  rows_.push_back(std::move(row));
}

void Table::set_precision(int digits) {
  PH_REQUIRE(digits >= 1 && digits <= 17, "precision must be in [1, 17]");
  precision_ = digits;
}

std::string Table::format_cell(const TableCell& cell) const {
  if (const auto* text = std::get_if<std::string>(&cell)) {
    return *text;
  }
  if (precision_ == kExactPrecision) {
    // Exact mode: shortest spelling that parses back to the identical
    // double, so CSV consumers (diff tools, golden comparisons, resumed
    // playbacks) can round-trip cells bit-for-bit.
    return format_shortest(std::get<double>(cell));
  }
  std::ostringstream os;
  // ph-lint: allow(serialization) caller opted into lossy display precision
  os << std::setprecision(precision_) << std::get<double>(cell);
  return os.str();
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  std::vector<std::vector<std::string>> formatted;
  formatted.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    formatted.push_back(std::move(cells));
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c])) << cells[c];
    }
    os << " |\n";
  };
  emit_row(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& cells : formatted) {
    emit_row(cells);
  }
  return os.str();
}

namespace {
std::string csv_escape(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) {
    return value;
  }
  std::string out = "\"";
  for (char ch : value) {
    if (ch == '"') {
      out += "\"\"";
    } else {
      out += ch;
    }
  }
  out += "\"";
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "" : ",") << csv_escape(header_[c]);
  }
  os << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ",") << csv_escape(format_cell(row[c]));
    }
    os << "\n";
  }
  return os.str();
}

void Table::write_csv(const std::string& path) const {
  write_text_file(path, to_csv(), "CSV output file");
}

void print_table(std::ostream& os, const std::string& title, const Table& table) {
  os << "== " << title << " ==\n" << table.to_text() << "\n";
}

}  // namespace photherm
