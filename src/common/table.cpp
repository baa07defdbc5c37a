#include "common/table.h"

#include <iomanip>
#include <sstream>

#include "common/check.h"

namespace dtn {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DTN_CHECK(!headers_.empty());
}

void TextTable::begin_row() { rows_.emplace_back(); }

void TextTable::add_cell(std::string value) {
  DTN_CHECK(!rows_.empty());
  DTN_CHECK(rows_.back().size() < headers_.size());
  rows_.back().push_back(std::move(value));
}

void TextTable::add_number(double value, int precision) {
  add_cell(format_double(value, precision));
}

void TextTable::add_integer(long long value) {
  add_cell(std::to_string(value));
}

void TextTable::add_row(std::vector<std::string> cells) {
  DTN_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      out << (c == 0 ? "| " : " ");
      out << std::setw(static_cast<int>(widths[c])) << std::right << cell << " |";
    }
    out << "\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string TextTable::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out << ",";
      out << cells[c];
    }
    out << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string format_double(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string format_duration(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1);
  if (seconds < 60.0) {
    out << seconds << "s";
  } else if (seconds < 3600.0) {
    out << seconds / 60.0 << "m";
  } else if (seconds < 86400.0) {
    out << seconds / 3600.0 << "h";
  } else {
    out << seconds / 86400.0 << "d";
  }
  return out.str();
}

}  // namespace dtn
