#include "src/common/table.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/common/logging.h"

namespace sarathi {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  CHECK(!header_.empty());
}

void Table::AddRow(std::vector<std::string> row) {
  CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::Num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string Table::Int(int64_t value) { return std::to_string(value); }

std::string Table::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) {
    widths[i] = header_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << row[i] << std::string(widths[i] - row[i].size(), ' ');
      out << (i + 1 < row.size() ? "  " : "");
    }
    out << "\n";
  };
  emit_row(header_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w;
  }
  total += 2 * (widths.size() - 1);
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

void Table::Print() const { std::cout << ToString() << std::flush; }

}  // namespace sarathi
