#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace srumma {

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SRUMMA_REQUIRE(!headers_.empty(), "table must have at least one column");
}

void TableWriter::add_row(std::vector<std::string> cells) {
  SRUMMA_REQUIRE(cells.size() == headers_.size(),
                 "row cell count must match header count");
  rows_.push_back(std::move(cells));
}

std::string TableWriter::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TableWriter::num(long long v) { return std::to_string(v); }

void TableWriter::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  if (!title.empty()) os << "== " << title << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::setw(static_cast<int>(width[c])) << row[c];
      os << (c + 1 == row.size() ? "\n" : "  ");
    }
  };
  emit(headers_);
  std::size_t total = headers_.size() - 1;
  for (auto w : width) total += w + 1;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit(row);
}

}  // namespace srumma
