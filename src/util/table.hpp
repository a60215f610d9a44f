#pragma once
// Plain-text result tables for the benchmark harnesses.
//
// Every bench prints the rows the corresponding paper table/figure reports;
// TableWriter keeps that output aligned.

#include <iosfwd>
#include <string>
#include <vector>

namespace srumma {

/// Column-aligned text table with an optional title, printed to a stream.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  /// Append one row; cell count must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles/ints into a row.
  static std::string num(double v, int precision = 2);
  static std::string num(long long v);

  /// Render with box-drawing-free ASCII alignment.
  void print(std::ostream& os, const std::string& title = "") const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace srumma
