// ASCII / CSV table rendering for the figure and table reproduction
// harness. Every report prints its rows through TextTable so the output
// format is uniform and machine-parsable (CSV mode).
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace fpr {

/// Column-oriented text table with automatic width computation.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Append a full row; must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience: start a row builder.
  class RowBuilder {
   public:
    RowBuilder& cell(std::string_view text);
    RowBuilder& num(double value, int precision = 3);
    RowBuilder& integer(long long value);
    /// Commit the row to the table. Must be called exactly once.
    void done();

   private:
    friend class TextTable;
    explicit RowBuilder(TextTable& table) : table_(&table) {}
    TextTable* table_;
    std::vector<std::string> cells_;
  };
  RowBuilder row() { return RowBuilder(*this); }

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const { return headers_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

  /// Render as an aligned ASCII table.
  void print(std::ostream& os) const;

  /// Render as CSV (RFC-4180 quoting for cells containing commas/quotes).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float formatting ("12.35").
std::string fmt_double(double v, int precision = 3);

}  // namespace fpr
