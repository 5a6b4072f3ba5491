// Console table / CSV rendering used by the benchmark harness to print
// paper-style tables and figure series.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sora {

/// A simple column-aligned text table. Cells are strings; numeric helpers
/// format with fixed precision.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Begin a new row; subsequent add_cell calls append to it.
  TextTable& add_row(std::vector<std::string> cells);

  /// Render with aligned columns to `out`.
  void print(std::ostream& out) const;

  /// Render as CSV (no alignment, comma-separated, quoted when needed).
  void print_csv(std::ostream& out) const;

  /// Render as one HTML <table>: the header row in <th> cells, every other
  /// row in <td> cells, each cell passed through html_escape.
  void print_html(std::ostream& out) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escape `<`, `>`, `&` and `"` as HTML character references.
std::string html_escape(const std::string& s);

/// Format a double with `precision` digits after the point.
std::string fmt(double v, int precision = 2);
/// Format an integer-valued count.
std::string fmt_count(std::uint64_t v);

}  // namespace sora
