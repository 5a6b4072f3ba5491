#include "common/table.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>

namespace sora {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

TextTable& TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

void TextTable::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "| ";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << cell << std::string(widths[c] - cell.size(), ' ');
      out << (c + 1 < headers_.size() ? " | " : " |");
    }
    out << '\n';
  };
  print_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

void TextTable::print_csv(std::ostream& out) const {
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"') q += '"';
      q += ch;
    }
    q += '"';
    return q;
  };
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << quote(row[c]);
      if (c + 1 < row.size()) out << ',';
    }
    out << '\n';
  };
  print_row(headers_);
  for (const auto& row : rows_) print_row(row);
}

void TextTable::print_html(std::ostream& out) const {
  auto print_row = [&](const std::vector<std::string>& row, const char* tag) {
    out << "<tr>";
    for (const std::string& cell : row) {
      out << '<' << tag << '>' << html_escape(cell) << "</" << tag << '>';
    }
    out << "</tr>";
  };
  out << "<table>";
  print_row(headers_, "th");
  for (const auto& row : rows_) print_row(row, "td");
  out << "</table>\n";
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '<') {
      out += "&lt;";
    } else if (c == '>') {
      out += "&gt;";
    } else if (c == '&') {
      out += "&amp;";
    } else if (c == '"') {
      out += "&quot;";
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v, int precision) {
  std::ostringstream ss;
  ss.setf(std::ios::fixed);
  ss.precision(precision);
  ss << v;
  return ss.str();
}

std::string fmt_count(std::uint64_t v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

}  // namespace sora
