// Tests for table/CSV/HTML rendering helpers.
#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace sora {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("| name      | value |"), std::string::npos);
  EXPECT_NE(s.find("| long-name | 22    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("| x |"), std::string::npos);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream out;
  t.print_csv(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, CsvPlain) {
  TextTable t({"k", "v"});
  t.add_row({"a", "b"});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "k,v\na,b\n");
}

// Cells are rendered as they are, not re-parsed from CSV: a comma stays
// inside its cell, and quotes are escaped rather than dropped.
TEST(TextTable, HtmlKeepsEachCellWholeAndEscaped) {
  TextTable t({"k", "v"});
  t.add_row({"a,b \"c\"", "<x>&"});
  std::ostringstream out;
  t.print_html(out);
  EXPECT_EQ(out.str(),
            "<table><tr><th>k</th><th>v</th></tr>"
            "<tr><td>a,b &quot;c&quot;</td><td>&lt;x&gt;&amp;</td></tr>"
            "</table>\n");
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(Fmt, Count) { EXPECT_EQ(fmt_count(12345), "12345"); }

}  // namespace
}  // namespace sora
