// The one text scanner (common/scan.h) and the grammar it gives every text
// input: the three trace readers and the dtnd script parser reject the
// same malformed tokens, each naming the line.
#include "common/scan.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "daemon/daemon.h"
#include "daemon/script.h"
#include "traceio/reader.h"

namespace dtn {
namespace {

std::vector<std::string> lines_of(std::string_view text) {
  std::vector<std::string> out;
  scan::LineWalker lines(text);
  std::string_view line;
  while (lines.next(line)) {
    EXPECT_EQ(lines.line_no(), out.size() + 1);
    out.emplace_back(line);
  }
  return out;
}

TEST(Scan, LinesStripOneCarriageReturnAndKeepBlankLines) {
  using V = std::vector<std::string>;
  EXPECT_EQ(lines_of(""), V{});
  EXPECT_EQ(lines_of("a"), V{"a"});
  EXPECT_EQ(lines_of("a\n"), V{"a"});
  EXPECT_EQ(lines_of("a\r\n\r\nb\r\r\n"), (V{"a", "", "b\r"}));
  EXPECT_EQ(lines_of("\n\n"), (V{"", ""}));
}

TEST(Scan, CsvFieldsAreTrimmedAndCounted) {
  std::string_view fields[3];
  EXPECT_EQ(scan::split_csv(" 1.5 ,\t2,, x y ,5", fields), 5u);
  EXPECT_EQ(fields[0], "1.5");
  EXPECT_EQ(fields[1], "2");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(scan::split_csv("", fields), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(Scan, WordsSplitOnRunsOfBlanks) {
  std::string_view words[2];
  EXPECT_EQ(scan::split_words("  10\t CONN  7 ", words), 3u);
  EXPECT_EQ(words[0], "10");
  EXPECT_EQ(words[1], "CONN");
  EXPECT_EQ(scan::split_words(" \t ", words), 0u);
}

TEST(Scan, NumbersMustBeWholeTokens) {
  double d = -1.0;
  EXPECT_TRUE(scan::number("1e3", d));
  EXPECT_EQ(d, 1000.0);
  EXPECT_TRUE(scan::number("-0.25", d));
  EXPECT_EQ(d, -0.25);
  int i = -1;
  EXPECT_TRUE(scan::number("42", i));
  EXPECT_EQ(i, 42);
  for (const char* bad : {"", " 1", "1 ", "+1", "0x10", "40abc", "1,", "e5"}) {
    EXPECT_FALSE(scan::number(bad, d)) << bad;
    EXPECT_FALSE(scan::number(bad, i)) << bad;
  }
  EXPECT_FALSE(scan::number("3.5", i));
  EXPECT_FALSE(scan::number("2147483648", i));  // out of range
  EXPECT_EQ(i, 42);  // a failed parse leaves the value alone
}

// ---- one grammar across every text input ------------------------------

/// Parses `text` with `grammar` ("csv", "one", "imote" or "script") and
/// returns the error message, or "" when it parses.
std::string error_of(const std::string& grammar, const std::string& text,
                     bool strict) {
  try {
    if (grammar == "script") {
      std::vector<ContactEvent> events = {{10.0, 5.0, 0, 1}};
      daemon::DaemonConfig config;
      config.threads = 1;
      daemon::Daemon daemon(4, config);
      daemon::ReplayFeed feed(events);
      std::ostringstream out;
      daemon::run_script(daemon, feed, text, out);
    } else {
      traceio::TraceReadOptions options;
      options.strict = strict;
      traceio::reader_for_format(grammar)->read(text, "t", "input.txt",
                                                options);
    }
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Scan, MalformedTokensFailWithLocationInEveryGrammar) {
  // Each bad line follows one good line, so the error must name line 2.
  const struct {
    const char* grammar;
    const char* good;
    const char* bad;
    bool lenient_too;  // rejected in lenient mode as well as strict
  } cases[] = {
      {"one", "0 CONN 1 2 up", "0x10 CONN 1 2 down", true},
      {"one", "0 CONN 1 2 up", "40abc CONN 1 2 down", true},
      {"one", "0 CONN 1 2 up", "40 CONN +1 2 down", true},
      {"one", "0 CONN 1 2 up", "40 CONN 1 2 down extra", false},
      {"csv", "0,1,0,1", "1abc,2,0,1", true},
      {"csv", "0,1,0,1", "1,2,+2,1", true},
      {"csv", "0,1,0,1", "1,2,0,1 # note", true},
      {"csv", "0,1,0,1", "1,2,0x1,2", true},
      {"imote", "1 2 10 20", "+2 1 10 20", true},
      {"imote", "1 2 10 20", "1 2 0x10 20", true},
      {"imote", "1 2 10 20", "1 2 10 20abc", true},
      {"script", "ncl 1", "advance 5abc", true},
      {"script", "ncl 1", "ncl 3.5", true},
      {"script", "ncl 1", "weight 0 1 3600 junk", true},
      {"script", "ncl 1", "advance nan", true},
      {"script", "ncl 1", "place +1 2", true},
  };
  for (const auto& c : cases) {
    const std::string text = std::string(c.good) + "\n" + c.bad + "\n";
    const std::string where = c.grammar == std::string("script")
                                  ? "script line 2: "
                                  : "input.txt:2: ";
    for (const bool strict : {false, true}) {
      SCOPED_TRACE(std::string(c.grammar) + (strict ? " strict: " : ": ") +
                   c.bad);
      if (!strict && !c.lenient_too) {
        EXPECT_EQ(error_of(c.grammar, text, strict), "");
        continue;
      }
      EXPECT_NE(error_of(c.grammar, text, strict).find(where),
                std::string::npos)
          << error_of(c.grammar, text, strict);
    }
  }
}

}  // namespace
}  // namespace dtn
