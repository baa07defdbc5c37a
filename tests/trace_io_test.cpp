// The native CSV format: write_trace_csv (trace/trace_io.h) against the
// CSV reader (src/traceio/csv_reader.cpp).
#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/synthetic.h"
#include "traceio/cache.h"
#include "traceio/reader.h"

namespace dtn {
namespace {

ContactTrace read_csv(const std::string& text, NodeId min_node_count = 0,
                      bool strict = false,
                      const std::string& source = "trace") {
  traceio::TraceReadOptions options;
  options.min_node_count = min_node_count;
  options.strict = strict;
  return traceio::reader_for_format("csv")->read(text, "trace", source,
                                                 options);
}

std::string error_of(const std::string& text, bool strict = false,
                     const std::string& source = "trace") {
  try {
    read_csv(text, 0, strict, source);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(TraceIo, RoundTripThroughStream) {
  SyntheticTraceConfig c;
  c.node_count = 10;
  c.duration = days(1);
  c.target_total_contacts = 500;
  c.seed = 5;
  const ContactTrace original = generate_trace(c);

  std::ostringstream buffer;
  write_trace_csv(original, buffer);
  const ContactTrace loaded = read_csv(buffer.str());

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.node_count(), original.node_count());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.events()[i], original.events()[i]);
  }
}

TEST(TraceIo, HeaderIsOptional) {
  const ContactTrace a = read_csv("start,duration,a,b\n1.5,10,0,1\n");
  const ContactTrace b = read_csv("1.5,10,0,1\n");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a.events()[0], b.events()[0]);
}

TEST(TraceIo, CrlfAndBlanksAroundFieldsParse) {
  const ContactTrace lf = read_csv("start,duration,a,b\n1.5,10,0,1\n3,4,1,2\n");
  const ContactTrace crlf = read_csv(
      "start,duration,a,b\r\n1.5 , 10,\t0 ,1\r\n\r\n 3,4 ,1,2\t\r\n");
  EXPECT_EQ(crlf.events(), lf.events());
  EXPECT_EQ(crlf.node_count(), lf.node_count());
}

TEST(TraceIo, NodeCountFromMaxId) {
  EXPECT_EQ(read_csv("0,5,2,7\n").node_count(), 8);
}

TEST(TraceIo, MinNodeCountHonored) {
  EXPECT_EQ(read_csv("0,5,0,1\n", 50).node_count(), 50);
}

TEST(TraceIo, MalformedLineThrows) {
  EXPECT_THROW(read_csv("start,duration,a,b\n1.5,10,0\n"), std::runtime_error);
}

TEST(TraceIo, WrongSeparatorThrows) {
  EXPECT_THROW(read_csv("1.5;10;0;1\n"), std::runtime_error);
}

TEST(TraceIo, EmptyStreamThrows) {
  EXPECT_THROW(read_csv(""), std::runtime_error);
}

TEST(TraceIo, BlankLinesIgnored) {
  EXPECT_EQ(read_csv("start,duration,a,b\n1,2,0,1\n\n3,4,1,2\n").size(), 2u);
}

TEST(TraceIo, FileRoundTripAndNaming) {
  SyntheticTraceConfig c;
  c.node_count = 5;
  c.duration = hours(6);
  c.target_total_contacts = 100;
  const ContactTrace original = generate_trace(c);

  const std::string path = testing::TempDir() + "/dtn_trace_io_test.csv";
  save_trace_csv(original, path);
  const ContactTrace loaded = traceio::load_trace_any(path);
  EXPECT_EQ(loaded.name(), "dtn_trace_io_test");
  EXPECT_EQ(loaded.size(), original.size());
  std::remove(path.c_str());
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(traceio::load_trace_any("/nonexistent/path/to/trace.csv"),
               std::runtime_error);
}

// ---- parse diagnostics (file:line context) and strict mode ------------

TEST(TraceIo, ParseErrorsCarrySourceAndLine) {
  const std::string what = error_of("start,duration,a,b\n1,2,0,1\n1.5,10,0\n",
                                    false, "contacts.csv");
  EXPECT_NE(what.find("contacts.csv:3:"), std::string::npos) << what;
  EXPECT_NE(what.find("1.5,10,0"), std::string::npos) << what;
}

TEST(TraceIo, LoadErrorsNameTheFilePath) {
  // The trace is named after the basename, but errors carry the full path.
  const std::string path = testing::TempDir() + "/dtn_trace_io_bad.csv";
  {
    std::ofstream out(path);
    out << "start,duration,a,b\nbogus line\n";
  }
  try {
    traceio::load_trace_any(path);
    ADD_FAILURE() << "malformed row must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path + ":2:"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(TraceIo, InvalidValuesRejectedWithContext) {
  EXPECT_NE(error_of("1,-2,0,1\n").find("negative contact duration"),
            std::string::npos);
  EXPECT_NE(error_of("1,2,3,3\n").find("self-contact"), std::string::npos);
  EXPECT_NE(error_of("1,2,-1,3\n").find("negative node id"),
            std::string::npos);
  EXPECT_NE(error_of("nan,2,0,1\n").find("trace:1: trace CSV parse error: "
                                         "non-finite start or duration"),
            std::string::npos);
  // node_count is max id + 1, which would overflow NodeId.
  EXPECT_NE(error_of("0,5,0,2147483647\n").find("trace:1:"),
            std::string::npos);
  EXPECT_NE(error_of("0,5,0,2147483647\n").find("node id too large"),
            std::string::npos);
}

TEST(TraceIo, StrictModeRejectsTrailingFields) {
  const std::string with_extra = "1,2,0,1,99\n";
  EXPECT_EQ(read_csv(with_extra).size(), 1u);

  const std::string what = error_of(with_extra, true, "export.csv");
  EXPECT_NE(what.find("export.csv:1:"), std::string::npos) << what;
  EXPECT_NE(what.find("trailing characters"), std::string::npos) << what;
}

}  // namespace
}  // namespace dtn
