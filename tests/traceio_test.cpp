// Tests for the trace ingestion subsystem (src/traceio/): golden fixture
// parses for every reader, strict-mode diagnostics, content sniffing that
// ignores the file name, loads that write nothing, and the shared-trace
// comparison's null check.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "experiment/experiment.h"
#include "trace/trace_io.h"
#include "traceio/cache.h"
#include "traceio/reader.h"

namespace dtn {
namespace {

namespace fs = std::filesystem;

const std::string kFixtures = DTN_TRACE_FIXTURE_DIR;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string csv_bytes(const ContactTrace& trace) {
  std::ostringstream out;
  write_trace_csv(trace, out);
  return out.str();
}

/// Unique scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) /
             ("traceio_" + tag + "_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)))) {
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

// ---- golden fixture parses -------------------------------------------

TEST(TraceioFixtures, CsvGoldenRoundTripsByteIdentical) {
  const std::string path = kFixtures + "/sample.csv";
  const ContactTrace trace = traceio::load_trace_any(path);
  EXPECT_EQ(trace.node_count(), 6);
  EXPECT_EQ(trace.size(), 12u);
  EXPECT_EQ(trace.name(), "sample");
  // The fixture was authored in write_trace_csv's own rendering, so parse +
  // re-serialize must reproduce the file exactly.
  EXPECT_EQ(csv_bytes(trace), slurp(path));
}

TEST(TraceioFixtures, OneReportGolden) {
  const ContactTrace trace =
      traceio::load_trace_any(kFixtures + "/sample_one.txt");
  // Raw hosts {10, 20, 30, 40} -> dense {0, 1, 2, 3}; the link opened at
  // t=300 and never closed ends at the last timestamp seen (330).
  const std::vector<ContactEvent> expected = {
      {0.0, 60.0, 0, 1},  {30.0, 120.0, 1, 3}, {200.0, 60.0, 0, 3},
      {300.0, 30.0, 0, 2}, {310.0, 20.0, 1, 3},
  };
  EXPECT_EQ(trace.node_count(), 4);
  EXPECT_EQ(trace.events(), expected);
}

TEST(TraceioFixtures, ImoteLogGolden) {
  const ContactTrace trace =
      traceio::load_trace_any(kFixtures + "/sample_imote.txt");
  // Devices {101, 105, 107, 109} -> {0, 1, 2, 3}; the two overlapping
  // (101, 105) sightings merge; the earliest start (1000) becomes t = 0.
  const std::vector<ContactEvent> expected = {
      {0.0, 100.0, 0, 1},
      {5.0, 20.0, 2, 3},
      {200.0, 30.0, 0, 2},
      {500.0, 20.0, 2, 3},
  };
  EXPECT_EQ(trace.node_count(), 4);
  EXPECT_EQ(trace.events(), expected);
}

TEST(TraceioFixtures, FormatSniffingPicksTheRightReader) {
  using traceio::detect_reader;
  const auto* csv = detect_reader(slurp(kFixtures + "/sample.csv"));
  const auto* one = detect_reader(slurp(kFixtures + "/sample_one.txt"));
  const auto* imote = detect_reader(slurp(kFixtures + "/sample_imote.txt"));
  ASSERT_NE(csv, nullptr);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(imote, nullptr);
  EXPECT_STREQ(csv->format_name(), "csv");
  EXPECT_STREQ(one->format_name(), "one");
  EXPECT_STREQ(imote->format_name(), "imote");
}

TEST(TraceioFixtures, ForcedFormatOverridesSniffing) {
  traceio::LoadOptions options;
  options.format = "one";
  // A CSV file parsed as a ONE report must fail loudly, not silently.
  EXPECT_THROW(traceio::load_trace_any(kFixtures + "/sample.csv", options),
               std::runtime_error);
  options.format = "nonsense";
  EXPECT_THROW(traceio::load_trace_any(kFixtures + "/sample.csv", options),
               std::runtime_error);
}

// ---- strict mode and parse diagnostics -------------------------------

TEST(TraceioStrict, OneReaderRejectsIrregularitiesWithLineContext) {
  traceio::TraceReadOptions strict;
  strict.strict = true;
  const auto* one = traceio::reader_for_format("one");
  ASSERT_NE(one, nullptr);

  const std::string dup = "1 CONN 1 2 up\n2 CONN 2 1 up\n3 CONN 1 2 down\n";
  try {
    one->read(dup, "t", "dup.txt", strict);
    FAIL() << "duplicate up must throw in strict mode";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("dup.txt:2:"), std::string::npos)
        << error.what();
  }

  // Tolerant mode keeps the earlier start instead.
  const ContactTrace trace = one->read(dup, "t", "dup.txt", {});
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.events()[0].start, 1.0);
  EXPECT_DOUBLE_EQ(trace.events()[0].duration, 2.0);
}

TEST(TraceioStrict, ImoteReaderRejectsTrailingColumnsWithLineContext) {
  traceio::TraceReadOptions strict;
  strict.strict = true;
  const auto* imote = traceio::reader_for_format("imote");
  ASSERT_NE(imote, nullptr);

  const std::string extra = "1 2 10 20\n3 4 10 20 999\n";
  try {
    imote->read(extra, "t", "log.txt", strict);
    FAIL() << "trailing column must throw in strict mode";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("log.txt:2:"), std::string::npos)
        << error.what();
  }
  // Tolerated otherwise (real exports carry RSSI columns and the like).
  EXPECT_EQ(imote->read(extra, "t", "log.txt", {}).size(), 2u);
}

TEST(TraceioStrict, CsvRejectsOutOfOrderContactsOnlyInStrictMode) {
  const std::string csv =
      "start,duration,a,b\n"
      "100.0,5.0,0,1\n"
      "50.0,5.0,1,2\n";
  // Lenient parsing re-sorts (ContactTrace owns the order), so a shuffled
  // export still loads.
  const auto* reader = traceio::reader_for_format("csv");
  ASSERT_NE(reader, nullptr);
  const ContactTrace sorted = reader->read(csv, "shuffled", "shuffled", {});
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted.events()[0].start, 50.0);
  // Strict mode is the validation path for files a streaming consumer will
  // read without the re-sort: disorder must be a diagnosed error.
  traceio::TraceReadOptions strict;
  strict.strict = true;
  try {
    reader->read(csv, "shuffled", "shuffled", strict);
    FAIL() << "out-of-order row must throw in strict mode";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(":3:"), std::string::npos) << what;
    EXPECT_NE(what.find("backwards"), std::string::npos) << what;
  }
}

// ---- loads: content decides the reader, and nothing is written -------

TEST(TraceioLoad, ExtensionDoesNotChooseTheReader) {
  // Only the content is sniffed: CSV bytes named *.dtntrace load as CSV,
  // and "binary" is no format a caller can force.
  ScratchDir dir("extension");
  const std::string path = dir.file("trace.dtntrace");
  {
    std::ofstream out(path, std::ios::binary);
    out << slurp(kFixtures + "/sample.csv");
  }
  const ContactTrace trace = traceio::load_trace_any(path);
  EXPECT_EQ(trace.name(), "trace");
  EXPECT_EQ(csv_bytes(trace), slurp(kFixtures + "/sample.csv"));
  traceio::LoadOptions binary;
  binary.format = "binary";
  EXPECT_THROW(traceio::load_trace_any(path, binary), std::runtime_error);
}

TEST(TraceioLoad, LeavesTheInputDirectoryUnchanged) {
  ScratchDir dir("load");
  const std::string csv = dir.file("trace.csv");
  save_trace_csv(traceio::load_trace_any(kFixtures + "/sample.csv"), csv);
  const ContactTrace trace = traceio::load_trace_any(csv);
  EXPECT_EQ(trace.size(), 12u);
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"trace.csv"});
}

// ---- shared trace -----------------------------------------------------

TEST(TraceioShared, NullSharedTraceThrows) {
  std::shared_ptr<const ContactTrace> null_trace;
  ExperimentConfig config;
  EXPECT_THROW(run_comparison(null_trace, {SchemeKind::kNoCache}, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace dtn
