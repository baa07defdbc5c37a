// Tests for the trace ingestion subsystem (src/traceio/): golden fixture
// parses for every reader, lossless .dtntrace round-trips (including the
// degenerate empty, single-contact and duplicate-timestamp shapes),
// corruption rejection, loads that write nothing, and the shared-trace
// sweep determinism contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "experiment/sweep.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "traceio/binary.h"
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

// ---- binary format ----------------------------------------------------

ContactTrace awkward_trace() {
  // Values chosen to stress the XOR-delta codec: denormals, huge exponents,
  // long mantissas, equal starts, adjacent node pairs.
  std::vector<ContactEvent> events;
  events.push_back({0.0, 5e-324, 0, 9});
  events.push_back({0.1, 1.0 / 3.0, 2, 3});
  events.push_back({0.1, 0.30000000000000004, 3, 4});
  events.push_back({12345.678901234567, 1e300, 0, 1});
  events.push_back({12345.678901234568, 0.0, 7, 8});
  return ContactTrace(10, std::move(events), "awkward");
}

TEST(TraceioBinary, RoundTripPreservesEveryBit) {
  const ContactTrace trace = awkward_trace();
  std::ostringstream out;
  traceio::write_trace_binary(trace, out);
  const ContactTrace back =
      traceio::read_trace_binary(out.str(), "mem.dtntrace");
  EXPECT_EQ(back.name(), trace.name());
  EXPECT_EQ(back.node_count(), trace.node_count());
  EXPECT_EQ(back.events(), trace.events());
}

TEST(TraceioBinary, CsvToBinaryToCsvIsByteIdentical) {
  const std::string path = kFixtures + "/sample.csv";
  const ContactTrace parsed = traceio::load_trace_any(path);
  std::ostringstream binary;
  traceio::write_trace_binary(parsed, binary);
  const ContactTrace back =
      traceio::read_trace_binary(binary.str(), "mem.dtntrace");
  EXPECT_EQ(csv_bytes(back), slurp(path));
}

TEST(TraceioBinary, HeaderMetadataMatchesTrace) {
  const ContactTrace trace = awkward_trace();
  std::ostringstream out;
  traceio::write_trace_binary(trace, out);
  const traceio::BinaryTraceMeta meta =
      traceio::read_binary_header(out.str(), "mem.dtntrace");
  EXPECT_EQ(meta.version, traceio::kBinaryVersion);
  EXPECT_EQ(meta.node_count, trace.node_count());
  EXPECT_EQ(meta.contact_count, trace.size());
  EXPECT_EQ(meta.name, "awkward");
  EXPECT_DOUBLE_EQ(meta.start_time, trace.start_time());
  EXPECT_DOUBLE_EQ(meta.end_time, trace.end_time());
  // Bytes 48..63 are reserved and written as zero.
  EXPECT_EQ(out.str().substr(48, 16), std::string(16, '\0'));
}

TEST(TraceioBinary, RejectsCorruptionEverywhere) {
  std::ostringstream out;
  traceio::write_trace_binary(awkward_trace(), out);
  const std::string good = out.str();

  auto expect_rejected = [](const std::string& bytes, const char* what) {
    EXPECT_THROW(traceio::read_trace_binary(bytes, "corrupt.dtntrace"),
                 std::runtime_error)
        << what;
  };

  expect_rejected(good.substr(0, 4), "truncated inside the magic");
  expect_rejected(good.substr(0, 40), "truncated inside the header");
  expect_rejected(good.substr(0, good.size() - 2), "truncated records");
  expect_rejected(good + "x", "trailing garbage");

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, "wrong magic");

  std::string bad_version = good;
  bad_version[8] = 99;
  expect_rejected(bad_version, "unsupported version");

  std::string bad_endian = good;
  std::swap(bad_endian[12], bad_endian[15]);
  expect_rejected(bad_endian, "byte-swapped endian tag");

  std::string bad_payload = good;
  bad_payload.back() = static_cast<char>(bad_payload.back() ^ 0x40);
  expect_rejected(bad_payload, "flipped payload bit");
}

/// One encoded record from its raw fields (binary.h: XOR-ed start and
/// duration bits, zigzag a delta, b - a - 1).
std::string record_bytes(std::uint64_t start_xor, std::uint64_t duration_xor,
                         std::int64_t a_delta, std::uint64_t b_gap) {
  auto varint = [](std::uint64_t v) {
    std::string out;
    for (; v >= 0x80u; v >>= 7) out.push_back(static_cast<char>(v | 0x80u));
    out.push_back(static_cast<char>(v));
    return out;
  };
  auto byteswap = [](std::uint64_t v) {
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i, v >>= 8) out = (out << 8) | (v & 0xffu);
    return out;
  };
  const auto zigzag = static_cast<std::uint64_t>((a_delta << 1) ^
                                                 (a_delta >> 63));
  return varint(byteswap(start_xor)) + varint(byteswap(duration_xor)) +
         varint(zigzag) + varint(b_gap);
}

TEST(TraceioBinary, RejectsEveryMalformedRecord) {
  // The header of an empty 10-node trace, patched to announce `count`
  // records and the payload's true checksum, so that only the named record
  // check can reject the file.
  std::ostringstream header_out;
  traceio::write_trace_binary(ContactTrace(10, {}, "raw"), header_out);
  auto with_payload = [&](std::uint64_t count, const std::string& payload) {
    std::string bytes = header_out.str();
    const std::uint64_t checksum =
        traceio::fnv1a(payload.data(), payload.size());
    for (int i = 0; i < 8; ++i) {
      bytes[24 + i] = static_cast<char>((count >> (8 * i)) & 0xffu);
      bytes[64 + i] = static_cast<char>((checksum >> (8 * i)) & 0xffu);
    }
    return bytes + payload;
  };
  const std::uint64_t minus_one = std::bit_cast<std::uint64_t>(-1.0);
  const std::uint64_t nan = std::bit_cast<std::uint64_t>(std::nan(""));
  const struct {
    std::uint64_t count;
    std::string payload;
    const char* error;
  } cases[] = {
      {1, std::string(10, '\xff'), "overlong varint"},
      {1, record_bytes(0, 0, -1, 0), "node outside [0, N)"},   // a = -1
      {1, record_bytes(0, 0, 0, 20), "node outside [0, N)"},   // b = 21
      // Deltas large enough to overflow a signed 64-bit addition, and a
      // gap that wraps to -3 (b = 3 < a = 5).
      {2, record_bytes(0, 0, 1, 0) + record_bytes(0, 0, INT64_MAX, 0),
       "node outside [0, N)"},
      {1, record_bytes(0, 0, 1, INT64_MAX), "node outside [0, N)"},
      {1, record_bytes(0, 0, 5, UINT64_MAX - 2), "node outside [0, N)"},
      {1, record_bytes(0, minus_one, 0, 0), "negative duration"},
      {1, record_bytes(nan, 0, 0, 0), "non-finite time"},
      {1, record_bytes(0, nan, 0, 0), "non-finite time"},
      // A count no payload this size can hold must fail before it sizes
      // an allocation.
      {std::uint64_t{1} << 40, record_bytes(0, 0, 0, 0),
       "more than the payload holds"},
      {2, record_bytes(0, 0, 1, 0) + record_bytes(0, 0, -1, 0),
       "not sorted"},  // (1, 2) then (0, 1) at the same instant
  };
  for (const auto& c : cases) {
    try {
      traceio::read_trace_binary(with_payload(c.count, c.payload),
                                 "raw.dtntrace");
      ADD_FAILURE() << "accepted a record that should fail: " << c.error;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.error), std::string::npos)
          << error.what();
    }
  }
}

/// write_trace_binary then read_trace_binary, in memory.
ContactTrace binary_round_trip(const ContactTrace& trace) {
  std::ostringstream out;
  traceio::write_trace_binary(trace, out);
  return traceio::read_trace_binary(out.str(), "mem.dtntrace");
}

TEST(TraceioBinary, EmptyTraceRoundTrips) {
  const ContactTrace empty(4, {}, "empty");
  const ContactTrace back = binary_round_trip(empty);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.node_count(), 4);
  EXPECT_EQ(back.name(), "empty");
}

TEST(TraceioBinary, SingleContactTraceRoundTrips) {
  std::vector<ContactEvent> events;
  events.push_back({42.5, 7.0, 1, 3});
  const ContactTrace one(5, events, "one");
  const ContactTrace back = binary_round_trip(one);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.events()[0], one.events()[0]);
  EXPECT_EQ(back.node_count(), 5);
}

TEST(TraceioBinary, DuplicateTimestampsRoundTripInCanonicalPairOrder) {
  // Several contacts at the same instant (one crowded room): the binary
  // writer stores them in ContactEventOrder and the decoder must hand them
  // back in exactly that order — the daemon's estimator treats a repeated
  // (pair, time) as one physical meeting, which only works if duplicates
  // arrive adjacent, not shuffled.
  std::vector<ContactEvent> events;
  events.push_back({100.0, 5.0, 2, 3});
  events.push_back({100.0, 5.0, 0, 1});
  events.push_back({100.0, 5.0, 0, 1});  // exact duplicate record
  events.push_back({100.0, 5.0, 1, 2});
  events.push_back({250.0, 5.0, 0, 1});
  const ContactTrace trace(4, events, "dups");  // ctor sorts canonically
  const ContactTrace back = binary_round_trip(trace);
  ASSERT_EQ(back.size(), 5u);
  EXPECT_EQ(back.events(), trace.events());
  EXPECT_EQ(back.events()[0], back.events()[1]);  // the duplicate survived
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

// ---- loads write nothing ----------------------------------------------

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

// ---- shared trace across sweeps --------------------------------------

TEST(TraceioShared, SweepCsvIsByteIdenticalAcrossThreadCounts) {
  SyntheticTraceConfig config;
  config.node_count = 16;
  config.duration = days(8);
  config.target_total_contacts = 3000;
  config.seed = 3;
  const auto trace =
      std::make_shared<const ContactTrace>(generate_trace(config));

  SweepConfig sweep;
  sweep.base.avg_lifetime = days(1);
  sweep.base.avg_data_size = megabits(40);
  sweep.base.ncl_count = 2;
  sweep.base.repetitions = 1;
  sweep.base.sim.maintenance_interval = hours(12);
  sweep.schemes = {SchemeKind::kNclCache, SchemeKind::kNoCache};
  sweep.lifetimes = {hours(12), days(1)};
  sweep.ncl_counts = {1, 2};

  sweep.threads = 1;
  const std::string serial = sweep_to_csv(run_sweep(trace, sweep));
  sweep.threads = 8;
  const std::string parallel = sweep_to_csv(run_sweep(trace, sweep));
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(TraceioShared, NullSharedTraceThrows) {
  std::shared_ptr<const ContactTrace> null_trace;
  SweepConfig sweep;
  EXPECT_THROW(run_sweep(null_trace, sweep), std::invalid_argument);
  ExperimentConfig config;
  EXPECT_THROW(run_experiment(null_trace, SchemeKind::kNoCache, config),
               std::invalid_argument);
  EXPECT_THROW(run_comparison(null_trace, {SchemeKind::kNoCache}, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace dtn
