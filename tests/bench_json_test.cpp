// Tests for the bench JSON artifact layer (bench/bench_json.h): stage
// timing/percentile records, work-unit derivation from instrumentation
// counter deltas, schema shape of the emitted document, string escaping,
// and the --json file round-trip consumed by tools/bench_compare.py.
#include "bench/bench_json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/instrument.h"

namespace dtn::bench {
namespace {

BenchArgs make_args(int reps) {
  BenchArgs args;
  args.reps = reps;
  args.threads = 1;
  return args;
}

TEST(BenchJsonTest, StageRecordsRepsAndOrderedPercentiles) {
  JsonReport report("unit_test", make_args(5));
  int calls = 0;
  report.stage("work", [&] { ++calls; });
  EXPECT_EQ(calls, 5);  // reps=0 default resolves to --reps
  ASSERT_EQ(report.stages().size(), 1u);
  const StageRecord& s = report.stages()[0];
  EXPECT_EQ(s.name, "work");
  EXPECT_EQ(s.reps, 5);
  EXPECT_LE(s.p10_ns, s.median_ns);
  EXPECT_LE(s.median_ns, s.p90_ns);
  EXPECT_EQ(s.unit_counter, "");
  EXPECT_DOUBLE_EQ(s.work_units_per_rep, 1.0);
}

TEST(BenchJsonTest, WorkUnitsDerivedFromCounterDelta) {
  // Direct add() works in both instrumentation modes, so this test does
  // not depend on DTN_INSTRUMENT.
  JsonReport report("unit_test", make_args(4));
  report.stage(
      "dp",
      [] { instrument::add(instrument::Counter::kKnapsackDpCells, 250); },
      "knapsack_dp_cells");
  const StageRecord& s = report.stages()[0];
  EXPECT_EQ(s.unit_counter, "knapsack_dp_cells");
  EXPECT_DOUBLE_EQ(s.work_units_per_rep, 250.0);  // 1000 units / 4 reps
  // The per-stage counter deltas only list counters that moved.
  bool found = false;
  for (const auto& row : s.counters) {
    if (row.name == "knapsack_dp_cells") {
      EXPECT_EQ(row.value, 1000u);
      found = true;
    }
    EXPECT_NE(row.value, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(BenchJsonTest, MissingUnitCounterFallsBackToPerCall) {
  JsonReport report("unit_test", make_args(2));
  report.stage("idle", [] {}, "dijkstra_relaxations");
  // The named counter never moved: gate per call instead of dividing by 0.
  EXPECT_DOUBLE_EQ(report.stages()[0].work_units_per_rep, 1.0);
}

TEST(BenchJsonTest, ExplicitRepsOverrideArgsDefault) {
  JsonReport report("unit_test", make_args(7));
  int calls = 0;
  report.stage("once", [&] { ++calls; }, "", 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(report.stages()[0].reps, 1);
}

TEST(BenchJsonTest, JsonDocumentHasSchemaFields) {
  JsonReport report("schema_probe", make_args(2));
  report.stage(
      "stage \"one\"",
      [] {
        instrument::add(instrument::Counter::kExperimentRepetitions, 10);
      },
      "experiment_repetitions");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"schema_probe\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"stages\": ["), std::string::npos);
  EXPECT_NE(json.find("\"median_ns\": "), std::string::npos);
  EXPECT_NE(json.find("\"work_units_per_rep\": "), std::string::npos);
  // Stage names pass through the escaper.
  EXPECT_NE(json.find("stage \\\"one\\\""), std::string::npos);
  // Braces and brackets balance — cheap structural sanity; the Python side
  // (bench_compare ctest entries) does the strict parse.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(BenchJsonTest, WriteIfRequestedRoundTrips) {
  const std::string path = ::testing::TempDir() + "/bench_json_test.json";
  BenchArgs args = make_args(2);
  args.json = path;
  JsonReport report("round_trip", args);
  report.stage("s", [] {});
  ASSERT_TRUE(report.write_if_requested());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), report.to_json());
  std::remove(path.c_str());
}

TEST(BenchJsonTest, WriteWithoutPathIsANoOpSuccess) {
  JsonReport report("no_path", make_args(1));
  EXPECT_TRUE(report.write_if_requested());
}

TEST(BenchJsonTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace dtn::bench
