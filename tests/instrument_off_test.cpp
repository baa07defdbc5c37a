// Compiled with DTN_INSTRUMENT_OFF defined for this translation unit only
// (see tests/CMakeLists.txt): proves the macro layer erases to true no-ops
// — the registry does not move, no matter what the rest of the build does —
// while the registry API itself stays linkable and functional. This is the
// contract that makes -DDTN_INSTRUMENT=OFF a zero-overhead switch: call
// sites vanish at preprocessing time, not behind a runtime branch.
#ifndef DTN_INSTRUMENT_OFF
#define DTN_INSTRUMENT_OFF
#endif

#include "common/instrument.h"

#include <gtest/gtest.h>

namespace dtn::instrument {
namespace {

TEST(InstrumentOffTest, CountMacrosAreNoOps) {
  const StageStats before = snapshot();
  DTN_COUNT(kMaintenanceTicks);
  DTN_COUNT_N(kBufferEvictions, 1000);
  const StageStats delta = snapshot().delta_since(before);
  EXPECT_EQ(delta.counter("maintenance_ticks"), 0u);
  EXPECT_EQ(delta.counter("buffer_evictions"), 0u);
}

TEST(InstrumentOffTest, CountNDoesNotEvaluateItsArgument) {
  // The OFF expansion is ((void)0): a side-effecting count expression must
  // not run. This is what guarantees measurably-zero overhead.
  int evaluations = 0;
  auto count_work = [&]() -> int {
    ++evaluations;
    return 1;
  };
  DTN_COUNT_N(kExperimentRepetitions, count_work());
  // In this mode the macro erased the call above — count_work's only
  // remaining use is this direct one, proving the lambda itself works.
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(count_work(), 1);
  EXPECT_EQ(evaluations, 1);
}

TEST(InstrumentOffTest, ScopedTimerMacroIsANoOp) {
  const StageStats before = snapshot();
  {
    DTN_SCOPED_TIMER(kSimulation);
    DTN_SCOPED_TIMER(kSimulation);  // no redefinition: macro erases entirely
  }
  const StageStats delta = snapshot().delta_since(before);
  EXPECT_EQ(delta.timers[static_cast<std::size_t>(Timer::kSimulation)].calls,
            0u);
}

TEST(InstrumentOffTest, RegistryApiStillWorksDirectly) {
  // Tools (dtnsim --stats) and benches call the API unconditionally; only
  // the macro call sites are compiled out.
  const StageStats before = snapshot();
  add(Counter::kExperimentRepetitions, 3);
  add_time(Timer::kExperiment, 42);
  const StageStats delta = snapshot().delta_since(before);
  EXPECT_EQ(delta.counter("experiment_repetitions"), 3u);
  const std::size_t idx = static_cast<std::size_t>(Timer::kExperiment);
  EXPECT_EQ(delta.timers[idx].calls, 1u);
}

}  // namespace
}  // namespace dtn::instrument
