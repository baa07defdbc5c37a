#!/usr/bin/env bash
# Staged verification pipeline. Every stage is recorded; the script prints a
# per-stage summary table at the end and exits non-zero if ANY stage failed.
#
#   tools/verify.sh                full: tier-1 + dtnlint + clang-tidy +
#                                  TSan/ASan/UBSan + bench
#   tools/verify.sh --fast         skip the sanitizer and bench rebuilds
#                                  (local iteration)
#   tools/verify.sh --no-tsan      legacy flag: skip only the TSan stage
#   tools/verify.sh --stage NAME   run exactly one stage (CI matrix jobs); NAME in
#                                  tier-1|dtnlint|clang-tidy|tsan|asan|ubsan|bench
#
# Stages (see "Verification matrix" in README.md for what each one catches):
#   tier-1      default (RelWithDebInfo) build with -Werror + the full
#               ctest suite
#   dtnlint     the static-analysis engine (tools/dtnlint): all rules over
#               src/ + tools/*.cpp with the allowlist staleness audit, plus
#               its fixture self-test (per-rule good/bad + legacy fixtures)
#   clang-tidy  .clang-tidy over every TU (skipped when clang-tidy is absent)
#   tsan        -fsanitize=thread over the parallel-layer tests
#   asan        -fsanitize=address over the full ctest suite
#   ubsan       -fsanitize=undefined over the full ctest suite
#   bench       Release build with -Werror into build-bench/ (-O3 reports
#               warnings the tier-1 build does not) + the same-host ratio
#               gates ctest does not run (bench_paths 3x, bench_engine 2x,
#               bench_daemon 3x), each passing when the best of three runs
#               clears its floor; skipped, and reported as skipped, on a
#               host with fewer than 2 cores (bench_min_cores)
#
# CI behavior: fully headless (never prompts, stdin unused). Parallelism
# honors CMAKE_BUILD_PARALLEL_LEVEL / CTEST_PARALLEL_LEVEL when set (CI
# runners often advertise more cores than the job may use), falling back to
# nproc. When GITHUB_ACTIONS=true, stages are wrapped in ::group:: markers
# and failures emit ::error:: annotations.
set -uo pipefail
cd "$(dirname "$0")/.."

fast=0
run_tsan=1
only_stage=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) fast=1 ;;
    --no-tsan) run_tsan=0 ;;
    --stage)
      [[ $# -ge 2 ]] || { echo "--stage needs a name" >&2; exit 2; }
      only_stage="$2"; shift ;;
    *)
      echo "usage: tools/verify.sh [--fast] [--no-tsan] [--stage NAME]" >&2
      exit 2 ;;
  esac
  shift
done

case "$only_stage" in
  ""|tier-1|dtnlint|clang-tidy|tsan|asan|ubsan|bench) ;;
  *) echo "unknown stage '$only_stage' (tier-1|dtnlint|clang-tidy|tsan|asan|ubsan|bench)" >&2
     exit 2 ;;
esac

# A wall-clock ratio measured on a host with a single core mostly measures
# whatever else runs there: the timed bench gets no core of its own.
bench_min_cores=2

# CI runners pin job parallelism via the standard CMake/CTest env knobs;
# locally we use every core. Both tools also read these env vars natively,
# but we thread an explicit -j so the value shows up in logs.
build_jobs="${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc)}"
test_jobs="${CTEST_PARALLEL_LEVEL:-$(nproc)}"
on_actions=0
[[ "${GITHUB_ACTIONS:-}" == "true" ]] && on_actions=1

stage_names=()
stage_results=()
overall=0

record() {  # record <name> <result: OK|FAIL|SKIP (reason)>
  stage_names+=("$1")
  stage_results+=("$2")
  if [[ "$2" == FAIL* ]]; then
    overall=1
    [[ "$on_actions" == 1 ]] && echo "::error title=verify stage failed::stage '$1' failed"
  fi
}

wanted() {  # wanted <name> -> 0 when the stage should run/report
  [[ -z "$only_stage" || "$only_stage" == "$1" ]]
}

run_stage() {  # run_stage <name> <function>
  wanted "$1" || return 0
  echo
  if [[ "$on_actions" == 1 ]]; then
    echo "::group::stage: $1"
  else
    echo "== stage: $1 =="
  fi
  if "$2" </dev/null; then
    record "$1" "OK"
  else
    record "$1" "FAIL"
  fi
  [[ "$on_actions" == 1 ]] && echo "::endgroup::"
}

probe_sanitizer() {  # probe_sanitizer <flag> -> 0 if toolchain can link it
  echo 'int main(){return 0;}' \
    | c++ "-fsanitize=$1" -x c++ - -o "/tmp/dtn_probe_$1" 2>/dev/null \
    && rm -f "/tmp/dtn_probe_$1"
}

sanitizer_stage() {  # sanitizer_stage <mode> <build-dir> [ctest -R regex]
  local mode="$1" dir="$2" filter="${3:-}"
  cmake -B "$dir" -S . -DDTN_SANITIZE="$mode" >/dev/null || return 1
  cmake --build "$dir" -j"$build_jobs" --target dtn_all_tests >/dev/null || return 1
  if [[ -n "$filter" ]]; then
    ctest --test-dir "$dir" --output-on-failure -j"$test_jobs" -R "$filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j"$test_jobs"
  fi
}

stage_tier1() {
  cmake -B build -S . -DDTN_WERROR=ON >/dev/null || return 1
  cmake --build build -j"$build_jobs" >/dev/null || return 1
  ctest --test-dir build --output-on-failure -j"$test_jobs"
}

stage_dtnlint() {
  python3 tools/dtnlint --self-test tests/lint || return 1
  python3 tools/dtnlint --audit-allowlist
}

stage_clang_tidy() {
  # A separate build tree: CMAKE_CXX_CLANG_TIDY changes every compile
  # command, so sharing build/ would force a full rebuild both ways.
  cmake -B build-tidy -S . -DDTN_CLANG_TIDY=ON >/dev/null || return 1
  # --warnings-as-errors=* in the cmake wiring turns any unsuppressed
  # finding into a compile error, so a green build means zero findings.
  cmake --build build-tidy -j"$build_jobs" >/dev/null
}

stage_tsan() {
  # The tests that hammer the thread pool: proving "parallel == serial
  # bit-for-bit" is only meaningful if the parallel path is also race-free.
  # Engine covers the lane replay's cells, Instrument the per-thread
  # registry.
  sanitizer_stage thread build-tsan \
    'ResolveThreads|ParallelFor|ParallelMap|ParallelReduce|DeriveSeed|ThreadPool|Determinism|Sweep|PathGolden|EngineGolden|GoldenFixture|Daemon|Engine|Instrument'
}

stage_asan() { sanitizer_stage address build-asan; }
stage_ubsan() { sanitizer_stage undefined build-ubsan; }

bench_gate() {  # bench_gate <bench> <floor> <args...>: best of three runs
  local bench="$1" floor="$2" run out
  shift 2
  for run in 1 2 3; do
    out=$("build-bench/bench/$bench" "$@" --min-speedup "$floor" 2>&1) && {
      echo "$bench: run $run cleared ${floor}x: $(grep -i 'speedup' <<<"$out" | tail -n 1)"
      return 0
    }
    echo "$bench: run $run below ${floor}x or failed: $(tail -n 1 <<<"$out")"
  done
  return 1
}

stage_bench() {
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DDTN_WERROR=ON \
    >/dev/null || return 1
  cmake --build build-bench -j"$build_jobs" \
    --target bench_paths bench_engine bench_daemon >/dev/null || return 1
  local status=0
  # The same configurations CI's bench-smoke job gates.
  bench_gate bench_paths 3 --reps 3 || status=1
  bench_gate bench_engine 2 --reps 3 || status=1
  bench_gate bench_daemon 3 --fast --reps 3 || status=1
  return "$status"
}

run_stage "tier-1" stage_tier1

if wanted "dtnlint"; then
  if command -v python3 >/dev/null 2>&1; then
    run_stage "dtnlint" stage_dtnlint
  else
    record "dtnlint" "SKIP (no python3)"
  fi
fi

if wanted "clang-tidy"; then
  if command -v clang-tidy >/dev/null 2>&1; then
    run_stage "clang-tidy" stage_clang_tidy
  else
    record "clang-tidy" "SKIP (no clang-tidy on PATH)"
  fi
fi

# --fast only suppresses sanitizer and bench stages that were not explicitly
# requested: `--stage asan --fast` still runs ASan.
rebuilds_wanted=1
if [[ "$fast" == 1 && -z "$only_stage" ]]; then
  record "tsan" "SKIP (--fast)"
  record "asan" "SKIP (--fast)"
  record "ubsan" "SKIP (--fast)"
  record "bench" "SKIP (--fast)"
  rebuilds_wanted=0
fi

if [[ "$rebuilds_wanted" == 1 ]]; then
  if wanted "tsan"; then
    if [[ "$run_tsan" == 0 ]]; then
      record "tsan" "SKIP (--no-tsan)"
    elif probe_sanitizer thread; then
      run_stage "tsan" stage_tsan
    else
      record "tsan" "SKIP (toolchain cannot link -fsanitize=thread)"
    fi
  fi
  if wanted "asan"; then
    if probe_sanitizer address; then
      run_stage "asan" stage_asan
    else
      record "asan" "SKIP (toolchain cannot link -fsanitize=address)"
    fi
  fi
  if wanted "ubsan"; then
    if probe_sanitizer undefined; then
      run_stage "ubsan" stage_ubsan
    else
      record "ubsan" "SKIP (toolchain cannot link -fsanitize=undefined)"
    fi
  fi
fi

if [[ "$rebuilds_wanted" == 1 ]] && wanted "bench"; then
  host_cores=$(nproc)
  if [[ "$host_cores" -lt "$bench_min_cores" ]]; then
    record "bench" "SKIP (host has $host_cores core(s); the ratio gates need $bench_min_cores)"
  else
    run_stage "bench" stage_bench
  fi
fi

echo
echo "== verify summary =="
printf '%-12s %s\n' "stage" "result"
printf '%-12s %s\n' "-----" "------"
for i in "${!stage_names[@]}"; do
  printf '%-12s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
done

if [[ "$overall" != 0 ]]; then
  echo "verify: FAILED"
  exit 1
fi
echo "verify: OK"
