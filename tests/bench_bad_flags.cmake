# Command-line contract of the benches' numeric flags. The ratio-gated
# benches' --min-speedup and every bench's --reps, --days and --threads
# (bench/bench_util.h's BenchArgs) exit 2 with a message on stderr before
# any measurement runs when the value is missing, malformed or out of range
# (reps < 1, threads < 0, days or floors negative or not finite), instead
# of aborting, silently turning a gate off or reading a prefix of the token.
#
# Usage: cmake -DBENCH=path/to/bench_daemon
#              -DARGS_BENCH=path/to/bench_fig13_ncl_count
#              -P tests/bench_bad_flags.cmake
if(NOT BENCH OR NOT ARGS_BENCH)
  message(FATAL_ERROR "pass -DBENCH=path/to/a --min-speedup bench and "
                      "-DARGS_BENCH=path/to/a figure bench")
endif()

function(expect_usage_error bench bad)
  separate_arguments(args UNIX_COMMAND "${bad}")
  execute_process(COMMAND ${bench} ${args}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "2" OR err STREQUAL "" OR err MATCHES "terminate")
    message(SEND_ERROR "${bench} ${bad}: want exit 2 and a message, "
                       "got exit '${code}', stderr: ${err}")
  endif()
endfunction()

foreach(bad IN ITEMS "--min-speedup abc" "--min-speedup 1e3x"
                     "--min-speedup -1" "--min-speedup inf"
                     "--min-speedup nan" "--fast --min-speedup")
  expect_usage_error(${BENCH} "${bad}")
endforeach()

foreach(bad IN ITEMS "--fast --reps abc" "--fast --reps 0" "--fast --reps 2x"
                     "--fast --days 1x" "--fast --days -1" "--fast --days inf"
                     "--fast --days nan" "--fast --threads abc"
                     "--fast --threads -1" "--days 1x --threads abc")
  expect_usage_error(${ARGS_BENCH} "${bad}")
endforeach()
