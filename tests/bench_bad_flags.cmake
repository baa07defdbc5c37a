# Command-line contract of the ratio-gated benches' --min-speedup flag: a
# missing, malformed, negative or non-finite floor exits 2 with a message
# on stderr before any measurement runs, instead of silently turning the
# gate off or reading a prefix of the token.
#
# Usage: cmake -DBENCH=path/to/bench_traceio -P tests/bench_bad_flags.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=path/to/a --min-speedup bench")
endif()

foreach(bad IN ITEMS "--min-speedup abc" "--min-speedup 1e3x"
                     "--min-speedup -1" "--min-speedup inf"
                     "--min-speedup nan" "--fast --min-speedup")
  separate_arguments(args UNIX_COMMAND "${bad}")
  execute_process(COMMAND ${BENCH} ${args}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "2" OR err STREQUAL "" OR err MATCHES "terminate")
    message(SEND_ERROR "${BENCH} ${bad}: want exit 2 and a message, "
                       "got exit '${code}', stderr: ${err}")
  endif()
endforeach()
