# Command-line contract of dtnsim: a malformed numeric flag, an invalid
# config value, an empty scheme name or an unknown flag exits 2 with a
# message on stderr, never aborts and never reads garbage as 0; well-formed
# values still run. A trace name that is neither a preset nor a readable
# file exits 1 with a message.
#
# Usage: cmake -DDTNSIM=path/to/dtnsim -P tests/dtnsim_bad_flags.cmake
if(NOT DTNSIM)
  message(FATAL_ERROR "pass -DDTNSIM=path/to/dtnsim")
endif()

set(small --trace infocom05 --days 0.5 --scheme nocache --threads 1)

# "--scheme ," and "--scheme ncl,,nocache" hold an empty scheme name. The
# last seven are deleted flags: a script that still passes one must fail
# instead of running.
foreach(bad IN ITEMS "--reps 0" "--k 0" "--k abc" "--reps 2x" "--threads abc"
                     "--days abc" "--seed abc" "--seed -1" "--zipf 1.0.0"
                     "--scheme ," "--scheme ncl,,nocache"
                     "--shards 2" "--metric-engine fast" "--landmarks 0"
                     "--weight-floor 0" "--metric-seed 1" "--no-trace-cache"
                     "--nodes 10")
  separate_arguments(args UNIX_COMMAND "${bad}")
  execute_process(COMMAND ${DTNSIM} ${small} ${args}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "2" OR err STREQUAL "" OR err MATCHES "terminate")
    message(SEND_ERROR "dtnsim ${bad}: want exit 2 and a message, "
                       "got exit '${code}', stderr: ${err}")
  endif()
endforeach()

# "rwp" named the deleted random-waypoint generator: it is now read as a
# trace file name, which does not exist.
execute_process(COMMAND ${DTNSIM} ${small} --trace rwp
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "1" OR NOT err MATCHES "cannot build trace 'rwp'"
   OR err MATCHES "terminate")
  message(SEND_ERROR "dtnsim --trace rwp: want exit 1 and 'cannot build "
                     "trace', got exit '${code}', stderr: ${err}")
endif()

execute_process(COMMAND ${DTNSIM} ${small} --reps 1 --k 2 --seed 7
                        --tl-hours 2.5 --size-mb 50 --zipf 1.2
                        --miss-prob 0.1 --csv
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "0" OR NOT out MATCHES "^scheme,")
  message(SEND_ERROR "dtnsim with valid numeric flags: exit '${code}', "
                     "stderr: ${err}")
endif()
