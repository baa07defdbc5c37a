# Command-line contract of dtnd: a malformed numeric flag, an invalid
# config value, an unknown flag or an unknown preset name exits 2 with a
# message on stderr, never aborts and never reads garbage as 0; well-formed
# values and every preset name still run.
#
# Usage: cmake -DDTND=path/to/dtnd -P tests/dtnd_bad_flags.cmake
if(NOT DTND)
  message(FATAL_ERROR "pass -DDTND=path/to/dtnd")
endif()

set(small --synthetic infocom05)

foreach(bad IN ITEMS "--threads abc" "--warm-frac 2" "--warm-frac abc"
                     "--max-hops x" "--threads -1" "--drift 0"
                     "--interval -5" "--bogus 1" "--synthetic mit")
  separate_arguments(args UNIX_COMMAND "${bad}")
  execute_process(COMMAND ${DTND} ${small} ${args}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "2" OR err STREQUAL "" OR err MATCHES "terminate")
    message(SEND_ERROR "dtnd ${bad}: want exit 2 and a message, "
                       "got exit '${code}', stderr: ${err}")
  endif()
endforeach()

execute_process(COMMAND ${DTND} ${small} --warm-frac 0.6 --horizon 1800
                        --max-hops 6 --drift 0.3 --interval 7200 --alpha 0.2
                        --expiry 86400 --threads 2 --stats
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "0" OR NOT out MATCHES "daemon: epoch")
  message(SEND_ERROR "dtnd with valid numeric flags: exit '${code}', "
                     "stderr: ${err}")
endif()

# The presets go by the lower-cased names of all_presets(), as in dtnsim.
execute_process(COMMAND ${DTND} --synthetic mitreality --warm-frac 1 --stats
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "0" OR NOT out MATCHES "daemon: epoch")
  message(SEND_ERROR "dtnd --synthetic mitreality: exit '${code}', "
                     "stderr: ${err}")
endif()
