# Command-line contract of tracetool: an argument that starts with "--" and
# is not a known flag (a typo, or the deleted --format), a missing operand
# or an unknown command exits 2 with a message on stderr and writes no
# file; well-formed calls still run.
#
# Usage: cmake -DTRACETOOL=path/to/tracetool -DFIXTURES=dir -DWORK_DIR=dir
#              -P tests/tracetool_bad_flags.cmake
if(NOT TRACETOOL OR NOT FIXTURES OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DTRACETOOL, -DFIXTURES and -DWORK_DIR")
endif()

# Every case runs in an empty directory, so a flag taken as an output file
# name would show up there.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(one "${FIXTURES}/sample_one.txt")

# Each case: the arguments, then the text its stderr must contain.
foreach(case IN ITEMS "convert ${one} --strcit|--strcit"
                      "stats ${one} --format csv|--format"
                      "convert ${one}|usage"
                      "frobnicate ${one}|unknown command 'frobnicate'")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 command)
  list(GET parts 1 want)
  separate_arguments(args UNIX_COMMAND "${command}")
  execute_process(COMMAND ${TRACETOOL} ${args} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${want}" at)
  if(NOT code STREQUAL "2" OR at EQUAL -1)
    message(SEND_ERROR "tracetool ${command}: want exit 2 and '${want}' on "
                       "stderr, got exit '${code}', stderr: ${err}")
  endif()
endforeach()

file(GLOB left "${WORK_DIR}/*")
if(left)
  message(SEND_ERROR "rejected calls left files behind: ${left}")
endif()

execute_process(COMMAND ${TRACETOOL} stats ${FIXTURES}/sample.csv --strict
                        --pairs
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "0" OR NOT out MATCHES "contacts")
  message(SEND_ERROR "tracetool stats --strict --pairs: exit '${code}', "
                     "stderr: ${err}")
endif()
