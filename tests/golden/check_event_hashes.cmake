# Pin the xkb::check event-stream hash (and the run summary) of a set of
# xkbsim_cli configurations that covers every data-path vocabulary value:
# the source policies, the source picks, the transfer kinds, the operand
# modes, fault recovery and a .tpo workload run.  A refactor that changes
# any of them changes a hash here.
#
# The golden file is its own configuration list: every line that starts
# with two hashes and a blank holds the arguments of one xkbsim_cli --check
# --hash run (@SRC@ expands to the source tree), and the lines up to the
# next such line are its expected stdout.
#
# Invoked by ctest:
#   cmake -DCLI=<xkbsim_cli> -DSRC=<source dir> -DGOLDEN=<file>
#         -DACTUAL=<output file> -P <this>
# ACTUAL receives the regenerated file; after an intentional change, review
# its diff against GOLDEN and copy it over.

cmake_minimum_required(VERSION 3.20)

file(READ "${GOLDEN}" golden)
string(FIND "${golden}" "\n## " first)
if(first LESS 0)
  message(FATAL_ERROR "${GOLDEN}: no configuration lines")
endif()
math(EXPR first "${first} + 1")
string(SUBSTRING "${golden}" 0 ${first} actual)
string(REGEX MATCHALL "\n## [^\n]*" headers "${golden}")

foreach(header IN LISTS headers)
  string(SUBSTRING "${header}" 1 -1 header)
  string(SUBSTRING "${header}" 3 -1 args)
  string(REPLACE "@SRC@" "${SRC}" args "${args}")
  separate_arguments(args UNIX_COMMAND "${args}")
  execute_process(
    COMMAND ${CLI} --check --hash ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${header}: exit ${rc}\n${out}${err}")
  endif()
  string(APPEND actual "${header}\n${out}")
endforeach()

file(WRITE "${ACTUAL}" "${actual}")
if(NOT actual STREQUAL golden)
  message(FATAL_ERROR "event hashes drifted from ${GOLDEN}; the regenerated "
                      "file is ${ACTUAL} (diff the two)")
endif()
list(LENGTH headers n)
message(STATUS "all ${n} pinned event hashes match")
