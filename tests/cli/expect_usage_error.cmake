# Runs `TOOL ARGS` (ARGS is a |-separated argument list) and passes only
# when the tool exits with the usage-error code 2 and names FLAG on stderr.
#
#   cmake -DTOOL=path/to/cesmtool -DARGS="suite|--members=-1" -DFLAG=--members \
#         -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${rc}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
