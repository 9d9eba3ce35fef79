# Runs `${SIM} ${ARGS}` and fails unless it exits with code ${EXPECT}
# and, when EXPECT_ERR is given, its stderr contains that text.
# Usage: cmake -DSIM=<binary> "-DARGS=<args>" -DEXPECT=<code>
#        ["-DEXPECT_ERR=<text>"] -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SIM}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${ARGS}' exited with '${rc}', expected ${EXPECT}:\n${err}")
endif()
if(DEFINED EXPECT_ERR)
  string(FIND "${err}" "${EXPECT_ERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGS}' stderr lacks '${EXPECT_ERR}':\n${err}")
  endif()
endif()
