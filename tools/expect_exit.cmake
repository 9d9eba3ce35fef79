# Runs `${SIM} ${ARGS}` and fails unless it exits with code ${EXPECT}.
# Usage: cmake -DSIM=<binary> "-DARGS=<args>" -DEXPECT=<code> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SIM}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${ARGS}' exited with '${rc}', expected ${EXPECT}:\n${err}")
endif()
