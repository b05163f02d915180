# Runs one example on bad input: cmake -DCMD=<binary> -DARG=<argument>
# -DEXPECT_EXIT=<code> -DEXPECT_STDERR=<regex> -P expect_exit.cmake.
# Fails unless the example exits with EXPECT_EXIT (not by a signal) and
# its stderr matches EXPECT_STDERR.
execute_process(COMMAND "${CMD}" "${ARG}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
# Without the trailing newline, `$` in EXPECT_STDERR ends the message.
string(STRIP "${err}" err)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit '${rc}', expected ${EXPECT_EXIT}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
