# Runs one bench binary with one bad environment value and requires the
# clean ConfigError exit: code 1 and a stderr message matching EXPECT.
#   cmake -DBENCH=<binary> -DVAR=<name> -DVALUE=<value> -DEXPECT=<regex>
#         -P expect_config_error.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${VAR}=${VALUE} ${BENCH}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "${VAR}=${VALUE}: exit '${code}', want 1\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${VAR}=${VALUE}: stderr does not match ${EXPECT}\n${err}")
endif()
