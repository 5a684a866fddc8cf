# Run PROG with ARGS (a ;-list) and require a nonzero exit status plus
# the literal text EXPECT on stderr.
#
#   cmake -DPROG=<exe> -DARGS=<args> -DEXPECT=<text> -P expect_cli_error.cmake
execute_process(COMMAND ${PROG} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${ARGS}' exited 0; expected an error\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${ARGS}' (exit ${rc}) did not print "
                      "\"${EXPECT}\" on stderr:\n${err}")
endif()
