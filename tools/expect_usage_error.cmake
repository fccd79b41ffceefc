# Run TOOL with the comma-separated ARGS and require the usage-error
# contract: exit status 2 and a "usage:" line on stderr.
#   cmake -DTOOL=<exe> -DARGS=a,b,c -P expect_usage_error.cmake
string(REPLACE "," ";" arg_list "${ARGS}")
execute_process(COMMAND ${TOOL} ${arg_list}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 20)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${TOOL} ${arg_list}: exit ${rc}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${TOOL} ${arg_list}: no usage message\n${err}")
endif()
