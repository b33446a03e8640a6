# Run one reproduction binary and fail unless it exits 0 and its stdout
# carries a "paper" annotation.
#   cmake -DBENCH=<path to binary> -P check_paper_output.cmake
execute_process(COMMAND ${BENCH}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${out}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}\n${err}")
endif()
if(NOT out MATCHES "paper")
  message(FATAL_ERROR "${BENCH} printed no \"paper\" annotation")
endif()
