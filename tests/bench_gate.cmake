# Byte gate for a timing=0 bench run, driven by ctest:
#
#   cmake -DBENCH=<binary> -DARGS="<space-separated args>"
#         -DOUT=<json> -DBASELINE=<committed json> -P bench_gate.cmake
#
# Runs BENCH with ARGS plus `--json OUT` and fails unless OUT is
# byte-identical to BASELINE.  Refreshing a baseline is a deliberate
# commit, never a side effect of this gate.

foreach(var BENCH ARGS OUT BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_gate.cmake: ${var} is not set")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${args} --json "${OUT}"
  RESULT_VARIABLE run_result
  OUTPUT_QUIET)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${run_result}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${BASELINE}"
  RESULT_VARIABLE cmp_result)
if(NOT cmp_result EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${BASELINE}")
endif()
message(STATUS "${OUT} is byte-identical to ${BASELINE}")
