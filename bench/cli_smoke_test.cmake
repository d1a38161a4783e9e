# Malformed bench command lines print the error plus the bench's usage line
# on stderr and exit 2 (never an uncaught exception): an unknown flag, a
# value that is not a number, and a positional argument.
foreach(case "fig1;--bogus;unknown flag --bogus"
             "kernel;--n=12x;--n=12x: not a number"
             "quality;extra;unexpected argument: extra")
  list(POP_FRONT case bench arg error)
  execute_process(
    COMMAND ${BENCH_DIR}/bench_${bench} ${arg}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "${error}" error_at)
  if(NOT rc EQUAL 2 OR error_at EQUAL -1 OR
     NOT err MATCHES "usage: bench_${bench} ")
    message(FATAL_ERROR
            "bad command line 'bench_${bench} ${arg}' gave (${rc}): ${out}${err}")
  endif()
endforeach()
